"""One measurement process of the benchmark; ``run.py`` starts it.

    python3 -m perfbench.worker WORKLOAD SEED SECONDS TRACE
    python3 -m perfbench.worker WORKLOAD setup

It first imports ``kdl`` from the ``src`` directory beside this package and
times that import as the set-up, scaled to the reference speed of
``perfbench.reference``; only then does it load the rest of the benchmark,
so the set-up time does not depend on what the benchmark itself imports.
The ``setup`` form stops there.  Otherwise ``perfbench.measure`` runs a
preflight that drives small requests through every layer and gates them,
then the workload as a closed loop (one client, one thread) for the given
seconds.  The result is printed as one JSON line.
"""

import importlib
import json
import os
import sys
import time

from perfbench.reference import REFERENCE_S, reference_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The modules each workload's ops call into; the rest of kdl is imported by
# the preflight, after set-up.
SETUP_MODULES = {"hopf_sweep": ("kdl",), "fan_verify": ("kdl",), "cli_mixed": ("kdl", "kdl.cli")}


def set_up(workload: str) -> float:
    """Import the program; return the seconds it took, scaled to the reference speed."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    for name in SETUP_MODULES[workload]:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = os.path.abspath(sys.modules["kdl"].__file__)
    if os.path.commonpath([origin, src]) != src:
        raise SystemExit(f"kdl was imported from {origin}, not from {src}")
    return elapsed * REFERENCE_S / reference_seconds()


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[1] == "setup":
        print(json.dumps({"setup_s": set_up(argv[0])}))
        return 0
    workload, seed, seconds, trace = argv
    setup_s = set_up(workload)
    from perfbench import measure

    result = measure.run(workload, int(seed), float(seconds), trace == "1")
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
