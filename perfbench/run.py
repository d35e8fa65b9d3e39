"""Run the kdl benchmark.

    python3 perfbench/run.py --workload hopf_sweep|fan_verify|cli_mixed|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/kdl`` and
``BENCHMARK.json``.  Each workload runs in fresh worker processes: several
set-up-only processes and one measuring process.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics named in BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The traced run also writes its spans
under ``.bench_out/``.

Op times, the throughput and latency figures made from them, and the set-up
time are scaled to a reference host speed (see ``perfbench/reference.py``);
the unscaled throughput and the host speed are printed beside them.
``peak_rss_mb`` and the per-layer self times are not scaled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("hopf_sweep", "fan_verify", "cli_mixed")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    result = worker([name, str(seed), str(seconds), str(trace)], deadline)
    if not trace:
        # Set-up is short, so take the median over fresh processes.
        setups = [result["setup_s"]]
        setups += [worker([name, "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES - 1)]
        result["stats"]["setup_s"] = statistics.median(setups)
    return result


def report(result: dict, trace: int, described: dict) -> None:
    name = result["workload"]
    print(
        f"{name} seed={result['seed']}: attempted={result['attempted']} failed={result['failed']} "
        f"failed_ratio={result['failed'] / result['attempted']:.6g}"
    )
    print(f"  digest sha256={result['digest']} over the first {result['digest_ops']} ops")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        layers = result["layers"]
        print(f"  spans written to {result['spans_file']}")
        print(f"  {len(result['floor_only'])} layer figures never entered here read the preflight's per-op amount")
        print(f"  tracing overhead {layers['trace.overhead_ratio']:.3f}x "
              f"({layers['trace.untraced_ops_per_s']:.1f} untraced vs {layers['trace.traced_ops_per_s']:.1f} traced ops/s)")
        busiest = sorted((k for k in layers if k.endswith(".self_s") and k.count(".") > 1),
                         key=lambda k: -layers[k])[:8]
        for key in busiest:
            print(f"  {key} {layers[key]:.4g} s/op ({layers[key[:-7] + '.calls']:.4g} calls/op)")
        return
    stats = result["stats"]
    for key, unit in (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
                      ("op_p50_us", "us"), ("op_p90_us", "us"), ("op_p99_us", "us")):
        print(f"  {key} {stats[key]:.6g} {unit}")
    print(f"  latency sample {stats['sample']} ops; throughput is the median of {stats['blocks']} blocks")
    print(f"  host speed {stats['host_speed']:.3f} of the reference; unscaled ops_per_s {stats['raw_ops_per_s']:.6g} 1/s")
    for key, how in described[name]["report_names"].items():
        print(f"  {name}.{key} {stats[how['stat']] * how['scale']:.6g} {how['unit']}")


def metrics_for(result: dict, trace: int, spec: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = result["layers"] if trace else result["stats"]
    metrics = {}
    for metric in spec[section]:
        # A layer the run never entered measured zero work.
        value = values.get(metric["name"], 0.0) if trace else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the kdl benchmark.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kdl" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'kdl'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    described = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))["workloads"]

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
            report(results[-1], args.trace, described)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_for(results[0], args.trace, spec)
    else:
        metrics = {
            f"{r['workload']}.{key}": value
            for r in results
            for key, value in metrics_for(r, args.trace, spec).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
