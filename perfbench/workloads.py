"""The benchmark's three workloads: seeded inputs, timed ops and correctness gates.

Each workload hands out its inputs as shuffled *decks*.  A deck holds a fixed
mix of request kinds (and, for ``fan_verify``, a fixed set of window sizes);
the seed decides the data inside each slot and the order.  Keeping the mix
fixed keeps the latency quantiles steady from seed to seed, while the data
still change with the seed.

Input generation imports nothing from ``kdl``: items are plain tuples, and
``run`` turns them into ``kdl`` objects inside the timed op.  ``run`` looks
every ``kdl`` function up on its module at call time, so that the span
recorder's rebinding is seen.  ``check`` recomputes the expected answer from
the paper's formulas without ``kdl`` and returns a failure reason or None.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import random

SCHEMA = "kdl/1"
# Skew of the draws from each cli_mixed request pool.
ZIPF_EXPONENT = 1.1


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _unit(rng: random.Random, n: int) -> int:
    while True:
        x = rng.randrange(1, n)
        if math.gcd(x, n) == 1:
            return x


def _square_root_modulus(n: int) -> int:
    """Least m such that every multiple d of m has d*d = 0 mod n: prod p^ceil(k/2)."""
    m, p = 1, 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        m *= p ** ((k + 1) // 2)
        p += 1
    return m * n


def _divisors(e: int) -> list[int]:
    return [d for d in range(1, e + 1) if e % d == 0]


def _zipf_cum_weights(size: int) -> list[float]:
    total, cum = 0.0, []
    for rank in range(size):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum.append(total)
    return cum


# ---------------------------------------------------------------------------
# Reference answers for surface data, from the paper's formulas alone.


def expected_surface(item: tuple) -> dict:
    """What classification must report for a surface item.

    Hopf items are ``("hopf", n, n1, n2, b, label, matrix)``; ruled items are
    ``("elliptic" | "rational", e, w, flag, label)``.
    """
    if item[0] == "hopf":
        _, n, n1, n2, b, _, matrix = item
        admissible = True
        if matrix is not None:
            a, mb, c, d = matrix
            if a * d - mb * c != 1:
                return {"error": "NotSL2", "oracle": _congruences(n, n1, n2, b)}
            admissible = a == 1 and d == 1 and c == 0
        diff = n1 - n2
        e = math.gcd(n, diff)
        w = n // math.gcd(e, b)
        oracle = _congruences(n, n1, n2, b)
        ds = admissible and oracle
        surface_type = "hopf"
    else:
        kind, e, w, flag, _ = item
        admissible = flag
        ds = admissible and (e == 0 if w == 0 else e % w == 0)
        oracle = None
        surface_type = "elliptic_ruled" if kind == "elliptic" else "rational"
    if not ds:
        verdict = "NoSmoothing"
    elif e == 0:
        verdict = "ComplexTorus"
    else:
        verdict = f"KodairaSurface({e // w})"
    return {
        "type": surface_type,
        "admissible": admissible,
        "d_semistable": ds,
        "degree": e,
        "warp": w,
        "verdict": verdict,
        "oracle": oracle,
    }


def _congruences(n: int, n1: int, n2: int, b: int) -> bool:
    diff = n1 - n2
    return diff * diff % n == 0 and b * diff % n == 0


def check_surface(item: tuple, outcome: dict) -> str | None:
    """Gate for one surface datum: oracle agreement, w | e, verdict, planted errors."""
    want = expected_surface(item)
    if outcome.get("oracle") != want["oracle"]:
        return f"oracle {outcome.get('oracle')} != congruences {want['oracle']}"
    if "error" in want:
        if outcome.get("error") != want["error"]:
            return f"expected {want['error']}, got {outcome.get('error') or 'a result'}"
        return None
    payload = outcome.get("payload")
    if payload is None:
        return f"unexpected error {outcome.get('error')}"
    return check_surface_payload(want, payload)


def check_surface_payload(want: dict, payload: dict) -> str | None:
    for key in ("type", "admissible", "d_semistable", "degree", "warp", "verdict"):
        if payload.get(key) != want[key]:
            return f"{key} {payload.get(key)!r} != {want[key]!r}"
    if payload["d_semistable"] and payload["degree"] % max(payload["warp"], 1) != 0:
        return "d-semistable but warp does not divide degree"
    if (payload.get("cohomology") is None) == want["admissible"]:
        return "cohomology present iff admissible"
    return None


def make_surface(rng: random.Random, kind: str, label: str) -> tuple:
    """One surface item of the given deck kind (see HopfSweep)."""
    if kind in ("elliptic", "rational"):
        e = 0 if rng.random() < 0.1 else _log_uniform(rng, 1, 10**6)
        mode = rng.randrange(4)
        if mode < 2:
            w = math.gcd(e, rng.randrange(1, 10**6))  # a divisor of e
        elif mode == 2:
            w = 0
        else:
            w = rng.randrange(1, 50)
        return (kind, e, w, rng.random() < 0.85, label)
    n = _log_uniform(rng, 2, 10**6)
    n1 = _unit(rng, n)
    if kind == "hopf_ds":
        m = _square_root_modulus(n)
        diff = m * rng.randrange(n // m)
        step = n // math.gcd(n, diff)
        return ("hopf", n, n1, (n1 - diff) % n, step * rng.randrange(n // step), label, None)
    n2, b = _unit(rng, n), rng.randrange(n)
    matrix = None
    if kind == "hopf_sl2":
        matrix = (1, b, 0, 1)
    elif kind == "hopf_glued":
        c = rng.randrange(1, 50)
        a = _unit(rng, c) if c > 1 else rng.randrange(2, 50)
        d = pow(a, -1, c) if c > 1 else 1
        matrix = (a, (a * d - 1) // c, c, d)
    elif kind == "hopf_bad":
        while matrix is None or matrix[0] * matrix[3] - matrix[1] * matrix[2] == 1:
            matrix = tuple(rng.randrange(-3, 4) for _ in range(4))
    return ("hopf", n, n1, n2, b, label, matrix)


# ---------------------------------------------------------------------------


class Workload:
    """Common shape of a workload; subclasses fill in the hooks."""

    name = ""
    digest_ops = 0

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.serial = 0

    def bind(self) -> None:
        """Look up the kdl modules the ops call into; run after set-up."""
        self.kdl = {name: importlib.import_module(f"kdl.{name}")
                    for name in ("classify", "fans", "smoothing", "errors", "cli")}

    def deck(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, outcome) -> str | None:
        raise NotImplementedError

    def record(self, item, outcome) -> bytes:
        """Bytes of one op's answer that feed the run's output digest."""
        return json.dumps([item, outcome], sort_keys=True, default=list).encode()

    def units(self, item, outcome) -> int:
        """Work units an op completed (cones for fan_verify, else 1)."""
        return 1

    def counters(self, item, outcome) -> dict:
        """Counts the traced run adds up: cones verified, CLI bytes written."""
        return {}


class HopfSweep(Workload):
    """Distinct surface data; each op classifies, runs the oracle and encodes.

    The deck of 20: 10 generic Hopf data, 4 d-semistable Hopf data, 2 with an
    explicit SL2 gluing matrix (one admissible, one not), 1 with a matrix not
    in SL2 (the correct outcome is NotSL2), 2 elliptic ruled, 1 rational.
    n is log-uniform in [2, 10^6]; the opaque alpha/j label carries a serial
    number, so no datum repeats.
    """

    name = "hopf_sweep"
    digest_ops = 2000
    DECK = ("hopf",) * 10 + ("hopf_ds",) * 4 + ("hopf_sl2", "hopf_glued", "hopf_bad") + (
        "elliptic", "elliptic", "rational")

    def deck(self) -> list:
        kinds = list(self.DECK)
        self.rng.shuffle(kinds)
        return [self.make(kind) for kind in kinds]

    def make(self, kind: str) -> tuple:
        self.serial += 1
        return make_surface(self.rng, kind, f"a{self.serial}")

    def run(self, item):
        c = self.kdl["classify"]
        if item[0] == "hopf":
            _, n, n1, n2, b, label, matrix = item
            datum = c.HopfDatum(n, n1, n2, b, alpha_label=label)
            oracle = c.hopf_dsemistable_oracle(datum)
            try:
                sc = c.classify(datum, None if matrix is None else c.GluingMatrix(*matrix))
            except self.kdl["errors"].NotSL2:
                return {"error": "NotSL2", "oracle": oracle}
            return {"payload": c.surface_class_payload(sc), "oracle": oracle}
        kind, e, w, flag, label = item
        if kind == "elliptic":
            datum = c.EllipticRuledDatum(e, w, translation=flag, j_label=label)
        else:
            datum = c.RationalDatum(e, w, untwisted=flag, horizontal_labels=(label, "h2"))
        return {"payload": c.surface_class_payload(c.classify(datum)), "oracle": None}

    def check(self, item, outcome):
        return check_surface(item, outcome)

    @staticmethod
    def fixed_items() -> list:
        return [
            ("hopf", 12, 1, 7, 6, "a", None),
            ("hopf", 10, 3, 7, 5, "a", (1, 5, 0, 1)),
            ("hopf", 10, 3, 7, 5, "a", (2, 1, 1, 1)),
            ("hopf", 10, 3, 7, 5, "a", (2, 0, 0, 1)),
            ("elliptic", 6, 3, True, "j"),
            ("rational", 0, 0, True, "h1"),
        ]


class FanVerify(Workload):
    """build_family + verify_family requests over all four fan families.

    The deck of 25 is fixed but for the data: 20 chain-family windows
    log-spaced over 4..48, dealt round-robin to mumford/hopf/elliptic, and 5
    rational windows over 2..8.  The seed draws e <= 8 with w | e per request,
    the planted defects and the order.  About 1 in 10 requests has its last
    window cone replaced by the (valid) cone of the index before it; its
    correct outcome is a failing report with a counterexample.
    """

    name = "fan_verify"
    digest_ops = 25
    CHAIN_WINDOWS = (4, 5, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 22, 25, 28, 32, 36, 41, 48)
    RATIONAL_WINDOWS = (2, 3, 4, 6, 8)
    CHAIN_FAMILIES = ("mumford", "hopf", "elliptic")
    PLANT_SHARE = 0.1

    def deck(self) -> list:
        items = [
            self.make(self.CHAIN_FAMILIES[k % 3], window)
            for k, window in enumerate(self.CHAIN_WINDOWS)
        ]
        items += [self.make("rational", window) for window in self.RATIONAL_WINDOWS]
        self.rng.shuffle(items)
        return items

    def make(self, family: str, window: int) -> tuple:
        rng = self.rng
        e = w = None
        if family != "mumford":
            e = rng.randrange(0 if family == "elliptic" else 1, 9)
            w = rng.choice(_divisors(e)) if e else rng.randrange(1, 9)
        plant = None
        if rng.random() < self.PLANT_SHARE:
            # The defect sits in the last row the checks visit, so a report
            # that stops at the first failure does nearly the full work and
            # a planted request costs about what a valid one does.
            if family == "rational":
                n = rng.randrange(-window, window + 1)
                plant = ((window, n), (window - 1, n))
            else:
                plant = (window, window - 1)
        return (family, e, w, window, plant)

    def run(self, item):
        family, e, w, window, plant = item
        smoothing, fans = self.kdl["smoothing"], self.kdl["fans"]
        fam = smoothing.build_family(family, e=e, w=w, window=window)
        if plant is not None:
            at, source = plant
            cones = dict(fam.fan.cones)
            cones[at] = fans.cone_at(fam.kind, source)
            fam = dataclasses.replace(
                fam, fan=fans.FanWindow(fam.fan.kind, fam.fan.index_range, cones))
        report = smoothing.verify_family(fam)
        return {
            "all_pass": report.all_pass,
            "failed": [[c.name, c.counterexample] for c in report.checks if not c.passed],
            "checks": len(report.checks),
            "cones": len(fam.fan.cones),
        }

    def check(self, item, outcome):
        return check_fan(item[4] is not None, outcome)

    def units(self, item, outcome):
        return outcome["cones"]

    def counters(self, item, outcome):
        return {"cones": outcome["cones"]}

    @staticmethod
    def fixed_items() -> list:
        return [
            ("mumford", None, None, 2, None),
            ("hopf", 2, 1, 2, None),
            ("elliptic", 0, 3, 2, None),
            ("rational", 2, 2, 1, None),
            ("hopf", 4, 2, 3, (0, 1)),
        ]


def check_fan(planted: bool, outcome: dict) -> str | None:
    """Gate for one verification: valid families pass, planted defects are caught."""
    if not planted:
        return None if outcome["all_pass"] else f"valid family failed {outcome['failed']}"
    if outcome["all_pass"]:
        return "planted defect not detected"
    if not any(counterexample is not None for _, counterexample in outcome["failed"]):
        return "planted defect reported without a counterexample"
    return None


class CliMixed(Workload):
    """In-process ``kdl.cli.main(argv)`` calls with stdout and stderr captured.

    Each deck slot names a request kind in fixed proportions (of 20: classify
    4 hopf, 2 elliptic, 2 rational; fan 2; verify 4; graph --gluing 2,
    --betti 1; boundary json 1, dot 1; malformed 1).  Within a kind the
    request is drawn Zipf-like from a seeded pool of 12 requests, so requests
    repeat.  Malformed requests (bad JSON, unknown field, non-unit
    residue) must exit 2 with a JSON error object on stderr.
    """

    name = "cli_mixed"
    digest_ops = 1000
    POOL_SIZE = 12
    # verify, the slowest kind, fills the top fifth of the latencies, so the
    # 90th percentile falls mid-cluster rather than on a cluster's edge.
    DECK = ("classify_hopf",) * 4 + ("classify_elliptic",) * 2 + ("classify_rational",) * 2 + (
        "fan", "fan", "verify", "verify", "verify", "verify", "gluing", "gluing", "betti",
        "boundary_json", "boundary_dot", "malformed")

    def __init__(self, seed: int):
        super().__init__(seed)
        # dict.fromkeys keeps the deck order; a set's order would change with
        # the interpreter's hash seed, and the pools with it.
        self.pools = {kind: [self.make(kind) for _ in range(self.POOL_SIZE)] for kind in dict.fromkeys(self.DECK)}
        self.cum_weights = _zipf_cum_weights(self.POOL_SIZE)
        self.seen: dict[tuple, str] = {}

    def deck(self) -> list:
        kinds = list(self.DECK)
        self.rng.shuffle(kinds)
        return [self.rng.choices(self.pools[kind], cum_weights=self.cum_weights)[0] for kind in kinds]

    def make(self, kind: str) -> tuple:
        """A request: (argv, expected exit code, output format, surface item or None)."""
        rng = self.rng
        if kind.startswith("classify_"):
            self.serial += 1
            surface_kind = kind.removeprefix("classify_")
            if surface_kind == "hopf":
                surface_kind = rng.choice(("hopf", "hopf_ds", "hopf_sl2"))
            surface = make_surface(rng, surface_kind, f"a{self.serial}")
            return (("classify", "--data", json.dumps(_surface_document(surface))), 0, "json", surface)
        if kind in ("fan", "verify"):
            # Windows are chosen so that requests of one kind cost about the
            # same, which keeps the latency quantiles steady across seeds.
            if kind == "fan":
                family = rng.choice(("mumford", "hopf", "elliptic", "rational"))
                window = 1 if family == "rational" else rng.randrange(3, 6)
            else:
                family, window = rng.choice(("hopf", "elliptic")), 4
            argv = [kind, "--family", family, "--window", str(window)]
            if family != "mumford":
                e = rng.randrange(1, 9)
                argv += ["--e", str(e), "--w", str(rng.choice(_divisors(e)))]
            if kind == "fan" and rng.random() < 0.5:
                argv.append("--full")
            return (tuple(argv), 0, "json", None)
        if kind == "gluing":
            return (("graph", "--gluing", json.dumps(self._gluing())), 0, "json", None)
        if kind == "betti":
            return (("graph", "--betti", json.dumps(self._graph())), 0, "json", None)
        if kind.startswith("boundary_"):
            argv = ("boundary", "--degree", str(rng.randrange(1, 7)), "--max-warp", str(rng.randrange(1, 7)),
                    "--format", kind.split("_")[1])
            return (argv, 0, kind.split("_")[1], None)
        return (("classify", "--data", self._malformed()), 2, "error", None)

    def _gluing(self) -> dict:
        rng = self.rng
        if rng.random() < 0.5:
            comp = [0, 0, 1, 1, 2, 2]
            rng.shuffle(comp)
            node = [rng.randrange(2) for _ in range(6)]
        else:
            # An untwisted or a twisted gluing, relabelled and rotated, so the
            # pullback on H^1 is computed.
            comp, node = rng.choice((([0, 1, 2, 0, 1, 2], [0, 1, 0, 1, 0, 1]),
                                     ([0, 1, 2, 0, 2, 1], [0, 1, 0, 1, 0, 1])))
            labels, flip, r = rng.sample(range(3), 3), rng.randrange(2), rng.randrange(6)
            comp = [labels[comp[(i - r) % 6]] for i in range(6)]
            node = [node[(i - r) % 6] ^ flip for i in range(6)]
        return {"components": comp, "nodes": node}

    def _graph(self) -> dict:
        rng = self.rng
        white = [f"C{i}" for i in range(rng.randrange(1, 7))]
        black = [f"p{i}" for i in range(rng.randrange(1, 7))]
        edges = [[rng.choice(white), rng.choice(black)] for _ in range(rng.randrange(1, 13))]
        return {"white": white, "black": black, "edges": edges}

    def _malformed(self) -> str:
        rng = self.rng
        flaw = rng.randrange(3)
        n = rng.choice((12, 18, 20, 30))
        doc = {"type": "hopf", "n": n, "n1": 1, "n2": n - 1, "b": rng.randrange(n)}
        if flaw == 0:
            return json.dumps(doc)[:-rng.randrange(1, 8)]
        if flaw == 1:
            doc[rng.choice(("colour", "m", "n3"))] = 1
        else:
            doc["n1"] = 2
        return json.dumps(doc)

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.kdl["cli"].main(list(item[0]))
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, item, outcome):
        return check_cli(item, outcome, self.seen)

    def record(self, item, outcome):
        return json.dumps([item[0], outcome["rc"], outcome["stdout"], outcome["stderr"]]).encode()

    def counters(self, item, outcome):
        argv = item[0]
        cones = 0
        if argv[0] == "verify":
            side = 2 * int(argv[argv.index("--window") + 1]) + 1
            cones = side * side if argv[argv.index("--family") + 1] == "rational" else side
        return {"cli_bytes": len(outcome["stdout"].encode()) + len(outcome["stderr"].encode()), "cones": cones}

    @staticmethod
    def fixed_items() -> list:
        hopf = ("hopf", 12, 1, 7, 6, "a", None)
        return [
            (("classify", "--data", json.dumps(_surface_document(hopf))), 0, "json", hopf),
            (("fan", "--family", "hopf", "--e", "2", "--w", "1", "--window", "2", "--full"), 0, "json", None),
            (("verify", "--family", "rational", "--e", "1", "--w", "1", "--window", "1"), 0, "json", None),
            (("graph", "--gluing", '{"components": [0, 1, 2, 0, 1, 2], "nodes": [0, 1, 0, 1, 0, 1]}'),
             0, "json", None),
            (("graph", "--betti", '{"white": ["C0"], "black": ["p0"], "edges": [["C0", "p0"], ["C0", "p0"]]}'),
             0, "json", None),
            (("boundary", "--degree", "2", "--max-warp", "2"), 0, "json", None),
            (("boundary", "--degree", "2", "--max-warp", "2", "--format", "dot"), 0, "dot", None),
            (("classify", "--data", '{"type": "hopf", "n": 12'), 2, "error", None),
        ]


def _surface_document(item: tuple) -> dict:
    if item[0] == "hopf":
        _, n, n1, n2, b, label, matrix = item
        doc = {"type": "hopf", "n": n, "n1": n1, "n2": n2, "b": b, "alpha_label": label}
        if matrix is not None:
            doc["matrix"] = list(matrix)
        return doc
    kind, e, w, flag, label = item
    if kind == "elliptic":
        return {"type": "elliptic_ruled", "e": e, "w": w, "translation": flag, "j_label": label}
    return {"type": "rational", "e": e, "w": w, "untwisted": flag, "horizontal_labels": [label, "h2"]}


def check_cli(item: tuple, outcome: dict, seen: dict) -> str | None:
    """Gate for one CLI request: exit code, schema on every JSON document, and
    byte-identical output whenever the same argv repeats within the run."""
    argv, rc, fmt, surface = item
    if outcome["rc"] != rc:
        return f"exit code {outcome['rc']} != {rc}: {outcome['stderr'][:200]}"
    try:
        if fmt == "error":
            if outcome["stdout"]:
                return "malformed request wrote to stdout"
            doc = json.loads(outcome["stderr"])
        elif fmt == "dot":
            doc = None
            if not (outcome["stdout"].startswith("graph moduli_boundary {") and outcome["stdout"].endswith("}\n")):
                return "dot output malformed"
        else:
            doc = json.loads(outcome["stdout"])
    except json.JSONDecodeError as exc:
        return f"output is not one JSON document: {exc}"
    if doc is not None:
        if doc.get("schema") != SCHEMA:
            return f"schema {doc.get('schema')!r} != {SCHEMA!r}"
        if fmt == "error" and "error" not in doc:
            return "error object lacks an 'error' field"
        if surface is not None:
            failure = check_surface_payload(expected_surface(surface), doc)
            if failure:
                return failure
        if argv[0] == "verify" and doc.get("all_pass") is not True:
            return "verification failed"
    digest = hashlib.sha256(outcome["stdout"].encode()).hexdigest()
    if seen.setdefault(argv, digest) != digest:
        return "stdout differs from an earlier run of the same argv"
    return None


WORKLOADS = {cls.name: cls for cls in (HopfSweep, FanVerify, CliMixed)}
