"""Runners for the acceptance criteria.

Each criterion is one function returning a CriterionResult; the CLI selftest
and the pytest acceptance module both drive these, so the checked statements
live in exactly one place.  The fan criteria 3-5 run ``kdl.smoothing``'s
verification battery over their stated ranges rather than restating its
checks.  Everything is exact integer arithmetic; criteria with a stated time
budget fail when they exceed it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .boundary import adjacency_edges, enumerate_components
from .classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    HopfDatum,
    TangentDims,
    TangentUnavailable,
    cohomology_table,
    hopf_dsemistable,
    hopf_dsemistable_oracle,
    hopf_invariants,
    tangent_table,
)
from .graphs import (
    GluingClass,
    betti1,
    enumerate_gluings,
    enumerate_rational_models,
    gluing_morphism,
    neron_polygon_graph,
    pullback_rank,
    triple_line_graph,
)
from .smoothing import build_family, verify_family


# The ranges the criteria check; the README states the same ones.
HOPF_N_MAX = 60  # criteria 1 and 2: every Hopf datum with n <= HOPF_N_MAX
HOPF_E_MAX, HOPF_WINDOW = 8, 32  # criterion 3
RATIONAL_E_MAX, RATIONAL_WINDOW = 5, 12  # criterion 4
ELLIPTIC_MUMFORD_WINDOW = 16  # criterion 5
BOUNDARY_D_MAX, BOUNDARY_W_MAX = 3, 4  # criterion 9


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:2d} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


def _result(number, name, t0, ok, detail, bound=None) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if bound is not None and elapsed >= bound:
        ok = False
        detail += f"; exceeded {bound}s budget"
    return CriterionResult(number, name, ok, detail, elapsed)


def _unit_table(n: int) -> list[int]:
    return [a for a in range(n) if math.gcd(a, n) == 1]


def criterion_congruence_equivalence() -> CriterionResult:
    """Direct d-semistability congruences agree with the lifted-homomorphism oracle."""
    t0 = time.perf_counter()
    cases = 0
    disagreements = 0
    direct, oracle, datum = hopf_dsemistable, hopf_dsemistable_oracle, HopfDatum
    for n in range(1, HOPF_N_MAX + 1):
        units = _unit_table(n)
        for n1 in units:
            for n2 in units:
                for b in range(n):
                    h = datum(n, n1, n2, b)
                    cases += 1
                    if direct(h) != oracle(h):
                        disagreements += 1
    ok = disagreements == 0
    return _result(
        1,
        "congruence_equivalence",
        t0,
        ok,
        f"{cases} tuples with n <= {HOPF_N_MAX}, {disagreements} disagreements",
        bound=5.0,
    )


def criterion_warp_divides_degree() -> CriterionResult:
    """Every d-semistable datum has warp dividing degree."""
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for n in range(1, HOPF_N_MAX + 1):
        units = _unit_table(n)
        for n1 in units:
            for n2 in units:
                for b in range(n):
                    h = HopfDatum(n, n1, n2, b)
                    if hopf_dsemistable(h):
                        checked += 1
                        e, w = hopf_invariants(h)
                        if e % w != 0:
                            violations += 1
    ok = checked > 0 and violations == 0
    return _result(
        2,
        "warp_divides_degree",
        t0,
        ok,
        f"{checked} d-semistable data with n <= {HOPF_N_MAX}, {violations} divisibility failures",
        bound=5.0,
    )


def _battery(number: int, name: str, bound: float, scope: str, runs) -> CriterionResult:
    """Build and verify each (family, e, w, window) of runs; pass iff every check passes."""
    t0 = time.perf_counter()
    checks, failures = 0, []
    for family, e, w, window in runs:
        for c in verify_family(build_family(family, e=e, w=w, window=window)).checks:
            checks += 1
            if not c.passed:
                failures.append(f"{family} e={e} w={w} {c.name} at {c.counterexample}")
    detail = f"{scope}: {checks} battery checks"
    if failures:
        detail += f"; first failure {failures[0]}"
    return _result(number, name, t0, not failures, detail, bound=bound)


def criterion_fan_battery_hopf() -> CriterionResult:
    runs = [("hopf", e, w, HOPF_WINDOW) for e in range(1, HOPF_E_MAX + 1) for w in range(1, e + 1) if e % w == 0]
    scope = f"hopf e in 1..{HOPF_E_MAX}, every w | e, |m| <= {HOPF_WINDOW}"
    return _battery(3, "fan_battery_hopf", 2.0, scope, runs)


def criterion_fan_battery_rational() -> CriterionResult:
    runs = [("rational", e, 1, RATIONAL_WINDOW) for e in range(1, RATIONAL_E_MAX + 1)]
    scope = f"rational e in 1..{RATIONAL_E_MAX}, w = 1, |m|,|n| <= {RATIONAL_WINDOW}"
    return _battery(4, "fan_battery_rational", 5.0, scope, runs)


def criterion_fan_battery_elliptic_mumford() -> CriterionResult:
    window = ELLIPTIC_MUMFORD_WINDOW
    runs = [("elliptic", e, w, window) for e, w in ((0, 1), (4, 2), (6, 3))] + [("mumford", None, None, window)]
    scope = f"elliptic (e, w) in (0, 1), (4, 2), (6, 3) and mumford, |index| <= {window}"
    return _battery(5, "fan_battery_elliptic_mumford", 1.0, scope, runs)


def criterion_graph_theorem() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    if betti1(neron_polygon_graph(6)) != 1:
        failures.append("betti1 of the 6-gon graph")
    if betti1(triple_line_graph()) != 2:
        failures.append("betti1 of the triple-line graph")
    valid = 0
    for p, cls in enumerate_gluings().results:
        if cls is GluingClass.INVALID:
            continue
        valid += 1
        rank = pullback_rank(gluing_morphism(p))
        if (rank == 0) != (cls is GluingClass.UNTWISTED):
            failures.append(f"equivalence fails at {p}")
    ok = not failures and valid == 48
    detail = f"betti numbers and untwisted<=>rank-0 over {valid} valid gluings"
    if failures:
        detail += f"; first failure {failures[0]}"
    return _result(6, "graph_theorem_check", t0, ok, detail, bound=1.0)


def criterion_tables() -> CriterionResult:
    t0 = time.perf_counter()
    expected_cohomology = [
        (HOPF, 1, (1, 1, 0)),
        (ELLIPTIC_RULED, 1, (1, 2, 1)),
        (ELLIPTIC_RULED, 0, (2, 3, 1)),
        (RATIONAL, 1, (1, 2, 0)),
        (RATIONAL, 0, (2, 3, 0)),
    ]
    expected_tangent = [
        (HOPF, 1, TangentDims(1, 2, 1)),
        (ELLIPTIC_RULED, 1, TangentDims(1, 3, 2)),
        (RATIONAL, 1, TangentDims(1, 3, 2)),
        (ELLIPTIC_RULED, 0, TangentUnavailable(4)),
        (RATIONAL, 0, TangentUnavailable(4)),
    ]
    failures = []
    for surface_type, e, want in expected_cohomology:
        if cohomology_table(surface_type, e) != want:
            failures.append(f"cohomology {surface_type} e={e}")
    for surface_type, e, want in expected_tangent:
        if tangent_table(surface_type, e) != want:
            failures.append(f"tangent {surface_type} e={e}")
    ok = not failures
    detail = "all published cohomology and tangent dimension triples"
    if failures:
        detail += f"; first failure {failures[0]}"
    return _result(7, "dimension_tables", t0, ok, detail)


def criterion_rational_models() -> CriterionResult:
    t0 = time.perf_counter()
    models = [(m.minimal_model, m.polygon_size, m.blowup_count) for m in enumerate_rational_models()]
    ok = models == [("ProjectivePlane", 6, 3), ("Hirzebruch", 6, 2)]
    return _result(8, "rational_model_enumeration", t0, ok, f"models = {models}")


def criterion_boundary_structure() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    param = {HOPF: "PuncturedDisk", RATIONAL: "CStar", ELLIPTIC_RULED: "ComplexLine"}
    for d in range(1, BOUNDARY_D_MAX + 1):
        for wm in range(1, BOUNDARY_W_MAX + 1):
            components = enumerate_components(d, wm)
            if len(components) != 3 * wm:
                failures.append(f"count d={d} w_max={wm}")
            if any(c.param_space != param[c.stratum] for c in components):
                failures.append(f"param spaces d={d} w_max={wm}")
            edges = adjacency_edges(components)
            x1 = {e.endpoints for e in edges if e.witness == "X1Family"}
            want_x1 = {
                ((ELLIPTIC_RULED, d * w, w), (HOPF, d * w, w))
                for w in range(1, wm + 1)
            }
            if x1 != want_x1:
                failures.append(f"X1 edges d={d} w_max={wm}")
            x2 = {e.endpoints for e in edges if e.witness == "X2Family"}
            want_x2 = (
                {((RATIONAL, d, 1), (ELLIPTIC_RULED, 2 * d, 2))} if wm >= 2 else set()
            )
            if x2 != want_x2:
                failures.append(f"X2 edges d={d} w_max={wm}")
            for e in edges:
                if {e.endpoints[0][0], e.endpoints[1][0]} == {HOPF, RATIONAL}:
                    failures.append(f"hopf-rational edge d={d} w_max={wm}")
    ok = not failures
    detail = f"d <= {BOUNDARY_D_MAX}, w_max <= {BOUNDARY_W_MAX}: counts, labels, X1/X2 edges, no hopf-rational edge"
    if failures:
        detail += f"; first failure {failures[0]}"
    return _result(9, "boundary_structure", t0, ok, detail, bound=1.0)


def criterion_cli_determinism() -> CriterionResult:
    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    from . import cli

    t0 = time.perf_counter()
    failures = []

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    fixtures = [
        ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}'],
        ["classify", "--type", "rational", "--data", '{"e":3,"w":2,"untwisted":true}'],
        ["fan", "--family", "mumford", "--window", "4"],
        ["fan", "--family", "hopf", "--e", "2", "--window", "4"],
        ["boundary", "--degree", "1", "--max-warp", "2"],
        ["boundary", "--degree", "1", "--max-warp", "2", "--format", "dot"],
        ["graph", "--gluing", '{"components":[0,1,2,0,1,2],"nodes":[0,1,0,1,0,1]}'],
    ]
    for argv in fixtures:
        code1, out1, err1 = run(argv)
        code2, out2, err2 = run(argv)
        if (code1, out1, err1) != (code2, out2, err2):
            failures.append(f"nondeterministic output for {' '.join(argv)}")
        if code1 != 0:
            failures.append(f"unexpected exit {code1} for {' '.join(argv)}")

    code, out, _ = run(["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}'])
    if code == 0 and '"verdict": "KodairaSurface(1)"' not in out:
        failures.append("classify fixture lost its verdict")

    code, out, err = run(
        ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"bogus":7}']
    )
    if code != 2:
        failures.append(f"unknown field accepted (exit {code})")
    else:
        try:
            parsed = json.loads(err)
            if "error" not in parsed:
                failures.append("stderr error object has no 'error' field")
        except json.JSONDecodeError:
            failures.append("stderr is not a JSON error object")

    code, _, err = run(["classify", "--type", "hopf", "--data", "{not json"])
    if code != 2 or not err:
        failures.append(f"invalid JSON accepted (exit {code})")

    code, _, _ = run(["verify", "--family", "hopf", "--e", "2", "--w", "2", "--window", "8"])
    if code != 0:
        failures.append(f"verify fixture failed (exit {code})")

    ok = not failures
    detail = "byte-identical reruns, structured errors with exit 2, verify exit 0"
    if failures:
        detail += f"; first failure {failures[0]}"
    return _result(10, "cli_determinism", t0, ok, detail)


def run_all() -> list[CriterionResult]:
    return [
        criterion_congruence_equivalence(),
        criterion_warp_divides_degree(),
        criterion_fan_battery_hopf(),
        criterion_fan_battery_rational(),
        criterion_fan_battery_elliptic_mumford(),
        criterion_graph_theorem(),
        criterion_tables(),
        criterion_rational_models(),
        criterion_boundary_structure(),
        criterion_cli_determinism(),
    ]
