"""The acceptance criteria, each declared once, in order, in ``CRITERIA``.

The CLI selftest and the pytest acceptance module both run ``CRITERIA``, so
the checked statements live in exactly one place.  The fan criteria 3-5 run
``kdl.smoothing``'s verification battery, certified and walked in full,
rather than restating its checks.  Everything is exact integer arithmetic.
Both records are ``kdl.lattice._Record`` tuples with named read-only fields.
"""

from __future__ import annotations

import functools
import io
import json
import time
from collections import namedtuple
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout

from .boundary import adjacency_edges, enumerate_components
from .classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    TYPES,
    TangentDims,
    TangentUnavailable,
    _hopf_data,
    cohomology_table,
    hopf_dsemistable,
    hopf_dsemistable_oracle,
    hopf_invariants,
    tangent_table,
)
from .graphs import (
    GluingClass,
    all_gluings,
    betti1,
    classify_gluing,
    enumerate_rational_models,
    gluing_morphism,
    neron_polygon_graph,
    pullback_rank,
    triple_line_graph,
)
from .fans import fan_window
from .lattice import _record, _Record
from .smoothing import FAMILIES, SmoothingFamily, build_family, verify_family


# The ranges the criteria check; the README states the same ones.
HOPF_N_MAX = 60  # criteria 1 and 2: every Hopf datum with n <= HOPF_N_MAX
HOPF_E_MAX, HOPF_WINDOW = 8, 32  # criterion 3
RATIONAL_E_MAX, RATIONAL_WINDOW = 5, 12  # criterion 4
ELLIPTIC_MUMFORD_WINDOW = 16  # criterion 5
BOUNDARY_D_MAX, BOUNDARY_W_MAX = 3, 4  # criterion 9


class CriterionResult(_Record, namedtuple("CriterionResult", "number name passed detail elapsed")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:2d} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


class Criterion(_Record, namedtuple("Criterion", "number name run")):
    """A criterion's number, name and ``run``, which returns its ``CriterionResult``."""

    __slots__ = ()


CRITERIA: list[Criterion] = []  # in number order, as declared below


def _criterion(number: int, name: str, bound: float | None = None):
    """Register a body returning (passed, detail) as criterion ``number``.

    The registered function times the body, fails it when it reaches its budget
    or raises (with the exception's type and message), and builds the CriterionResult.
    """

    def register(body: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            try:
                passed, detail = body()
            except Exception as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if bound is not None and elapsed >= bound:
                passed, detail = False, f"{detail}; exceeded {bound}s budget"
            return CriterionResult(number, name, passed, detail, elapsed)

        CRITERIA.append(Criterion(number, name, run))
        return run

    return register


def _first(detail: str, failures: list[str]) -> str:
    """The detail, naming the first of the failures if there are any."""
    return f"{detail}; first failure {failures[0]}" if failures else detail


@_criterion(1, "congruence_equivalence", bound=5.0)
def criterion_congruence_equivalence():
    """Direct d-semistability congruences agree with the lifted-homomorphism oracle."""
    cases = disagreements = 0
    for n in range(1, HOPF_N_MAX + 1):
        for h in _hopf_data(n):
            cases += 1
            disagreements += hopf_dsemistable(h) != hopf_dsemistable_oracle(h)
    return disagreements == 0, f"{cases} tuples with n <= {HOPF_N_MAX}, {disagreements} disagreements"


@_criterion(2, "warp_divides_degree", bound=5.0)
def criterion_warp_divides_degree():
    """Every d-semistable datum has warp dividing degree."""
    checked = violations = 0
    for n in range(1, HOPF_N_MAX + 1):
        for e, w in map(hopf_invariants, filter(hopf_dsemistable, _hopf_data(n))):
            checked += 1
            violations += e % w != 0
    detail = f"{checked} d-semistable data with n <= {HOPF_N_MAX}, {violations} divisibility failures"
    return checked > 0 and violations == 0, detail


def _battery(scope: str, runs):
    """Build and verify each (family, e, w, window) of runs; pass iff every check and row certificate passes and each
    report equals that of the same family walked uncertified, with every cone of its window validated."""
    checks, failures = 0, []
    for family, e, w, window in runs:
        fam = build_family(family, e=e, w=w, window=window)
        walked = _record(SmoothingFamily, **vars(fam) | {"fan": fan_window(fam.kind, window), "certificate": None})
        report = verify_family(fam)
        checks += len(report.checks)
        failures += [f"{family} e={e} w={w} {c.name} at {c.counterexample}" for c in report.checks if not c.passed]
        failures += [] if FAMILIES[family].certified() else [f"{family} row certificate"]
        failures += [] if verify_family(walked) == report else [f"{family} e={e} w={w} differs from its full walk"]
    detail = f"{scope}, certified for all e >= min_degree, w | e, each equal to its validated full walk"
    return not failures, _first(f"{detail}: {checks} battery checks", failures)


@_criterion(3, "fan_battery_hopf", bound=2.0)
def criterion_fan_battery_hopf():
    runs = [("hopf", e, w, HOPF_WINDOW) for e in range(1, HOPF_E_MAX + 1) for w in range(1, e + 1) if e % w == 0]
    return _battery(f"hopf e in 1..{HOPF_E_MAX}, every w | e, |m| <= {HOPF_WINDOW}", runs)


@_criterion(4, "fan_battery_rational", bound=5.0)
def criterion_fan_battery_rational():
    runs = [("rational", e, 1, RATIONAL_WINDOW) for e in range(1, RATIONAL_E_MAX + 1)]
    return _battery(f"rational e in 1..{RATIONAL_E_MAX}, w = 1, |m|,|n| <= {RATIONAL_WINDOW}", runs)


@_criterion(5, "fan_battery_elliptic_mumford", bound=1.0)
def criterion_fan_battery_elliptic_mumford():
    window = ELLIPTIC_MUMFORD_WINDOW
    runs = [("elliptic", e, w, window) for e, w in ((0, 1), (4, 2), (6, 3))] + [("mumford", None, None, window)]
    return _battery(f"elliptic (e, w) in (0, 1), (4, 2), (6, 3) and mumford, |index| <= {window}", runs)


@_criterion(6, "graph_theorem_check", bound=1.0)
def criterion_graph_theorem():
    failures = []
    if betti1(neron_polygon_graph(6)) != 1:
        failures.append("betti1 of the 6-gon graph")
    if betti1(triple_line_graph()) != 2:
        failures.append("betti1 of the triple-line graph")
    valid = 0
    for p in all_gluings():
        cls = classify_gluing(p)
        if cls is GluingClass.INVALID:
            continue
        valid += 1
        rank = pullback_rank(gluing_morphism(p))
        if (rank == 0) != (cls is GluingClass.UNTWISTED):
            failures.append(f"equivalence fails at {p}")
    detail = f"betti numbers and untwisted<=>rank-0 over {valid} valid gluings"
    return not failures and valid == 48, _first(detail, failures)


@_criterion(7, "dimension_tables")
def criterion_tables():
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
    return not failures, _first("all published cohomology and tangent dimension triples", failures)


@_criterion(8, "rational_model_enumeration")
def criterion_rational_models():
    models = [(m.minimal_model, m.polygon_size, m.blowup_count) for m in enumerate_rational_models()]
    return models == [("ProjectivePlane", 6, 3), ("Hirzebruch", 6, 2)], f"models = {models}"


@_criterion(9, "boundary_structure", bound=1.0)
def criterion_boundary_structure():
    failures = []
    param = {HOPF: "PuncturedDisk", RATIONAL: "CStar", ELLIPTIC_RULED: "ComplexLine"}
    for d in range(1, BOUNDARY_D_MAX + 1):
        for c in enumerate_components(d, BOUNDARY_W_MAX):
            family = TYPES[c.stratum].family
            if build_family(family, c.degree, c.warp, window=1).quotient_info.generic_fiber_degree != d:
                failures.append(f"{family} family at e={c.degree} w={c.warp}")
        for wm in range(1, BOUNDARY_W_MAX + 1):
            components = enumerate_components(d, wm)
            if len(components) != 3 * wm:
                failures.append(f"count d={d} w_max={wm}")
            if any(c.param_space != param[c.stratum] for c in components):
                failures.append(f"param spaces d={d} w_max={wm}")
            edges = adjacency_edges(components)
            x1 = {e.endpoints for e in edges if e.witness == "X1Family"}
            if x1 != {((ELLIPTIC_RULED, d * w, w), (HOPF, d * w, w)) for w in range(1, wm + 1)}:
                failures.append(f"X1 edges d={d} w_max={wm}")
            x2 = {e.endpoints for e in edges if e.witness == "X2Family"}
            want_x2 = {((RATIONAL, d, 1), (ELLIPTIC_RULED, 2 * d, 2))} if wm >= 2 else set()
            if x2 != want_x2:
                failures.append(f"X2 edges d={d} w_max={wm}")
            for e in edges:
                if {e.endpoints[0][0], e.endpoints[1][0]} == {HOPF, RATIONAL}:
                    failures.append(f"hopf-rational edge d={d} w_max={wm}")
    detail = f"d <= {BOUNDARY_D_MAX}, w_max <= {BOUNDARY_W_MAX}: counts, labels, X1/X2 edges, no hopf-rational edge"
    return not failures, _first(detail, failures)


CLI_REQUESTS = (
    (["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}'], 0, '"verdict": "KodairaSurface(1)"'),
    (["classify", "--type", "rational", "--data", '{"e":3,"w":2,"untwisted":true}'], 0, '"verdict": "NoSmoothing"'),
    (["fan", "--family", "mumford", "--window", "4"], 0, '"kind": "mumford_neron"'),
    (["fan", "--family", "hopf", "--e", "2", "--window", "4"], 0, '"kind": "hopf_smoothing"'),
    (["boundary", "--degree", "1", "--max-warp", "2"], 0, '"components": ['),
    (["boundary", "--degree", "1", "--max-warp", "2", "--format", "dot"], 0, "graph moduli_boundary {"),
    (["graph", "--gluing", '{"components":[0,1,2,0,1,2],"nodes":[0,1,0,1,0,1]}'], 0, '"classification": "Untwisted"'),
    (["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"bogus":7}'], 2, ""),
    (["classify", "--type", "hopf", "--data", "{not json"], 2, ""),
    (["verify", "--family", "hopf", "--e", "2", "--w", "2", "--window", "8"], 0, '"all_pass": true'),
)


def _error_object(text: str) -> bool:
    """Whether ``text`` is a JSON object with an "error" field."""
    try:
        return isinstance(value := json.loads(text), dict) and "error" in value
    except ValueError:
        return False


@_criterion(10, "cli_determinism")
def criterion_cli_determinism():
    """Each of ``CLI_REQUESTS`` (argv, exit code, a text stdout must hold), run twice in process, answers the same
    both times with its exit code and text, and on exit 2 with a JSON object with an "error" field on stderr."""
    from . import cli

    def run(argv):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            return cli.main(argv), out.getvalue(), err.getvalue()

    failures = []
    for argv, want, text in CLI_REQUESTS:
        (code, out, err), request = run(argv), " ".join(argv)
        if run(argv) != (code, out, err):
            failures.append(f"nondeterministic output for {request}")
        elif code != want:
            failures.append(f"exit {code}, not {want}, for {request}")
        elif text not in out:
            failures.append(f"stdout lacks {text!r} for {request}")
        elif code == 2 and not _error_object(err):
            failures.append(f"no JSON error object on stderr for {request}")
    return not failures, _first("byte-identical reruns, structured errors with exit 2, verify exit 0", failures)


def run_all() -> list[CriterionResult]:
    return [criterion.run() for criterion in CRITERIA]
