"""Acceptance suite: the registered criteria run once per module, each within
the time budget its registration states, and every criterion's test reads
that one run (pytest -s prints the same lines as the CLI selftest)."""

import io
import itertools
import re
import sys
import time
from contextlib import redirect_stdout

import pytest

from kdl import cli, selfcheck, smoothing
from kdl.classify import HOPF, TYPES
from kdl.cli import main
from kdl.smoothing import FAMILIES, FamilySpec


@pytest.fixture(scope="module")
def selftest():
    t0 = time.perf_counter()
    results = selfcheck.run_all()
    elapsed = time.perf_counter() - t0
    for result in results:
        print(result.line())
    return results, elapsed


def _check(selftest, number):
    result = selftest[0][number - 1]
    assert result.number == number
    assert result.passed, result.line()
    return result


def test_criterion_01_congruence_equivalence(selftest):
    assert _check(selftest, 1).detail == "1392347 tuples with n <= 60, 0 disagreements"


def test_criterion_02_warp_divides_degree(selftest):
    assert _check(selftest, 2).detail == "53975 d-semistable data with n <= 60, 0 divisibility failures"


def test_criterion_03_fan_battery_hopf(selftest):
    _check(selftest, 3)


def test_criterion_04_fan_battery_rational(selftest):
    _check(selftest, 4)


def test_criterion_05_fan_battery_elliptic_mumford(selftest):
    _check(selftest, 5)


def test_criterion_06_graph_theorem(selftest):
    _check(selftest, 6)


def test_criterion_07_dimension_tables(selftest):
    _check(selftest, 7)


def test_criterion_08_rational_model_enumeration(selftest):
    _check(selftest, 8)


def test_criterion_09_boundary_structure(selftest):
    _check(selftest, 9)


def test_criterion_10_cli_determinism(selftest):
    _check(selftest, 10)


def test_full_selftest_under_thirty_seconds(selftest):
    results, elapsed = selftest
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert elapsed < 30.0, f"selftest took {elapsed:.1f}s"


def test_registry_numbers_criteria_one_to_ten_with_unique_names():
    assert [c.number for c in selfcheck.CRITERIA] == list(range(1, 11))
    assert len({c.name for c in selfcheck.CRITERIA}) == len(selfcheck.CRITERIA)


def test_run_all_reports_in_registry_order(selftest):
    assert [(r.number, r.name) for r in selftest[0]] == [(c.number, c.name) for c in selfcheck.CRITERIA]


def test_criterion_past_its_budget_fails(monkeypatch):
    # Every clock reading is 10 s after the last, so each body seems to take
    # at least 10 s: criterion 5 (budget 1.0 s) fails, criterion 7 (none) passes.
    clock = itertools.count(0.0, 10.0)
    monkeypatch.setattr(selfcheck.time, "perf_counter", lambda: next(clock))
    result = selfcheck.criterion_fan_battery_elliptic_mumford()
    assert not result.passed
    assert result.detail.endswith("35 battery checks; exceeded 1.0s budget"), result.detail
    assert result.line().startswith("FAIL  5 fan_battery_elliptic_mumford: ")
    assert selfcheck.criterion_tables().passed


def test_a_raising_criterion_fails_alone(monkeypatch):
    # A body that raises fails its criterion, with the exception's type and
    # message as the detail, instead of ending the run.
    def raising(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(selfcheck, "build_family", raising)
    result = selfcheck.criterion_fan_battery_hopf()
    assert (result.number, result.passed, result.detail) == (3, False, "RuntimeError: planted")
    assert result.line().startswith("FAIL  3 fan_battery_hopf: RuntimeError: planted [")


def test_selftest_runs_every_criterion_past_a_raising_one(monkeypatch):
    # The registry re-registered through _criterion with quick bodies, of
    # which criterion 3's raises: run_all still returns all ten results, and
    # `kdl selftest` prints one line per criterion and exits 1.
    registered, ran = list(selfcheck.CRITERIA), []
    monkeypatch.setattr(selfcheck, "CRITERIA", [])
    for criterion in registered:

        def body(number=criterion.number):
            ran.append(number)
            if number == 3:
                raise ValueError("no such row")
            return True, "quick"

        selfcheck._criterion(criterion.number, criterion.name, bound=60.0)(body)
    results = selfcheck.run_all()
    assert [(r.number, r.name) for r in results] == [(c.number, c.name) for c in registered]
    assert [r.number for r in results if not r.passed] == [3] and ran == list(range(1, 11))
    assert results[2].detail == "ValueError: no such row"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["selftest"])
    lines = [re.sub(r" \[\d+\.\d\ds\]$", "", line) for line in out.getvalue().splitlines()]
    expected = [f"PASS {c.number:2d} {c.name}: quick" for c in registered] + ["passed 9/10 criteria"]
    expected[2] = "FAIL  3 fan_battery_hopf: ValueError: no such row"
    assert (code, lines) == (1, expected)


@pytest.mark.parametrize("criterion, family, first", [
    (selfcheck.criterion_fan_battery_hopf, "hopf", "hopf e=1 w=1 deflection at -32"),
    (selfcheck.criterion_fan_battery_rational, "rational", "rational e=1 w=1 deflection_m at (-12, -12)"),
    (selfcheck.criterion_fan_battery_elliptic_mumford, "elliptic", "elliptic e=0 w=1 deflection at -16"),
])
def test_fan_criterion_fails_with_its_first_failing_check(monkeypatch, criterion, family, first):
    # Every expected deflection of one family off by one, on the row of the
    # type that names it: the criterion fails and names the family, e, w,
    # check and counterexample of its first failure.
    key, spec = next((key, spec) for key, spec in TYPES.items() if spec.family == family)

    def wrong(e):
        return tuple((v[0] + 1,) + v[1:] for v in spec.deflections(e))

    monkeypatch.setitem(TYPES, key, spec._replace(deflections=wrong))
    result = criterion()
    assert not result.passed
    assert result.detail.endswith(f"; first failure {first}"), result.detail


def test_a_type_naming_another_family_fails_the_fan_criteria(monkeypatch):
    # The Hopf type naming the elliptic family: the hopf fan, which no type
    # names now, is held to zero deflection, and the elliptic fan to the Hopf
    # type's e*(0, 1, 0), so criteria 3 and 5 fail at their first window index.
    monkeypatch.setitem(TYPES, HOPF, TYPES[HOPF]._replace(family="elliptic"))
    hopf, elliptic = selfcheck.criterion_fan_battery_hopf(), selfcheck.criterion_fan_battery_elliptic_mumford()
    assert hopf.detail.endswith("; first failure hopf e=1 w=1 deflection at -32"), hopf.detail
    assert elliptic.detail.endswith("; first failure elliptic e=4 w=2 deflection at -16"), elliptic.detail
    assert not hopf.passed and not elliptic.passed


def test_a_wrong_row_proof_fails_the_fan_criterion(monkeypatch):
    # prove_row answering True for a hopf row whose shift has 1 where the
    # paper has e: the certified battery trusts the row and passes, but the
    # validated full walk of the same family fails.  At e = 1 the row is the
    # paper's, so the first failure is at e = 2.
    spec = FAMILIES["hopf"]
    (name, rows, torus), *rest = spec.group
    rows = tuple(tuple(1 if x == "e" else x for x in row) for row in rows)
    monkeypatch.setattr(smoothing, "prove_row", lambda row: True)
    monkeypatch.setitem(FAMILIES, "hopf", FamilySpec(spec.min_degree, spec.kind, ((name, rows, torus), *rest),
                                                     spec.labels, spec.untested))
    result = selfcheck.criterion_fan_battery_hopf()
    assert not result.passed
    assert result.detail.endswith("; first failure hopf e=2 w=1 differs from its full walk"), result.detail


_REQUESTS = {" ".join(argv): (code, text) for argv, code, text in selfcheck.CLI_REQUESTS}
_FIRST = next(iter(_REQUESTS))
_FIRST_ERROR = next(request for request, (code, _) in _REQUESTS.items() if code == 2)
_RUNS = itertools.count()


def _answer(argv, code=None, out=None, err='{"error": "MalformedInput"}'):
    # Each request's own exit code, its text on stdout and a JSON error object
    # on stderr, unless the case gives another.
    want, text = _REQUESTS[" ".join(argv)]
    print(text if out is None else out)
    print(err, file=sys.stderr)
    return want if code is None else code


@pytest.mark.parametrize("fake_main, first", [
    (lambda argv: _answer(argv, out=str(next(_RUNS))), f"nondeterministic output for {_FIRST}"),
    (lambda argv: _answer(argv, code=1), f"exit 1, not 0, for {_FIRST}"),
    (lambda argv: _answer(argv, out="{}"), f"stdout lacks '\"verdict\": \"KodairaSurface(1)\"' for {_FIRST}"),
    (lambda argv: _answer(argv, err="bad input"), f"no JSON error object on stderr for {_FIRST_ERROR}"),
])
def test_cli_criterion_fails_naming_the_request(monkeypatch, fake_main, first):
    # A main answering every request but one way wrong: criterion 10 fails
    # and names the first request that shows it.
    monkeypatch.setattr(cli, "main", fake_main)
    result = selfcheck.criterion_cli_determinism()
    assert not result.passed
    assert result.detail.endswith(f"; first failure {first}"), result.detail


def test_cli_criterion_passes_the_answers_it_asks_for(monkeypatch):
    monkeypatch.setattr(cli, "main", _answer)
    assert selfcheck.criterion_cli_determinism().passed
