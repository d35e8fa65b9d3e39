"""Acceptance suite: every criterion runs at its stated bound and prints one
pass/fail line (visible with pytest -s; the CLI selftest prints the same
lines)."""

import dataclasses
import time

import pytest

from kdl import selfcheck
from kdl.smoothing import FAMILIES


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_congruence_equivalence():
    result = _run(selfcheck.criterion_congruence_equivalence)
    assert "0 disagreements" in result.detail
    assert result.elapsed < 5.0


def test_criterion_02_warp_divides_degree():
    result = _run(selfcheck.criterion_warp_divides_degree)
    assert "0 divisibility failures" in result.detail
    assert result.elapsed < 5.0


def test_criterion_03_fan_battery_hopf():
    result = _run(selfcheck.criterion_fan_battery_hopf)
    assert result.elapsed < 2.0


def test_criterion_04_fan_battery_rational():
    result = _run(selfcheck.criterion_fan_battery_rational)
    assert result.elapsed < 5.0


def test_criterion_05_fan_battery_elliptic_mumford():
    result = _run(selfcheck.criterion_fan_battery_elliptic_mumford)
    assert result.elapsed < 1.0


@pytest.mark.parametrize("criterion, family, first", [
    (selfcheck.criterion_fan_battery_hopf, "hopf", "hopf e=1 w=1 deflection at -32"),
    (selfcheck.criterion_fan_battery_rational, "rational", "rational e=1 w=1 deflection_m at (-12, -12)"),
    (selfcheck.criterion_fan_battery_elliptic_mumford, "elliptic", "elliptic e=0 w=1 deflection at -16"),
])
def test_fan_criterion_fails_with_its_first_failing_check(monkeypatch, criterion, family, first):
    # Every expected deflection of one family off by one: the criterion fails
    # and names the family, e, w, check and counterexample of its first failure.
    spec = FAMILIES[family]

    def wrong(e):
        return tuple((v[0] + 1,) + v[1:] for v in spec.deflections(e))

    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(spec, deflections=wrong))
    result = criterion()
    assert not result.passed
    assert result.detail.endswith(f"; first failure {first}"), result.detail


def test_criterion_06_graph_theorem():
    result = _run(selfcheck.criterion_graph_theorem)
    assert result.elapsed < 1.0


def test_criterion_07_dimension_tables():
    _run(selfcheck.criterion_tables)


def test_criterion_08_rational_model_enumeration():
    _run(selfcheck.criterion_rational_models)


def test_criterion_09_boundary_structure():
    result = _run(selfcheck.criterion_boundary_structure)
    assert result.elapsed < 1.0


def test_criterion_10_cli_determinism():
    _run(selfcheck.criterion_cli_determinism)


def test_full_selftest_under_thirty_seconds():
    t0 = time.perf_counter()
    results = selfcheck.run_all()
    elapsed = time.perf_counter() - t0
    for result in results:
        print(result.line())
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert elapsed < 30.0, f"selftest took {elapsed:.1f}s"
