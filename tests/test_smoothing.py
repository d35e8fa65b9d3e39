import copy
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stdout
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import identity

import kdl
import kdl.fans
import kdl.lattice
import kdl.smoothing
from kdl.boundary import adjacency_edges, enumerate_components
from kdl.cli import main
from kdl.classify import TYPES, Verdict, smoothing_verdict
from kdl.errors import DimMismatch, NotDivisible
from kdl.fans import (
    Cone,
    EllipticSmoothing,
    FanWindow,
    GroupElement,
    HopfSmoothing,
    MumfordNeron,
    RationalSmoothing,
    apply,
    cone_at,
    cone_is_smooth,
    deflection,
    ray_formula,
    share_facet,
    window_payload,
)
from kdl.graphs import PolygonGluing, enumerate_rational_models
from kdl.lattice import IntMatrix, IntVec, det, is_unipotent
from kdl.smoothing import (
    FAMILIES,
    FAMILY_NAMES,
    UNTESTED_COMMON,
    CheckResult,
    FamilySpec,
    SmoothingFamily,
    VerificationReport,
    build_family,
    family_payload,
    parameter_values,
    prove_row,
    report_payload,
    verify_family,
)


def check_names(report):
    return {c.name: c for c in report.checks}


class TestBuildFamily:
    def test_hopf_generators(self):
        fam = build_family("hopf", e=2, w=2, window=8)
        assert fam.generators[0].lattice_part.rows == ((1, 2, 0), (0, 1, 0), (1, 0, 1))
        assert fam.generators[1].torus_part == ("1", "alpha", "1")
        assert fam.quotient_info.galois_order == 2
        assert fam.quotient_info.generic_fiber_degree == 1

    def test_mumford_family(self):
        fam = build_family("mumford", window=8)
        assert fam.generator_names == ("polygon_shift",)
        assert fam.generators[0].lattice_part.rows == ((1, 0), (1, 1))
        assert fam.quotient_info is None

    def test_rational_generators_commute(self):
        fam = build_family("rational", e=1, w=1, window=4)
        phi, psi = fam.generators[0].lattice_part, fam.generators[1].lattice_part
        assert phi @ psi == psi @ phi
        assert fam.generators[2].torus_part == ("1", "1", "1", "1", "lambda")

    def test_elliptic_twist_exponent(self):
        fam = build_family("elliptic", e=6, w=3, window=4)
        assert fam.generators[1].lattice_part.rows[0] == (1, 2, 0)
        # No fan check sees the exponent (TestCertificate.EQUIVALENT), so it
        # is pinned here: e/w, the degree of the quotient's generic fibre.
        for e, w in family_params("elliptic"):
            fam = build_family("elliptic", e=e, w=w, window=1)
            twist = dict(zip(fam.generator_names, fam.generators))["base_twist"]
            assert twist.lattice_part.rows[0][1] == e // w == fam.quotient_info.generic_fiber_degree, (e, w)

    def test_warp_must_divide(self):
        with pytest.raises(NotDivisible):
            build_family("hopf", e=3, w=2)
        with pytest.raises(NotDivisible):
            build_family("elliptic", e=2, w=0)
        with pytest.raises(NotDivisible):
            build_family("elliptic", e=3, w=2)
        with pytest.raises(NotDivisible):
            build_family("elliptic", e=3, w=0)

    def test_mumford_takes_no_params(self):
        with pytest.raises(ValueError):
            build_family("mumford", e=1, w=1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_family("k3", e=1, w=1)

    def test_hopf_needs_positive_degree(self):
        with pytest.raises(ValueError):
            build_family("hopf", e=0, w=1)

    def test_elliptic_degree_zero_allowed(self):
        fam = build_family("elliptic", e=0, w=1, window=4)
        assert fam.quotient_info.generic_fiber_degree == 0


class TestVerifyFamily:
    def test_hopf_all_pass(self):
        report = verify_family(build_family("hopf", e=2, w=2, window=8))
        assert report.all_pass, [c for c in report.checks if not c.passed]

    def test_mumford_all_pass_with_zero_deflection(self):
        report = verify_family(build_family("mumford", window=8))
        assert report.all_pass
        assert check_names(report)["deflection"].passed

    def test_elliptic_all_pass(self):
        report = verify_family(build_family("elliptic", e=4, w=2, window=8))
        assert report.all_pass
        assert "base_twist_fixes_fan" in check_names(report)

    def test_rational_all_pass(self):
        report = verify_family(build_family("rational", e=2, w=1, window=4))
        names = check_names(report)
        assert report.all_pass
        assert names["shift_m"].passed and names["shift_n"].passed
        assert names["deflection_m"].passed and names["deflection_n"].passed

    # One window cone replaced, per family: (family, e, w, window, planted
    # index, planted cone, every check as (name, counterexample or None)).
    # The planted cone is a neighbour's, given by its index, or one whose rays
    # (a list) lie in ker(shift - I), so the shift fixes it and freeness fails.
    # Adjacency prints "i~j"; the rational transitivity walk prints "(m,n)"
    # with no space, the other checks "(m, n)".
    PLANTED = [
        ("mumford", None, None, 3, 1, 2, [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "0~1"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "0"), ("deflection", None), ("freeness_proxy", None),
            ("shift_orbit_transitive", "1"),
        ]),
        ("hopf", 2, 2, 4, 0, 1, [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "-1~0"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "-1"), ("fiber_gluing_fixes_fan", None), ("deflection", None),
            ("freeness_proxy", None), ("shift_orbit_transitive", "0"),
        ]),
        ("elliptic", 4, 2, 3, -1, 0, [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "-2~-1"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "-2"), ("base_twist_fixes_fan", None), ("deflection", None),
            ("freeness_proxy", None), ("shift_orbit_transitive", "-1"),
        ]),
        ("rational", 2, 1, 2, (1, 0), (1, 1), [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "(0, 0)~(1, 0)"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift_m", "(0, 0)"), ("shift_n", "(1, -1)"),
            ("horizontal_gluing_fixes_fan", None), ("deflection_m", None),
            ("deflection_n", None), ("freeness_proxy", None),
            ("shift_orbit_transitive", "(1,0)"),
        ]),
        ("mumford", None, None, 3, 1, [(1, 0)], [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "0~1"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "0"), ("deflection", None), ("freeness_proxy", "shift^1 fixes 1"),
            ("shift_orbit_transitive", "1"),
        ]),
        ("hopf", 2, 2, 4, 0, [(0, 1, 0)], [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "-1~0"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "-1"), ("fiber_gluing_fixes_fan", None), ("deflection", None),
            ("freeness_proxy", "shift^1 fixes 0"), ("shift_orbit_transitive", "0"),
        ]),
        ("elliptic", 4, 2, 3, -1, [(1, 0, 0), (0, 1, 0)], [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "-2~-1"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "-2"), ("base_twist_fixes_fan", "-1"), ("deflection", None),
            ("freeness_proxy", "shift^1 fixes -1"), ("shift_orbit_transitive", "-1"),
        ]),
        ("rational", 2, 1, 2, (1, 0), [(0, 1, 0, 0), (0, 0, 0, 1)], [
            ("cones_smooth", None), ("adjacent_cones_share_facet", "(0, 0)~(1, 0)"),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift_m", "(0, 0)"), ("shift_n", "(1, -1)"),
            ("horizontal_gluing_fixes_fan", None), ("deflection_m", None),
            ("deflection_n", None), ("freeness_proxy", "shift_m^1 fixes (1, 0)"),
            ("shift_orbit_transitive", "(1,0)"),
        ]),
    ]

    @staticmethod
    def planted(family, e, w, window, at, plant):
        """The family's window with the cone at ``at`` replaced by ``plant``."""
        fam = build_family(family, e=e, w=w, window=window)
        cones = dict(fam.fan.cones)
        if isinstance(plant, list):
            cones[at] = Cone(tuple(map(IntVec, plant)), fam.kind.AMBIENT_RANK)
        else:
            cones[at] = cone_at(fam.kind, plant)
        return dataclasses.replace(fam, fan=FanWindow(fam.fan.kind, fam.fan.index_range, cones))

    def test_tampered_ray_detected(self):
        for family, e, w, window, at, plant, checks in self.PLANTED:
            fam = build_family(family, e=e, w=w, window=window)
            tampered = self.planted(family, e, w, window, at, plant)
            assert report_payload(verify_family(tampered)) == {
                "family": family,
                "all_pass": False,
                "checks": [
                    {"name": name, "passed": failure is None, "counterexample": failure}
                    for name, failure in checks
                ],
                "untested": report_payload(verify_family(fam))["untested"],
            }, family

    def test_non_unipotent_shift_tries_every_power(self):
        # -I fixes no cone, but its square fixes every one.
        fam = build_family("mumford", window=3)
        minus_one = GroupElement.from_matrix(IntMatrix(((-1, 0), (0, -1))))
        report = verify_family(dataclasses.replace(fam, generators=(minus_one,)))
        assert [(c.name, c.counterexample) for c in report.checks] == [
            ("cones_smooth", None), ("adjacent_cones_share_facet", None),
            ("generators_special_linear", None), ("generators_commute", None),
            ("shift", "-3"), ("deflection", None), ("freeness_proxy", "shift^2 fixes -3"),
            ("shift_orbit_transitive", "-2"),
        ]

    def test_a_hole_or_a_narrowed_range_is_unreached(self):
        # A hand-built window may lack a cone's predecessor, or hold a cone at
        # the lower bound of a narrower index range than its cones span.  The
        # transitivity walk reports the first such cone as unreached, and
        # every other check passes.
        def unreached(fam, index_range, cones):
            fam = dataclasses.replace(fam, fan=FanWindow(fam.kind, index_range, cones))
            report = verify_family(fam)
            assert all(c.passed for c in report.checks[:-1]), report
            assert report_payload(report) == full_walk(fam)
            return report.checks[-1].counterexample

        hopf = build_family("hopf", e=2, window=3)
        assert unreached(hopf, ((-2, 2),), dict(hopf.fan.cones)) == "-2"
        assert unreached(hopf, hopf.fan.index_range, {i: c for i, c in hopf.fan.cones.items() if i != 0}) == "1"
        rational = build_family("rational", e=1, window=1)
        holes = {(-1, -1): "(0,-1)", (-1, 0): "(-1,1)", (0, -1): "(0,0)", (0, 0): "(0,1)", (1, -1): "(1,0)",
                 (1, 0): "(1,1)", (-1, 1): None, (0, 1): None, (1, 1): None}
        for hole, first in holes.items():
            cones = {i: c for i, c in rational.fan.cones.items() if i != hole}
            assert unreached(rational, rational.fan.index_range, cones) == first, hole

    # Each family's valid window: (family, e, w, window).
    VALID = [("mumford", None, None, 8), ("hopf", 3, 1, 8), ("elliptic", 4, 2, 8), ("rational", 2, 1, 4)]

    def test_apply_calls_per_cone(self, monkeypatch):
        # On a window that matches the formula, apply maps no cone, however
        # many cones the window has: the certificate maps rays.  A planted
        # cone adds only the images that involve it: its image under each
        # fixing generator and each shift (freeness), the two shift pairs
        # across it on each axis, and for the transitivity walk the pair into
        # it and one out of it along each axis.
        calls = []

        def counting_apply(g, c):
            calls.append(c)
            return apply(g, c)

        monkeypatch.setattr(kdl.smoothing, "apply", counting_apply)
        for family, e, w, window in self.VALID:
            for half_width in (1, 2, window):
                fam = build_family(family, e=e, w=w, window=half_width)
                axes = len(fam.kind.AXES)
                calls.clear()
                assert verify_family(fam).all_pass
                assert calls == [], family
                planted = with_plants(fam, {fam.fan.indices()[len(fam.fan.cones) // 2]: ("near", 0, 1)})
                calls.clear()
                assert not verify_family(planted).all_pass
                fixing = len(fam.generators) - axes
                assert 0 < len(calls) <= fixing + axes + 2 * axes + 1 + axes, family

    def test_a_certified_report_is_its_one_new_record(self, monkeypatch):
        # A passing result depends on its name alone, so after a first call a
        # certified verify_family shares every result and builds one record:
        # the report.  A failing result is built per call.
        built = []

        def counting(cls, original=kdl.smoothing._record, **fields):
            built.append(cls)
            return original(cls, **fields)

        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            first = verify_family(fam)
            with monkeypatch.context() as patched:
                patched.setattr(kdl.smoothing, "_record", counting)
                built.clear()
                report = verify_family(fam)
                assert built == [VerificationReport] and report == first, family
                assert all(a is b for a, b in zip(report.checks, first.checks)), family
                planted = with_plants(fam, {fam.fan.indices()[0]: ("near", 0, 1)})
                built.clear()
                report = verify_family(planted)
            failing = [c for c in report.checks if not c.passed]
            assert built == [CheckResult] * len(failing) + [VerificationReport] and failing, family

    def test_two_adjacent_departures_are_checked_as_a_pair(self, monkeypatch):
        # A hand-built copy of a formula cone departs (it carries no formula
        # tag) but is right; next to it along the first axis sits the cone of
        # the index after.  Every pair before the two is right, so the pair
        # they share is the first one adjacency reports.  Smoothness, a
        # per-cone claim, is asked of the two departed cones only, not of
        # their neighbours, which the certificate proves.
        asked = []

        def recording(cone, original=kdl.smoothing.cone_is_smooth):
            asked.append(cone)
            return original(cone)

        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=2)
            at = fam.fan.indices()[len(fam.fan.cones) // 2]
            after = at + 1 if isinstance(at, int) else (at[0] + 1,) + at[1:]
            cones = dict(fam.fan.cones)
            cones[at] = Cone(cones[at].rays, fam.kind.AMBIENT_RANK)
            cones[after] = plant(fam, after, ("near", 0, 1))
            planted = with_cones(fam, cones)
            with monkeypatch.context() as patched:
                patched.setattr(kdl.smoothing, "cone_is_smooth", recording)
                asked.clear()
                report = report_payload(verify_family(planted))
            assert len(asked) == 2 and asked[0] is cones[at] and asked[1] is cones[after], family
            assert report == full_walk(planted), family
            adjacency = next(c for c in report["checks"] if c["name"] == "adjacent_cones_share_facet")
            assert adjacency["counterexample"] == f"{at}~{after}", family

    def test_a_deflection_row_of_another_axis_count_fails_each_axis(self):
        # A type row stating one tuple fewer or more than its family's fan
        # has axes fails every deflection check of the family at the first
        # index, and the report keeps one deflection entry per fan axis.
        for key, e, window, rows in (("rational", 2, 2, lambda e: ((0, e, 0, 0),)),
                                     ("hopf", 3, 4, lambda e: ((0, e, 0), (0, 0, 0)))):
            fam = build_family(TYPES[key].family, e=e, window=window)
            expected = report_payload(verify_family(fam))
            first = str(fam.fan.indices()[0])
            for check in expected["checks"]:
                if check["name"].startswith("deflection"):
                    check.update(passed=False, counterexample=first)
            expected["all_pass"] = False
            with patch.dict(TYPES, {key: TYPES[key]._replace(deflections=rows)}):
                assert report_payload(verify_family(fam)) == expected, key
            assert sum(c["name"].startswith("deflection") for c in expected["checks"]) == len(fam.kind.AXES)

    def test_wrong_expected_deflection_detected(self):
        # Every expected deflection off by one: the first window index fails,
        # "-W" on one axis and "(-W, -W)" on each axis of the rational fan.
        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            first = str(fam.fan.indices()[0])
            with ExitStack() as moved:
                for axis in range(len(fam.kind.AXES)):
                    moved.enter_context(deflection_rows_off_by_one(family, axis, 0, 1))
                payload = report_payload(verify_family(fam))
            expected = report_payload(verify_family(fam))
            for check in expected["checks"]:
                if check["name"].startswith("deflection"):
                    check.update(passed=False, counterexample=first)
            expected["all_pass"] = False
            assert payload == expected, family
            assert first == (f"({-window}, {-window})" if family == "rational" else str(-window))

    def test_deflection_calls_per_axis(self, monkeypatch):
        # Rays have degree at most 2, so a deflection is the same at every
        # index: the check computes it once per axis.
        calls = []

        def counting_deflection(kind, index, direction=None):
            calls.append(direction)
            return deflection(kind, index, direction)

        monkeypatch.setattr(kdl.smoothing, "deflection", counting_deflection)
        for family, e, w, window in self.VALID:
            for half_width in (1, window):
                fam = build_family(family, e=e, w=w, window=half_width)
                calls.clear()
                assert verify_family(fam).all_pass
                directions = [None] if len(fam.kind.AXES) == 1 else list(fam.kind.AXES)
                assert calls == directions, family

    def test_one_basis_test_per_cone(self, monkeypatch):
        # A row's first build_family proves the row, which tests cone 0's
        # basis once: cone 0 is the same at every t.  Every later build +
        # verify of the certified family tests no basis, whatever the window:
        # every window cone is built trusted.  A planted cone adds its own
        # validation.  The rank is computed only for rays that fail the test.
        calls = {"extends_to_basis": 0, "rank_of": 0}
        for name, modules in (("extends_to_basis", (kdl.fans, kdl.smoothing)), ("rank_of", (kdl.fans,))):

            def counting(*args, name=name, original=getattr(kdl.fans, name)):
                calls[name] += 1
                return original(*args)

            for module in modules:
                monkeypatch.setattr(module, name, counting)
        unproved_rows(monkeypatch)
        for family, e, w, window in self.VALID:
            for first, half_width in ((True, 1), (False, window), (False, 1)):
                calls.update(dict.fromkeys(calls, 0))
                fam = build_family(family, e=e, w=w, window=half_width)
                assert verify_family(fam).all_pass
                proofs = 1 if first else 0
                assert calls == {"extends_to_basis": proofs, "rank_of": 0}, family
                assert not verify_family(with_plants(fam, {fam.fan.indices()[-1]: ("near", 0, -1)})).all_pass
                assert calls == {"extends_to_basis": proofs + 1, "rank_of": 0}, family

    def test_ray_formulas_once_per_window_ray(self, monkeypatch):
        # A row's first build_family evaluates only the rays prove_row reads,
        # 0..d+1 on each axis of degree d at each of its grid's D+1 values of
        # t, whatever W is; a later build_family of the certified row evaluates
        # none.  verify_family evaluates no ray: a deflection is the c2 of its
        # axis's ray formula.  window_payload then evaluates each ray -W..W+1
        # of each axis once, however many cones hold the ray.
        counts = Counter()

        def counting(kind, axis, formula=ray_formula):
            ray = formula(kind, axis)

            def evaluate(i):
                counts[axis, i] += 1
                return ray(i)

            return evaluate

        for module in (kdl.fans, kdl.smoothing):
            monkeypatch.setattr(module, "ray_formula", counting)
        unproved_rows(monkeypatch)
        for family, e, w, window in self.VALID:
            for half_width in (1, 2, window):
                counts.clear()
                fam = build_family(family, e=e, w=w, window=half_width)
                axes, coefficients = fam.kind.AXES, fam.kind.ray_coefficients
                proofs = GRID_TS[family] if half_width == 1 else 0
                assert counts == Counter(
                    {(a, i): proofs for a in axes for i in range(len(coefficients[a]) + 1)}), family
                counts.clear()
                assert verify_family(fam).all_pass
                assert counts == Counter(), family
                counts.clear()
                window_payload(fam.fan)
                assert counts == Counter((a, i) for a in axes for i in range(-half_width, half_width + 2)), family

    def test_build_and_verify_read_no_cone(self, monkeypatch):
        # The certificate proves every cone of the built window, so neither
        # build_family nor verify_family builds one.
        built = []

        def counting(kind, at, rays, certified=False, original=kdl.fans._cone):
            built.append(at)
            return original(kind, at, rays, certified)

        monkeypatch.setattr(kdl.fans, "_cone", counting)
        for family, e, w, window in self.VALID:
            for half_width in (1, 2, window):
                assert verify_family(build_family(family, e=e, w=w, window=half_width)).all_pass
                assert built == [], family

    def test_work_is_independent_of_the_window_size(self, monkeypatch):
        # For every FAMILIES row, a build + verify at W = 10**6 builds no cone
        # and evaluates the same rays as at W = 1: prove_row's at the row's
        # first build_family, none later.  A window that listed its
        # indices would hold 4*10**12 of them for the rational family.
        built, counts = [], Counter()

        def counting_cone(kind, at, rays, certified=False, original=kdl.fans._cone):
            built.append(at)
            return original(kind, at, rays, certified)

        def counting_formula(kind, axis, formula=ray_formula):
            ray = formula(kind, axis)

            def evaluate(i):
                counts[axis, i] += 1
                return ray(i)

            return evaluate

        monkeypatch.setattr(kdl.fans, "_cone", counting_cone)
        for module in (kdl.fans, kdl.smoothing):
            monkeypatch.setattr(module, "ray_formula", counting_formula)
        unproved_rows(monkeypatch)
        for family, e, w, _ in self.VALID:
            for first, half_width in ((True, 10**6), (False, 10**6), (False, 1)):
                counts.clear()
                fam = build_family(family, e=e, w=w, window=half_width)
                assert verify_family(fam).all_pass, family
                axes, coefficients = fam.kind.AXES, fam.kind.ray_coefficients
                assert len(fam.fan.cones) == (2 * half_width + 1) ** len(axes)
                proofs = GRID_TS[family] if first else 0
                assert counts == Counter(
                    {(a, i): proofs for a in axes for i in range(len(coefficients[a]) + 1)}), family
                assert built == [], family

    def test_matrix_products_only_for_the_commute_check(self, monkeypatch):
        # A row's first build_family multiplies matrices only to compare a*b
        # with b*a for each pair of generators, at each of the D+1 values of t
        # on prove_row's grid.  A later build + verify of the certified family
        # multiplies none.
        calls = []
        matmul = IntMatrix.__matmul__

        def counting(a, b):
            calls.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        unproved_rows(monkeypatch)
        for family, e, w, window in self.VALID:
            for first in (True, False):
                calls.clear()
                fam = build_family(family, e=e, w=w, window=window)
                assert verify_family(fam).all_pass
                expected = []
                for _, named in row_grid(family) if first else ():
                    gens = [g.lattice_part for _, g in named]
                    pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
                    expected += [product for a, b in pairs for product in ((a, b), (b, a))]
                assert calls == expected, family
                n = len(fam.generators)
                assert len(calls) == (GRID_TS[family] if first else 0) * n * (n - 1), family

    def test_times_calls_per_ray_and_generator(self, monkeypatch):
        # On a window that matches the formula, vectors are mapped only by
        # prove_row at a row's first build_family: d+1 rays per axis (d the
        # axis's degree) once per generator, at each of its grid's D+1 values
        # of t, however many cones the window has.  A later
        # build_family of the certified row maps none, and verify_family
        # reads the family's certificate and maps none.
        calls = []
        times = IntVec.times

        def counting_times(v, m):
            calls.append(v)
            return times(v, m)

        monkeypatch.setattr(IntVec, "times", counting_times)
        unproved_rows(monkeypatch)
        for family, e, w, window in self.VALID:
            for first, half_width in ((True, 1), (False, window)):
                calls.clear()
                fam = build_family(family, e=e, w=w, window=half_width)
                points = sum(len(fam.kind.ray_coefficients[axis]) for axis in fam.kind.AXES)
                assert len(calls) == (GRID_TS[family] if first else 0) * len(fam.generators) * points, family
                calls.clear()
                assert verify_family(fam).all_pass
                assert calls == [], family

    def test_one_unipotence_test_per_shift(self, monkeypatch):
        # prove_row tests each shift once at each of its grid's D+1 values of
        # t, at the row's first build_family; a later build of the
        # certified row tests none, nor does the freeness check of a
        # certified family.
        calls = []

        def counting(m):
            calls.append(m)
            return is_unipotent(m)

        monkeypatch.setattr(kdl.smoothing, "is_unipotent", counting)
        unproved_rows(monkeypatch)
        for family, e, w, window in self.VALID:
            for first, half_width in ((True, 1), (False, window)):
                calls.clear()
                fam = build_family(family, e=e, w=w, window=half_width)
                assert verify_family(fam).all_pass
                axes = len(fam.kind.AXES)
                shifts = [g.lattice_part for _, named in row_grid(family) for _, g in named[:axes]]
                assert calls == (shifts if first else []), family
                assert len(calls) == (GRID_TS[family] if first else 0) * axes, family

    def test_checks_are_called_through_module_globals(self, monkeypatch):
        # A tracer sees each check by rebinding its kdl.smoothing name, so
        # verify_family looks every check up there at call time: once per
        # single check, once per axis for shift and deflection, once per
        # fixing generator.
        names = sorted(name for name in vars(kdl.smoothing) if name.startswith("check_"))
        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            expected = report_payload(verify_family(fam))
            calls = dict.fromkeys(names, 0)
            for name in names:

                def counting(*args, name=name, original=getattr(kdl.smoothing, name)):
                    calls[name] += 1
                    return original(*args)

                monkeypatch.setattr(kdl.smoothing, name, counting)
            assert report_payload(verify_family(fam)) == expected, family
            monkeypatch.undo()
            axes = len(fam.kind.AXES)
            assert calls == {
                "check_adjacent_cones_share_facet": 1,
                "check_cones_smooth": 1,
                "check_deflection": axes,
                "check_fixes_fan": len(fam.generators) - axes,
                "check_freeness_proxy": 1,
                "check_generators_commute": 1,
                "check_generators_special_linear": 1,
                "check_shift": axes,
                "check_shift_orbit_transitive": 1,
            }, family

    def test_untested_metadata_present(self):
        report = verify_family(build_family("rational", e=1, w=1, window=3))
        assert any("analytic" in item for item in report.untested)


def family_params(family):
    """Every (e, w) of a family with e <= 8 and w | e (w <= 8 when e = 0)."""
    low = FAMILIES[family].min_degree
    if low is None:
        return [(None, None)]
    return [(e, w) for e in range(low, 9) for w in range(1, 9) if e % w == 0]


# The number D+1 of values of t on each row's proof grid: D = max(2, dim) for
# the generators' dimension dim; the mumford row has no parameter.
GRID_TS = {"mumford": 1, "hopf": 4, "elliptic": 4, "rational": 6}


def row_grid(family):
    """The (kind, named generators) at each t of prove_row's grid for a row, in
    order: (e, w) = (t, 1) for the D+1 values t from the row's minimum degree on."""
    spec, low = FAMILIES[family], FAMILIES[family].min_degree
    ts = [None] if low is None else range(low, low + GRID_TS[family])
    return [(spec.kind(t), spec.generators(t, None if t is None else 1)) for t in ts]


def unproved_rows(monkeypatch):
    """Replace every FAMILIES row by an equal copy whose certificate is not yet
    proved, so the next build_family of each family is the row's first use."""
    for family, spec in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(spec))


def _fan_and_verify_outputs():
    """The stdout and exit code of ``fan``, ``fan --full`` and ``verify`` for
    every family, every degree e <= 4 (elliptic from 0), every warp w <= 4
    dividing e and windows 1-3 (rational 1-2), then the report of each planted
    window in ``TestVerifyFamily.PLANTED``."""
    for family in FAMILY_NAMES:
        min_degree = FAMILIES[family].min_degree
        if min_degree is None:
            params = [[]]
        else:
            params = [
                ["--e", str(e), "--w", str(w)]
                for e in range(min_degree, 5)
                for w in range(1, 5)
                if e % w == 0
            ]
        for args in params:
            for window in range(1, 3 if family == "rational" else 4):
                for command in (["fan"], ["fan", "--full"], ["verify"]):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = main([*command, "--family", family, *args, "--window", str(window)])
                    yield {"argv": [*command, family, *args, window], "code": code, "stdout": out.getvalue()}
    for family, e, w, window, at, plant, _ in TestVerifyFamily.PLANTED:
        yield report_payload(verify_family(TestVerifyFamily.planted(family, e, w, window, at, plant)))


def test_golden_fan_and_verify_digest():
    # Compact JSON of the record list, keys in each record's own order.
    records = list(_fan_and_verify_outputs())
    text = json.dumps(records, separators=(",", ":"))
    assert len(records) == 245
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "73035052da7dbba95ab9807fbfcbf1f091c0fec7b6c7bf6be3b3b663e8a224a6"
    )


class TestFamilyTable:
    def test_shift_generators_are_unipotent(self):
        # verify_family's freeness proxy tries only k = 1 for a unipotent shift.
        for family, spec in FAMILIES.items():
            for e, w in family_params(family):
                named = spec.generators(e, w)[: len(spec.kind(e).AXES)]
                for name, g in named:
                    assert is_unipotent(g.lattice_part), (family, e, w, name)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_images_pass_cone_validation(self, data):
        # apply builds its image without re-validating it and hands on the
        # source's smoothness; the validating constructor must accept the
        # same rays and give an equal cone of the same smoothness.  Half the
        # sources are made non-smooth by doubling one ray into its neighbour.
        family = data.draw(st.sampled_from(FAMILY_NAMES))
        e, w = data.draw(st.sampled_from(family_params(family)))
        spec = FAMILIES[family]
        kind = spec.kind(e)
        at = tuple(data.draw(st.integers(-12, 12)) for _ in kind.AXES)
        cone = cone_at(kind, at if len(at) > 1 else at[0])
        bent = IntVec(tuple(2 * a + b for a, b in zip(cone.rays[0].entries, cone.rays[1].entries)))
        if data.draw(st.booleans()) and bent.is_primitive():
            cone = Cone((bent,) + cone.rays[1:], cone.rank)
            assert not cone_is_smooth(cone)
        gens = [g.lattice_part for _, g in spec.generators(e, w)]
        lattice = identity(gens[0].dim)
        for k in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=5)):
            lattice = lattice @ gens[k]
        pad = (0,) * (lattice.dim - cone.rank)
        image_rays = tuple(IntVec(IntVec(v.entries + pad).times(lattice).entries[: cone.rank]) for v in cone.rays)
        image, validated = apply(GroupElement.from_matrix(lattice), cone), Cone(image_rays, cone.rank)
        assert image == validated
        assert cone_is_smooth(image) == cone_is_smooth(validated) == cone_is_smooth(cone)


def off_by_one_mutants():
    """Every off-by-one mutant of one family row each, as (family, e, w,
    mutant, kind, named generators): each entry of each ray coefficient, and
    each entry of each generator's lattice part that is not the identity (the
    shifts and the elliptic twist), moved by 1 either way.  A lattice part
    that stops being unimodular is left out: ``GroupElement`` rejects it."""
    for family, e, w in (("mumford", None, None), ("hopf", 2, 1), ("elliptic", 4, 2), ("rational", 2, 1)):
        spec = FAMILIES[family]
        kind, named = spec.kind(e), spec.generators(e, w)
        for axis, coefficients in kind.ray_coefficients.items():
            for k, j, step in product(range(len(coefficients)), range(kind.AMBIENT_RANK), (1, -1)):
                moved = {a: [list(c) for c in cs] for a, cs in kind.ray_coefficients.items()}
                moved[axis][k][j] += step
                moved = {a: tuple(map(tuple, cs)) for a, cs in moved.items()}
                mutant = type(type(kind).__name__, (type(kind),), {"ray_coefficients": property(lambda _, m=moved: m)})
                yield family, e, w, f"ray_{axis} c{k}[{j}]{step:+d}", mutant(**dataclasses.asdict(kind)), named
        for at, (name, g) in enumerate(named):
            rows = g.lattice_part.rows
            if rows == identity(len(rows)).rows:
                continue
            for r, c, step in product(range(len(rows)), range(len(rows)), (1, -1)):
                moved = [list(row) for row in rows]
                moved[r][c] += step
                if det(IntMatrix(moved)) in (1, -1):
                    mutant = GroupElement(IntMatrix(moved), g.torus_part)
                    yield family, e, w, f"{name}[{r}][{c}]{step:+d}", kind, named[:at] + ((name, mutant),) + named[at + 1 :]


def instance_row(kind, named):
    """One instance, a kind and its named generators, as a FAMILIES row with no parameter."""
    group = tuple((name, g.lattice_part.rows, g.torus_part) for name, g in named)
    return FamilySpec(min_degree=None, kind=lambda e: kind, group=group, labels={})


def walk_instance(family, e, w, kind, named, window):
    """The full walk of the family at (e, w) with its kind and named generators
    replaced, over the kind's window of the given half-width; None when a cone
    of the window is invalid or an image leaves the embedded sublattice."""
    fam = dataclasses.replace(
        build_family(family, e=e, w=w, window=window), kind=kind, fan=kdl.fans.fan_window(kind, window),
        generators=tuple(g for _, g in named), generator_names=tuple(name for name, _ in named))
    try:
        return full_walk(fam)
    except (ValueError, DimMismatch):
        return None


def failed_checks(walked):
    """The names of the checks a full walk fails; every name when it is None."""
    return {"*"} if walked is None else {c["name"] for c in walked["checks"] if not c["passed"]}


class TestCertificate:
    def test_every_family_row_is_certified(self):
        # Every instance with e <= 8 and w | e is proved on its own, as a row
        # with no parameter.
        for family, spec in FAMILIES.items():
            for e, w in family_params(family):
                assert prove_row(instance_row(spec.kind(e), spec.generators(e, w))), (family, e, w)

    # Mutants no per-cone check can tell from the family: row j of a lattice
    # part only meets coordinate j of a ray, which is 0 on every ray
    # (coordinate 0 of the elliptic fan, the gluing coordinate 4 of the
    # rational one); and a constant term moved along a direction every
    # generator fixes reindexes or translates the fan into one with the same
    # proof.  The elliptic twist's exponent e/w is among them: it fixes every
    # ray whatever it is.
    EQUIVALENT = {
        "mumford": ["ray_m c0[0]+1", "ray_m c0[0]-1"],
        "hopf": ["ray_m c0[1]+1", "ray_m c0[1]-1"],
        "elliptic": [
            "ray_n c0[1]+1", "ray_n c0[1]-1",
            *(f"{name}[0][{c}]{step:+d}" for name in ("polygon_shift", "base_twist") for c in (1, 2) for step in (1, -1)),
        ],
        "rational": [
            "ray_m c0[1]+1", "ray_m c0[1]-1", "ray_n c0[1]+1", "ray_n c0[1]-1",
            *(f"{name}[4][{c}]{step:+d}" for name in ("shift_m", "shift_n") for c in range(4) for step in (1, -1)),
        ],
    }
    # Of those, the ones whose lattice parts stop commuting, which only the
    # generator checks see.
    NONCOMMUTING = [
        *(f"elliptic base_twist[0][2]{step:+d}" for step in (1, -1)),
        *(f"rational {name}[4][{c}]{step:+d}" for name, c in (("shift_m", 3), ("shift_n", 0), ("shift_n", 2))
          for step in (1, -1)),
    ]

    def test_off_by_one_mutants_fail_the_certificate(self):
        # Each mutant instance, as a row with no parameter, is proved exactly
        # when the full walk of a window passes every check (a window whose
        # walk leaves the embedded sublattice raises).  The walk passes every
        # per-cone check of exactly the EQUIVALENT mutants, and of those the
        # proof refuses exactly the NONCOMMUTING ones.
        mutants, equivalent, refused = 0, {family: [] for family in self.EQUIVALENT}, []
        for family, e, w, mutant, kind, named in off_by_one_mutants():
            proved = prove_row(instance_row(kind, named))
            failed = failed_checks(walk_instance(family, e, w, kind, named, 3))
            assert proved is not bool(failed), (family, mutant, failed)
            mutants += 1
            if not {name for name in failed if not name.startswith("generators_")}:
                equivalent[family].append(mutant)
                refused += [] if proved else [f"{family} {mutant}"]
        assert (mutants, equivalent, refused) == (181, self.EQUIVALENT, self.NONCOMMUTING)

    def test_each_claim_names_its_check(self):
        # One failing claim at a time: the proof of the instance fails, and
        # the full walk fails the check the claim stands for.
        hopf, rational = FAMILIES["hopf"], FAMILIES["rational"]
        kind, named = hopf.kind(2), hopf.generators(2, 1)
        shift, gluing = named
        assert prove_row(instance_row(kind, named))
        swap = GroupElement.from_matrix(IntMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1))))
        # Rays (2m, 4*binom2(m), 1), which the shift below moves, span cones of index 2.
        doubled = type("HopfSmoothing", (HopfSmoothing,), {"ray_coefficients": property(
            lambda _: {"m": ((0, 0, 1), (2, 0, 0), (0, 4, 0))})})(2)
        moves = GroupElement.from_matrix(IntMatrix(((1, 2, 0), (0, 1, 0), (2, 0, 1))))
        m_named = rational.generators(2, 1)
        cases = [
            ("hopf", kind, (("polygon_shift", swap), gluing), "shift"),
            ("hopf", kind, (shift, ("fiber_gluing", shift[1])), "fiber_gluing_fixes_fan"),
            ("hopf", doubled, (("polygon_shift", moves), gluing), "cones_smooth"),
            ("rational", rational.kind(2), m_named[:1] + (("shift_n", m_named[0][1]),) + m_named[2:], "shift_n"),
        ]
        for family, k, n, check in cases:
            assert not prove_row(instance_row(k, n)), check
            assert check in failed_checks(walk_instance(family, 2, 1, k, n, 3)), check
        # Two premises of the proof are no check a walk makes, so only the
        # proof refuses them: a shift of determinant 1 that moves every ray
        # (i, 1, 0, 0) one step but is not unipotent, so that its first power
        # decides no freeness; and rays (binom2(i+1), binom2(i), 1), which a
        # unipotent shift moves one step, but with no coordinate of ray i+1 -
        # ray i constant, so that no witness keeps them apart.
        flat = type("MumfordNeron", (MumfordNeron,), {"AMBIENT_RANK": 4, "ray_coefficients": {
            "m": ((0, 1, 0, 0), (1, 0, 0, 0))}})()
        spinning = IntMatrix(((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)))
        bent = type("HopfSmoothing", (HopfSmoothing,), {"ray_coefficients": property(
            lambda _: {"m": ((0, 0, 1), (1, 0, 0), (1, 1, 0))})})(2)
        climbing = IntMatrix(((2, 1, 0), (-1, 0, 0), (1, 0, 1)))
        assert det(spinning) == det(climbing) == 1 and not is_unipotent(spinning) and is_unipotent(climbing)
        for k, n in ((flat, (("polygon_shift", GroupElement.from_matrix(spinning)),)),
                     (bent, (("polygon_shift", GroupElement.from_matrix(climbing)), gluing))):
            assert [ray_formula(k, "m")(i).times(n[0][1].lattice_part) for i in range(-3, 3)] == [
                ray_formula(k, "m")(i + 1) for i in range(-3, 3)]
            assert not prove_row(instance_row(k, n)), k


def moved_row(spec, at, r, c, slope, step, parameter=None):
    """The row with entry (r, c) of generator ``at``'s lattice part, written
    A0 + t*A1 in the row's parameter t, moved by ``step`` in A1 if ``slope``
    else in A0; its generators are built unvalidated, as a certified row's."""

    def generators(self, e, w, trusted=False, values=None):
        named = FamilySpec.generators(self, e, w, True, values)
        name, g = named[at]
        rows = [list(row) for row in g.lattice_part.rows]
        rows[r][c] += step * (parameter_values(e, w)[parameter] if slope else 1)
        moved = GroupElement._trusted(IntMatrix(rows), g.torus_part)
        return named[:at] + ((name, moved),) + named[at + 1 :]

    row = type("MovedRow", (FamilySpec,), {"generators": generators})
    return row(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)})


def moved_rows():
    """Every row mutant of FAMILIES, as (family, mutant, row): each entry of
    each generator's lattice part (the identity of a pure translation too),
    its A0 and, in a row with a parameter, its A1 moved by 1 either way."""
    for family, spec in FAMILIES.items():
        names = {x for _, rows, _ in spec.group for row in rows or () for x in row if isinstance(x, str)}
        parts = (False, True) if names else (False,)
        for at, (name, rows, labels) in enumerate(spec.group):
            dim = len(rows or labels)
            for r, c, slope, step in product(range(dim), range(dim), parts, (1, -1)):
                mutant = f"{name}[{r}][{c}] A{int(slope)}{step:+d}"
                yield family, mutant, moved_row(spec, at, r, c, slope, step, *names)


def instance_fails(family, row, e, w) -> bool:
    """Whether the full walk of the row's instance at (e, w) fails a check over a window of half-width 1."""
    return bool(failed_checks(walk_instance(family, e, w, row.kind(e), row.generators(e, w, True), 1)))


class TestRowCertificate:
    def test_every_row_is_certified(self):
        for family, spec in FAMILIES.items():
            assert dataclasses.replace(spec).certified(), family

    def test_kind_rays_are_affine_in_e(self):
        # The row certificate's premise: each ray coefficient of a family's
        # kind is affine in its degree e.
        for family, spec in FAMILIES.items():
            low = spec.min_degree
            if low is None:
                continue
            base, step = (spec.kind(low).ray_coefficients, spec.kind(low + 1).ray_coefficients)
            for e in range(low, 60):
                assert spec.kind(e).ray_coefficients == {
                    axis: tuple(tuple(a + (e - low) * (b - a) for a, b in zip(c, d)) for c, d in zip(cs, step[axis]))
                    for axis, cs in base.items()
                }, (family, e)

    # Row mutants no check can tell from the family: row j of a lattice part
    # meets only coordinate j of a ray, which is 0 on every ray (coordinate 0
    # of the elliptic fan, the gluing coordinate 4 of the rational one), and
    # each of these entries keeps det = 1, unipotence and commutation for
    # every t.  The elliptic twist's exponent e/w is among them.
    EQUIVALENT = [
        *(f"elliptic polygon_shift[0][{c}] A{k}{step:+d}" for c in (1, 2) for k in (0, 1) for step in (1, -1)),
        *(f"elliptic base_twist[0][1] A{k}{step:+d}" for k in (0, 1) for step in (1, -1)),
        *(f"rational {name}[4][{c}] A{k}{step:+d}"
          for name, columns in (("shift_m", (0, 1, 2)), ("shift_n", (1, 3)), ("horizontal_gluing", (1,)))
          for c in columns for k in (0, 1) for step in (1, -1)),
    ]

    def test_row_mutants_fail_exactly_when_an_instance_fails(self):
        # A mutant fails the row proof exactly when the full walk of some
        # instance with e <= 8 and w | e fails a check.
        mutants, equivalent = 0, []
        for family, mutant, row in moved_rows():
            failing = any(instance_fails(family, row, e, w) for e, w in family_params(family))
            assert row.certified() is not failing, (family, mutant)
            mutants += 1
            if not failing:
                equivalent.append(f"{family} {mutant}")
        assert (mutants, equivalent) == (452, self.EQUIVALENT)

    def test_a_failing_row_is_walked_in_full(self, monkeypatch):
        # The twist with a column-2 entry t in row 0 stops commuting with the
        # shift for t != 0, so the row fails.  No family of it carries a
        # certificate, so each is walked in full with both generator checks,
        # and passes at e = 0 only.
        row = moved_row(FAMILIES["elliptic"], 1, 0, 2, True, 1, "e/w")
        assert not row.certified()
        monkeypatch.setitem(FAMILIES, "elliptic", row)
        for e, w, passes in ((0, 1, True), (4, 2, False)):
            fam = build_family("elliptic", e=e, w=w, window=2)
            assert fam.certificate is None
            report = report_payload(verify_family(fam))
            assert report["all_pass"] is passes and report == full_walk(fam), (e, w)
            assert check_names(verify_family(fam))["generators_commute"].passed is passes

    def test_a_row_of_two_parameters_is_not_certified(self, monkeypatch):
        # Its data depend on e and on e/w, which the instances (e, w) = (t, 1)
        # do not tell apart: a hopf shift that reads e/w under a kind in e
        # holds at every such instance but not at (4, 2).  An elliptic shift
        # that reads e in row 0, which no ray meets, holds everywhere, but
        # the row is not proved either; its families are walked in full.
        hopf, elliptic = FAMILIES["hopf"], FAMILIES["elliptic"]
        rows = {
            "hopf": dataclasses.replace(hopf, group=(
                ("polygon_shift", ((1, "e/w", 0), (0, 1, 0), (1, 0, 1)), None),) + hopf.group[1:]),
            "elliptic": dataclasses.replace(elliptic, group=(
                ("polygon_shift", ((1, "e", 0), (0, 1, 0), (0, 1, 1)), None),) + elliptic.group[1:]),
        }
        for family, row in rows.items():
            assert not row.certified(), family
            monkeypatch.setitem(FAMILIES, family, row)
            for e, w in ((2, 1), (4, 2)):
                fam = build_family(family, e=e, w=w, window=2)
                report = report_payload(verify_family(fam))
                assert report["all_pass"] is (family == "elliptic" or w == 1), (family, e, w)
                assert report == full_walk(fam) and fam.certificate is None, (family, e, w)

    def test_a_row_whose_cone_zero_moves_is_not_certified(self, monkeypatch):
        # Cone 0's basis test is no polynomial identity, so a kind whose
        # c0 or c1 moves with t fails the row certificate.  Rays
        # (m, e + e*binom2(m), 1) still pass at every e, walked in full.
        kind = type("HopfSmoothing", (HopfSmoothing,), {
            "ray_coefficients": property(lambda self: {"m": ((0, self.e, 1), (1, 0, 0), (0, self.e, 0))})})
        lifted = dataclasses.replace(FAMILIES["hopf"], kind=kind)
        assert not lifted.certified()
        monkeypatch.setitem(FAMILIES, "hopf", lifted)
        for e in (1, 2, 5):
            fam = build_family("hopf", e=e, w=1, window=2)
            report = report_payload(verify_family(fam))
            assert report["all_pass"] and report == full_walk(fam) and fam.certificate is None, e

    def test_proved_at_first_use_and_again_under_another_prove_row(self, monkeypatch):
        # Importing kdl proves no row; build_family proves a row once, with
        # one prove_row call, and again only when prove_row is rebound.
        code = "import kdl, kdl.smoothing as s; print(sorted(f for f, r in s.FAMILIES.items() if 'proof' in vars(r)))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": os.path.dirname(kdl.__path__[0])})
        assert done.stdout == "[]\n"
        unproved_rows(monkeypatch)
        calls = []
        for family in FAMILY_NAMES:
            e = FAMILIES[family].min_degree
            for _ in range(2):  # a prove_row bound anew, once per round

                def counting(spec, original=prove_row):
                    calls.append(spec)
                    return original(spec)

                monkeypatch.setattr(kdl.smoothing, "prove_row", counting)
                calls.clear()
                for _ in range(3):
                    build_family(family, e=e, w=None if e is None else 1, window=1)
                assert calls == [FAMILIES[family]], family

    def test_every_e_after_a_rows_first_use(self, monkeypatch):
        # Once a row is proved, a build + verify at any degree and warp makes
        # no determinant, unipotence, basis test or matrix product.  A family
        # with a replaced generator is walked in full: it runs both generator
        # checks and a unipotence test per shift, but proves nothing.
        cases = [("hopf", 10**6, 1), ("rational", 10**6, 1), ("elliptic", 10**6, 1), ("elliptic", 10**6, 10**6)]
        for family, _, _ in cases:
            build_family(family, e=1, w=1, window=1)
        calls = Counter()
        for owner, name in ((kdl.lattice, "det"), (kdl.smoothing, "det"), (kdl.smoothing, "is_unipotent"),
                            (kdl.fans, "extends_to_basis"), (kdl.smoothing, "extends_to_basis"),
                            (IntMatrix, "__matmul__")):

            def counting(*args, name=name, original=getattr(owner, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counting)
        for family, e, w in cases:
            fam = build_family(family, e=e, w=w, window=3)
            assert verify_family(fam).all_pass, (family, e, w)
            assert e // w in (g.lattice_part.rows[0][1] for g in fam.generators) and calls == Counter(), (family, e, w)
            relabelled = GroupElement(fam.generators[-1].lattice_part, ("x",) * fam.generators[-1].lattice_part.dim)
            replaced = dataclasses.replace(fam, generators=fam.generators[:-1] + (relabelled,))
            calls.clear()
            assert verify_family(replaced).all_pass, (family, e, w)
            n, axes = len(fam.generators), len(fam.kind.AXES)
            assert calls == Counter(
                {"det": n, "__matmul__": n * (n - 1), "is_unipotent": axes, "extends_to_basis": 0}), (family, e, w)
            calls.clear()


    def test_a_certified_rows_later_builds_validate_no_matrix(self, monkeypatch):
        # A certified row builds every generator trusted, a pure torus
        # translation's identity included: after the row's first use no
        # build_family at any degree or warp calls IntMatrix's validating
        # constructor.
        calls = []
        init = IntMatrix.__init__

        def counting(m, *args, **kwargs):
            calls.append(args)
            init(m, *args, **kwargs)

        for family in FAMILY_NAMES:
            build_family(family, **dict(zip("ew", family_params(family)[0])), window=1)
        monkeypatch.setattr(IntMatrix, "__init__", counting)
        for family in FAMILY_NAMES:
            for e, w in family_params(family):
                fam = build_family(family, e=e, w=w, window=2)
                assert verify_family(fam).all_pass and calls == [], (family, e, w)
        # Evaluated untrusted, every lattice part is validated, the translation's identity too.
        named = FAMILIES["hopf"].generators(2, 1)
        assert dict(named)["fiber_gluing"].lattice_part.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(calls) == len(named)


class TestFamilyInvariants:
    # The quotient of a covering family of degree e by its order-w group has
    # generic fibres of degree e/w, which is what classification predicts.
    def test_hopf_six_three(self):
        info = build_family("hopf", e=6, w=3, window=4).quotient_info
        assert (info.galois_order, info.generic_fiber_degree) == (3, 2)
        assert smoothing_verdict(6, 3, True) == Verdict.kodaira_surface(info.generic_fiber_degree)

    def test_elliptic_degree_zero_torus(self):
        info = build_family("elliptic", e=0, w=1, window=4).quotient_info
        assert info.generic_fiber_degree == 0
        assert smoothing_verdict(0, 1, True) == Verdict.complex_torus()

    def test_rational_identity_quotient(self):
        info = build_family("rational", e=1, w=1, window=3).quotient_info
        assert (info.galois_order, info.generic_fiber_degree) == (1, 1)

    def test_mumford_has_no_invariants(self):
        assert build_family("mumford", window=4).quotient_info is None

    def test_quotient_relation_across_divisors(self):
        for e in range(1, 9):
            for w in range(1, e + 1):
                if e % w:
                    continue
                info = build_family("hopf", e=e, w=w, window=3).quotient_info
                assert (info.galois_order, info.generic_fiber_degree * w) == (w, e)


class TestPayloads:
    def test_family_payload_shape(self):
        payload = family_payload(build_family("hopf", e=2, w=1, window=2))
        assert payload["family"] == "hopf"
        assert payload["fan"]["kind"] == "hopf_smoothing"
        assert [g["name"] for g in payload["generators"]] == ["polygon_shift", "fiber_gluing"]
        assert payload["quotient"] == {"galois_order": 1, "generic_fiber_degree": 2}

    def test_report_payload_shape(self):
        report = verify_family(build_family("mumford", window=3))
        payload = report_payload(report)
        assert payload["all_pass"] is True
        assert all(set(c) == {"name", "passed", "counterexample"} for c in payload["checks"])

    def test_invariants_payload(self):
        payload = family_payload(build_family("hopf", e=4, w=2, window=2))
        assert payload["quotient"] == {"galois_order": 2, "generic_fiber_degree": 2}


class TestRecords:
    def test_assigning_any_name_raises_frozen_instance_error(self):
        fam = build_family("hopf", e=2, w=1, window=2)
        components = enumerate_components(1, 2)
        records = (
            fam,
            fam.fan,
            verify_family(fam),
            fam.params,
            fam.quotient_info,
            verify_family(fam).checks[0],
            PolygonGluing((0, 1, 2, 0, 1, 2), (0, 1, 0, 1, 0, 1)),
            enumerate_rational_models()[0],
            components[0],
            adjacency_edges(components)[0],
            IntVec((1, 2)),
            fam.generators[0].lattice_part,
            cone_at(fam.kind, 0),
            fam.generators[0],
            MumfordNeron(),
            HopfSmoothing(2),
            EllipticSmoothing(),
            RationalSmoothing(2),
        )
        for record in records:
            fields = [f.name for f in dataclasses.fields(record)]
            for name in ("e", "galois_order", "passed", "extra", *fields):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 1)

    @staticmethod
    def checked_records():
        """Every record ``build_family`` and ``verify_family`` build from checked fields, without their dataclass
        ``__init__``: for every row with e <= 8 and w | e at windows 1 and 8, a planted window and a hand-made
        uncertified family (a shift that is not unipotent), whose reports fail checks."""
        families = [build_family(family, e=e, w=w, window=window)
                    for family in FAMILY_NAMES for e, w in family_params(family) for window in (1, 8)]
        hopf = build_family("hopf", e=4, w=2, window=3)
        families += [with_plants(hopf, {3: ("near", 0, -1)}), with_non_unipotent_shift(hopf, 0)]
        for fam in families:
            report = verify_family(fam)
            yield from (fam, fam.fan, fam.params, fam.quotient_info, report, *report.checks)

    def test_checked_records_match_the_constructors(self):
        def hashed(record):
            try:
                return hash(record)
            except TypeError as exc:  # a window's cones are a mapping, so a family and its window do not hash
                return str(exc)

        kinds, failing = Counter(), 0
        for record in self.checked_records():
            if record is None:  # the curve family has no quotient
                continue
            built = type(record)(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init})
            assert record == built and built == record and repr(record) == repr(built), record
            assert list(vars(record)) == list(vars(built)) and hashed(record) == hashed(built), record
            assert pickle.dumps(record) == pickle.dumps(built) and pickle.loads(pickle.dumps(record)) == built
            assert copy.deepcopy(record) == built and repr(copy.deepcopy(record)) == repr(built)
            assert dataclasses.replace(record) == built == dataclasses.replace(built)
            kinds[type(record).__name__] += 1
            failing += getattr(record, "passed", True) is False
        assert set(kinds) == {"SmoothingFamily", "FanWindow", "FamilyParams", "QuotientInfo", "VerificationReport",
                              "CheckResult"} and failing >= 2, (kinds, failing)


def evaluated(group, e, w):
    """A row's generators at (e, w), evaluated straight from its ``group`` through the validating constructors."""
    values, named = parameter_values(e, w), []
    for name, rows, labels in group:
        dim = len(rows or labels)
        rows = rows or identity(dim).rows
        rows = tuple(tuple(values.get(x, x) if isinstance(x, str) else x for x in row) for row in rows)
        named.append((name, GroupElement(IntMatrix(rows), labels or ("1",) * dim)))
    return tuple(named)


def test_a_replaced_row_builds_from_its_own_group(monkeypatch):
    # A row's generator template is derived per row: a row made with
    # dataclasses.replace(spec, group=...) evaluates its own group, trusted or
    # not, in generators and in build_family, and the row it replaced still
    # evaluates its own.  Transposing every lattice part moves each parameter
    # to another row; the rows of test_a_row_of_two_parameters_is_not_certified
    # read the other parameter.
    hopf, elliptic = FAMILIES["hopf"], FAMILIES["elliptic"]
    replaced = [
        (family, dataclasses.replace(spec, group=tuple(
            (name, rows and tuple(zip(*rows)), labels and labels[::-1]) for name, rows, labels in spec.group)))
        for family, spec in FAMILIES.items()
    ] + [
        ("hopf", dataclasses.replace(hopf, group=(
            ("polygon_shift", ((1, "e/w", 0), (0, 1, 0), (1, 0, 1)), None),) + hopf.group[1:])),
        ("elliptic", dataclasses.replace(elliptic, group=(
            ("polygon_shift", ((1, "e", 0), (0, 1, 0), (0, 1, 1)), None),) + elliptic.group[1:])),
    ]
    for family, row in replaced:
        spec = FAMILIES[family]
        assert row.group != spec.group, family
        for e, w in family_params(family):
            for trusted in (False, True):
                assert row.generators(e, w, trusted) == evaluated(row.group, e, w), (family, e, w, trusted)
                assert spec.generators(e, w, trusted) == evaluated(spec.group, e, w), (family, e, w, trusted)
            with monkeypatch.context() as patched:
                patched.setitem(FAMILIES, family, row)
                fam = build_family(family, e=e, w=w, window=1)
            assert tuple(zip(fam.generator_names, fam.generators)) == evaluated(row.group, e, w), (family, e, w)


# ---------------------------------------------------------------------------
# verify_family against a full walk of the window.


def full_walk(f):
    """The battery walked at every window index, as a report payload: the
    reference ``verify_family`` must answer exactly as, whatever it skips."""
    kind, cones, gens, names = f.kind, f.fan.cones, f.generators, f.generator_names
    axes, spec = kind.AXES, FAMILIES[f.family]
    # The expected deflections: the rows of the type that names the family, or zero where none does.
    owners = [t for t in TYPES.values() if t.family == f.family]
    expected_rows = owners[0].deflections(f.params.e) if owners else [(0,) * kind.AMBIENT_RANK] * len(axes)
    indices = sorted(cones)
    coords = {i: (i,) if len(axes) == 1 else i for i in indices}
    index_of = {at: i for i, at in coords.items()}
    suffixes = [""] if len(axes) == 1 else [f"_{axis}" for axis in axes]

    def near(i, axis, step):
        at = coords[i]
        return index_of.get(at[:axis] + (at[axis] + step,) + at[axis + 1 :])

    def first(found):
        return next((str(x) for x in found), None)

    def freeness():
        span = max(hi - lo for lo, hi in f.fan.index_range)
        for axis, suffix in enumerate(suffixes):
            power = base = gens[axis].lattice_part
            for k in range(1, (1 if is_unipotent(base) else span) + 1):
                g = GroupElement.from_matrix(power)
                for i in indices:
                    if apply(g, cones[i]) == cones[i]:
                        return f"shift{suffix}^{k} fixes {i}"
                power = power @ base
        return None

    def orbit():
        # A cone with no predecessor in the window, or at the lower bound of
        # the index range, is unreached.
        lows = [lo for lo, _ in f.fan.index_range]
        for i in indices[1:]:
            axis = max((a for a, (x, lo) in enumerate(zip(coords[i], lows)) if x > lo), default=None)
            j = None if axis is None else near(i, axis, -1)
            if j is None or apply(gens[axis], cones[j]) != cones[i]:
                return str(i).replace(" ", "")
        return None

    lattice = [g.lattice_part for g in gens]
    checks = [
        ("cones_smooth", first(i for i in indices if not cone_is_smooth(cones[i]))),
        ("adjacent_cones_share_facet", next((
            f"{i}~{j}" for i in indices for axis in range(len(axes))
            if (j := near(i, axis, 1)) is not None and not share_facet(cones[i], cones[j])), None)),
        ("generators_special_linear", next((n for n, m in zip(names, lattice) if det(m) != 1), None)),
        ("generators_commute", next((
            f"{names[a]}*{names[b]}" for a in range(len(gens)) for b in range(a + 1, len(gens))
            if lattice[a] @ lattice[b] != lattice[b] @ lattice[a]), None)),
        *((f"shift{suffix}", first(
            i for i in indices if (j := near(i, axis, 1)) is not None and apply(gens[axis], cones[i]) != cones[j]))
          for axis, suffix in enumerate(suffixes)),
        *((f"{name}_fixes_fan", first(i for i in indices if apply(g, cones[i]) != cones[i]))
          for name, g in zip(names[len(axes):], gens[len(axes):])),
        *((f"deflection{suffix}", first(
            i for i in indices if deflection(kind, i, None if len(axes) == 1 else axis) != IntVec(expected)))
          for suffix, axis, expected in zip(suffixes, axes, expected_rows)),
        ("freeness_proxy", freeness()),
        ("shift_orbit_transitive", orbit()),
    ]
    return {
        "family": f.family,
        "all_pass": all(failure is None for _, failure in checks),
        "checks": [{"name": name, "passed": failure is None, "counterexample": failure} for name, failure in checks],
        "untested": list(UNTESTED_COMMON + spec.untested),
    }


# Rays fixed by the first shift of each family, so a cone of them breaks freeness.
KERNEL_RAYS = {
    "mumford": [(1, 0)],
    "hopf": [(0, 1, 0)],
    "elliptic": [(1, 0, 0), (0, 1, 0)],
    "rational": [(0, 1, 0, 0), (0, 0, 0, 1)],
}


def plant(fam, at, how):
    """The cone ``how`` names for index ``at`` of a family: ``("near", axis, step)``
    is the formula cone one step along an axis; ``("kernel",)`` spans
    ``KERNEL_RAYS``; ``("bent",)`` is the formula cone with its first ray v0
    replaced by 2*v0 + v1, an index-2 cone that is not smooth."""
    kind = fam.kind
    coords = (at,) if len(kind.AXES) == 1 else at
    if how[0] == "near":
        _, axis, step = how
        moved = coords[:axis] + (coords[axis] + step,) + coords[axis + 1 :]
        return cone_at(kind, moved if len(moved) > 1 else moved[0])
    if how[0] == "kernel":
        return Cone(tuple(map(IntVec, KERNEL_RAYS[fam.family])), kind.AMBIENT_RANK)
    rays = cone_at(kind, at).rays
    bent = Cone((IntVec(tuple(2 * a + b for a, b in zip(rays[0].entries, rays[1].entries))),) + rays[1:], kind.AMBIENT_RANK)
    assert not cone_is_smooth(bent)
    return bent


def with_plants(fam, plants):
    """The family with the window cone at each index of ``plants`` replaced as it names."""
    cones = dict(fam.fan.cones)
    for at, how in plants.items():
        cones[at] = plant(fam, at, how)
    return dataclasses.replace(fam, fan=FanWindow(fam.fan.kind, fam.fan.index_range, cones))


def with_non_unipotent_shift(fam, axis):
    """The family with its shift along an axis replaced by -I, which is not unipotent."""
    dim = fam.generators[axis].lattice_part.dim
    minus = GroupElement.from_matrix(IntMatrix(tuple(tuple(-(i == j) for j in range(dim)) for i in range(dim))))
    return dataclasses.replace(fam, generators=fam.generators[:axis] + (minus,) + fam.generators[axis + 1 :])


def deflection_rows_off_by_one(family, axis, coordinate, step):
    """One expected deflection entry of a family moved by ``step``: on the TYPES row that names the family,
    or, for a family no type names (mumford, which expects zero), as the observed deflection moved by
    ``-step``, in the battery and in ``full_walk`` alike, which fails the same checks at the same indices."""
    key = next((key for key, t in TYPES.items() if t.family == family), None)
    if key is None:
        return observed_deflection_moved(axis, coordinate, -step)
    spec = TYPES[key]

    def rows(e):
        rows = [list(row) for row in spec.deflections(e)]
        rows[axis][coordinate] += step
        return tuple(map(tuple, rows))

    return patch.dict(TYPES, {key: spec._replace(deflections=rows)})


@contextmanager
def observed_deflection_moved(axis, coordinate, step):
    """``deflection`` along one axis with one coordinate moved by ``step``, for ``kdl.smoothing`` and this module."""
    observed = deflection

    def moved(kind, i, direction=None):
        entries = list(observed(kind, i, direction).entries)
        if direction == (None if len(kind.AXES) == 1 else kind.AXES[axis]):
            entries[coordinate] += step
        return IntVec(tuple(entries))

    with patch.object(kdl.smoothing, "deflection", moved), patch.dict(globals(), deflection=moved):
        yield


def plant_kinds(fam):
    """Every plant kind for one index of the family."""
    return [("near", axis, step) for axis in range(len(fam.kind.AXES)) for step in (1, -1)] + [("kernel",), ("bent",)]


# (family, e, w, window) of the planted dump.
DUMP_FAMILIES = [("mumford", None, None, 2), ("hopf", 2, 1, 2), ("elliptic", 4, 2, 2), ("rational", 1, 1, 1)]


def _planted_cases():
    """Each planted case of ``DUMP_FAMILIES`` as (FAMILIES patch, maker of the
    family): each plant kind at each index; a neighbour's cone at each index
    together with a kernel cone at the opposite index; each expected
    deflection entry off by one either way; each shift replaced by -I, alone
    and with a neighbour's cone planted at the first index."""
    for family, e, w, window in DUMP_FAMILIES:
        fam = build_family(family, e=e, w=w, window=window)
        for at in fam.fan.indices():
            for how in plant_kinds(fam):
                yield nullcontext(), lambda at=at, how=how, fam=fam: with_plants(fam, {at: how})
            opposite = -at if isinstance(at, int) else tuple(-x for x in at)
            if opposite != at:
                plants = {at: ("near", 0, 1), opposite: ("kernel",)}
                yield nullcontext(), lambda plants=plants, fam=fam: with_plants(fam, plants)
        for axis in range(len(fam.kind.AXES)):
            for coordinate in range(fam.kind.AMBIENT_RANK):
                for step in (1, -1):
                    yield (deflection_rows_off_by_one(family, axis, coordinate, step),
                           lambda family=family, e=e, w=w, window=window: build_family(family, e=e, w=w, window=window))
            bad = with_non_unipotent_shift(fam, axis)
            yield nullcontext(), lambda bad=bad: bad
            first = {bad.fan.indices()[0]: ("near", axis, 1)}
            yield nullcontext(), lambda bad=bad, first=first: with_plants(bad, first)


def test_golden_planted_report_digest():
    # Compact JSON of the report list, keys in each report's own order.
    reports = []
    for patched, make in _planted_cases():
        with patched:
            reports.append(report_payload(verify_family(make())))
    text = json.dumps(reports, separators=(",", ":"))
    assert len(reports) == 176
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a7f42bf79ead3ed527089d0796039182852dddb1052b59a629d13f47ea40d59"
    )


def test_planted_reports_match_the_full_walk():
    for patched, make in _planted_cases():
        with patched:
            fam = make()
            assert report_payload(verify_family(fam)) == full_walk(fam)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_family_matches_the_full_walk(data):
    # Any family and window, up to two plants of any kind at any indices, and
    # at times a shift that is not unipotent or an expected deflection entry
    # off by one.  At times, too, the shapes of the hand-built window tests:
    # the kind replaced by an equal new object or one of the next degree
    # (over the old window or the new kind's own), a hole, a narrowed index
    # range, or a generator replaced by its square.
    family = data.draw(st.sampled_from(FAMILY_NAMES))
    e, w = data.draw(st.sampled_from(family_params(family)))
    window = data.draw(st.integers(1, 2 if family == "rational" else 5))
    fam = build_family(family, e=e, w=w, window=window)
    if data.draw(st.integers(0, 4)) == 0:
        other = FAMILIES[family].kind(None if e is None else data.draw(st.sampled_from((e, e + 1))))
        fan = data.draw(st.sampled_from((fam.fan, kdl.fans.fan_window(other, window))))
        fam = dataclasses.replace(fam, kind=other, fan=fan)
    axes = range(len(fam.kind.AXES))
    fam = with_plants(fam, data.draw(st.dictionaries(
        st.sampled_from(fam.fan.indices()), st.sampled_from(plant_kinds(fam)), max_size=2)))
    if data.draw(st.integers(0, 4)) == 0:
        hole = data.draw(st.sampled_from(fam.fan.indices()))
        fam = with_cones(fam, {i: c for i, c in fam.fan.cones.items() if i != hole})
    if data.draw(st.integers(0, 4)) == 0:
        narrowed = tuple((lo + data.draw(st.integers(0, 1)), hi - data.draw(st.integers(0, 1)))
                         for lo, hi in fam.fan.index_range)
        fam = dataclasses.replace(fam, fan=FanWindow(fam.fan.kind, narrowed, fam.fan.cones))
    if data.draw(st.integers(0, 4)) == 0:
        fam = with_non_unipotent_shift(fam, data.draw(st.sampled_from(axes)))
    if data.draw(st.integers(0, 4)) == 0:
        at = data.draw(st.integers(0, len(fam.generators) - 1))
        square = GroupElement.from_matrix(fam.generators[at].lattice_part @ fam.generators[at].lattice_part)
        fam = dataclasses.replace(fam, generators=fam.generators[:at] + (square,) + fam.generators[at + 1 :])
    patched = nullcontext()
    if data.draw(st.integers(0, 4)) == 0:
        patched = deflection_rows_off_by_one(
            family, data.draw(st.sampled_from(axes)), data.draw(st.integers(0, fam.kind.AMBIENT_RANK - 1)),
            data.draw(st.sampled_from((1, -1))))
    with patched:
        assert report_payload(verify_family(fam)) == full_walk(fam)


# Where verify_family must not trust a cone's formula tag or the family's
# carried certificate, it answers as the full walk.


def with_cones(fam, cones):
    """The family with its window cones replaced by ``cones``."""
    return dataclasses.replace(fam, fan=FanWindow(fam.fan.kind, fam.fan.index_range, cones))


def test_a_window_cone_reused_at_the_next_index_matches_the_full_walk():
    # The cone object of index i-1 along the first axis, tagged with i-1, at i.
    for family, e, w, window in DUMP_FAMILIES:
        fam = build_family(family, e=e, w=w, window=window)
        for i in fam.fan.indices():
            at = (i,) if isinstance(i, int) else i
            before = (at[0] - 1,) + at[1:]
            if before[0] >= -window:
                cones = dict(fam.fan.cones)
                cones[i] = cones[before if len(before) > 1 else before[0]]
                moved = with_cones(fam, cones)
                report = report_payload(verify_family(moved))
                assert not report["all_pass"] and report == full_walk(moved), (family, i)


def test_an_equal_cone_of_another_degree_matches_the_full_walk():
    # Cone 0 of degree e+1 has the rays of cone 0 of degree e, but another tag.
    for family, kind in (("hopf", HopfSmoothing), ("rational", RationalSmoothing)):
        for e in (1, 2, 3):
            fam = build_family(family, e=e, window=2)
            zero = fam.fan.indices()[len(fam.fan.cones) // 2]
            other = cone_at(kind(e + 1), zero)
            assert other == fam.fan.cones[zero] and other.formula != fam.fan.cones[zero].formula
            fam = with_cones(fam, {**fam.fan.cones, zero: other})
            report = report_payload(verify_family(fam))
            assert report["all_pass"] and report == full_walk(fam), (family, e)


def test_replaced_generators_match_the_full_walk():
    # The first shift squared moves cone i to cone i+2: the carried
    # certificate no longer names the generators, and they prove nothing.
    for family, e, w, window in TestVerifyFamily.VALID:
        fam = build_family(family, e=e, w=w, window=2)
        shift = fam.generators[0].lattice_part
        fam = dataclasses.replace(fam, generators=(GroupElement.from_matrix(shift @ shift),) + fam.generators[1:])
        assert not prove_row(instance_row(fam.kind, tuple(zip(fam.generator_names, fam.generators))))
        report = report_payload(verify_family(fam))
        assert not report["all_pass"] and report == full_walk(fam), family


def test_a_replaced_kind_matches_the_full_walk():
    # A kind of another degree fails the certificate for the generators,
    # with the old window or with the new kind's own; an equal kind, a new
    # object, keeps it.
    for family, kind in (("hopf", HopfSmoothing), ("rational", RationalSmoothing)):
        for e in (1, 2):
            fam = build_family(family, e=e, window=2)
            for other, passes in ((kind(e + 1), False), (kind(e), True)):
                for fan in (fam.fan, kdl.fans.fan_window(other, 2)):
                    replaced = dataclasses.replace(fam, kind=other, fan=fan)
                    report = report_payload(verify_family(replaced))
                    assert report["all_pass"] is passes and report == full_walk(replaced), (family, e, other)


def test_verify_family_proves_nothing(monkeypatch):
    # A family is proved by its row's certificate or walked in full:
    # verify_family calls prove_row for no family, built, planted, with a
    # replaced generator or kind, or made by hand, and each answers as the
    # full walk.
    families = []
    for family, e, w, window in TestVerifyFamily.VALID:
        fam = build_family(family, e=e, w=w, window=2)
        shift = fam.generators[0].lattice_part
        families += [
            fam,
            with_plants(fam, {fam.fan.indices()[0]: ("near", 0, 1)}),
            dataclasses.replace(fam, generators=(GroupElement.from_matrix(shift @ shift),) + fam.generators[1:]),
            SmoothingFamily(fam.family, fam.kind, fam.params, kdl.fans.fan_window(fam.kind, 2), fam.generators,
                            fam.generator_names, fam.quotient_info),
        ]
    for family, kind in (("hopf", HopfSmoothing), ("rational", RationalSmoothing)):
        families.append(dataclasses.replace(build_family(family, e=1, window=2), kind=kind(2)))
    calls = []

    def counting(spec, original=prove_row):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(kdl.smoothing, "prove_row", counting)
    for fam in families:
        report = report_payload(verify_family(fam))
        assert calls == [] and report == full_walk(fam), (fam.family, fam.certificate is None)


def test_a_copied_or_rekinded_window_is_scanned_tag_by_tag(monkeypatch):
    # Only fan_window's cones of the family's own kind over the window's
    # range go unread.  A plain-dict copy of them, and fan_window's cones
    # under a family whose kind was replaced by one of another degree, are
    # read at every index, once, and answer as the full walk.
    reads = []

    class Reads(dict):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    for family, e, w, window in DUMP_FAMILIES:
        fam = build_family(family, e=e, w=w, window=window)
        copied = with_cones(fam, Reads(fam.fan.cones))
        reads.clear()
        report = report_payload(verify_family(copied))
        assert reads == fam.fan.indices(), family
        assert report["all_pass"] and report == full_walk(copied), family

    def counting(kind, at, rays, certified=False, original=kdl.fans._cone):
        reads.append(at)
        return original(kind, at, rays, certified)

    monkeypatch.setattr(kdl.fans, "_cone", counting)
    for family in ("hopf", "rational"):
        for e in (1, 2):
            fam, other = build_family(family, e=e, window=2), build_family(family, e=e + 1, window=2)
            rekinded = dataclasses.replace(fam, kind=other.kind, generators=other.generators)
            reads.clear()
            report = report_payload(verify_family(rekinded))
            assert len(reads) == len(set(reads)) == len(fam.fan.cones), (family, e)
            assert not report["all_pass"] and report == full_walk(rekinded), (family, e)
