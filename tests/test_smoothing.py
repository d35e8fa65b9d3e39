import dataclasses
import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdl.fans
import kdl.smoothing
from kdl.boundary import adjacency_edges, enumerate_components
from kdl.cli import main
from kdl.classify import Verdict, smoothing_verdict
from kdl.errors import NotDivisible
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
    hopf_shift,
)
from kdl.graphs import PolygonGluing, enumerate_rational_models
from kdl.lattice import IntMatrix, IntVec, is_unipotent
from kdl.smoothing import (
    FAMILIES,
    FAMILY_NAMES,
    build_family,
    family_payload,
    report_payload,
    verify_family,
)


def check_names(report):
    return {c.name: c for c in report.checks}


class TestBuildFamily:
    def test_hopf_generators(self):
        fam = build_family("hopf", e=2, w=2, window=8)
        assert fam.generators[0].lattice_part == hopf_shift(2)
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

    def test_warp_must_divide(self):
        with pytest.raises(NotDivisible):
            build_family("hopf", e=3, w=2)
        with pytest.raises(NotDivisible):
            build_family("elliptic", e=2, w=0)

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

    # Each family's valid window: (family, e, w, window).
    VALID = [("mumford", None, None, 8), ("hopf", 3, 1, 8), ("elliptic", 4, 2, 8), ("rational", 2, 1, 4)]

    def test_apply_calls_per_cone(self, monkeypatch):
        # Each shift image of a cone is computed once and shared by the shift,
        # freeness and transitivity checks; each fixing generator adds one.
        calls = []

        def counting_apply(g, c):
            calls.append(c)
            return apply(g, c)

        monkeypatch.setattr(kdl.smoothing, "apply", counting_apply)
        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            calls.clear()
            assert verify_family(fam).all_pass
            fixing = len(fam.generators) - len(fam.kind.AXES)
            assert len(calls) <= (len(fam.kind.AXES) + fixing) * len(fam.fan.cones), family

    def test_wrong_expected_deflection_detected(self, monkeypatch):
        # Every expected deflection off by one: the first window index fails,
        # "-W" on one axis and "(-W, -W)" on each axis of the rational fan.
        for family, e, w, window in self.VALID:
            spec = FAMILIES[family]
            wrong = tuple((v[0] + 1,) + v[1:] for v in spec.deflections(e))
            monkeypatch.setitem(FAMILIES, family, dataclasses.replace(spec, deflections=lambda e, wrong=wrong: wrong))
            fam = build_family(family, e=e, w=w, window=window)
            first = str(fam.fan.indices()[0])
            payload = report_payload(verify_family(fam))
            monkeypatch.undo()
            expected = report_payload(verify_family(fam))
            for check in expected["checks"]:
                if check["name"].startswith("deflection"):
                    check.update(passed=False, counterexample=first)
            expected["all_pass"] = False
            assert payload == expected, family
            assert first == (f"({-window}, {-window})" if family == "rational" else str(-window))

    def test_deflection_calls_per_coordinate(self, monkeypatch):
        # A deflection depends on one axis coordinate, so each is computed once.
        calls = []

        def counting_deflection(kind, index, direction=None):
            calls.append(direction)
            return deflection(kind, index, direction)

        monkeypatch.setattr(kdl.smoothing, "deflection", counting_deflection)
        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            calls.clear()
            assert verify_family(fam).all_pass
            assert len(calls) == len(fam.kind.AXES) * (2 * window + 1), family

    def test_one_basis_test_per_cone(self, monkeypatch):
        # A window cone's validation decides its smoothness with one basis
        # test; the rank is computed only for rays that fail it.
        calls = {"extends_to_basis": 0, "rank_of": 0}
        for name in calls:

            def counting(*args, name=name, original=getattr(kdl.fans, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(kdl.fans, name, counting)
        for family, e, w, window in self.VALID:
            calls.update(dict.fromkeys(calls, 0))
            fam = build_family(family, e=e, w=w, window=window)
            assert verify_family(fam).all_pass
            assert calls == {"extends_to_basis": len(fam.fan.cones), "rank_of": 0}, family

    def test_ray_formulas_once_per_window_ray(self, monkeypatch):
        # The window evaluates each ray_<axis> formula once per ray -W..W+1,
        # however many cones hold the ray.
        for family, e, w, window in self.VALID:
            kind = type(FAMILIES[family].kind(e))
            calls = []
            for axis in kind.AXES:

                def counting(self, i, axis=axis, formula=getattr(kind, f"ray_{axis}")):
                    calls.append((axis, i))
                    return formula(self, i)

                monkeypatch.setattr(kind, f"ray_{axis}", counting)
            build_family(family, e=e, w=w, window=window)
            monkeypatch.undo()
            assert sorted(calls) == [(axis, i) for axis in kind.AXES for i in range(-window, window + 2)], family

    def test_times_calls_per_ray_and_generator(self, monkeypatch):
        # apply maps each window ray once per generator, however many cones
        # share it.
        calls = []
        times = IntVec.times

        def counting_times(v, m):
            calls.append(v)
            return times(v, m)

        monkeypatch.setattr(IntVec, "times", counting_times)
        for family, e, w, window in self.VALID:
            fam = build_family(family, e=e, w=w, window=window)
            rays = {v for cone in fam.fan.cones.values() for v in cone.rays}
            calls.clear()
            assert verify_family(fam).all_pass
            assert len(calls) <= len(rays) * len(fam.generators), family

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
        lattice = IntMatrix.identity(gens[0].dim)
        for k in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=5)):
            lattice = lattice @ gens[k]
        pad = (0,) * (lattice.dim - cone.rank)
        image_rays = tuple(IntVec(IntVec(v.entries + pad).times(lattice).entries[: cone.rank]) for v in cone.rays)
        image, validated = apply(GroupElement.from_matrix(lattice), cone), Cone(image_rays, cone.rank)
        assert image == validated
        assert cone_is_smooth(image) == cone_is_smooth(validated) == cone_is_smooth(cone)


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
            fam.params,
            fam.quotient_info,
            verify_family(fam).checks[0],
            PolygonGluing((0, 1, 2, 0, 1, 2), (0, 1, 0, 1, 0, 1)),
            enumerate_rational_models()[0],
            components[0],
            adjacency_edges(components)[0],
            IntVec((1, 2)),
            hopf_shift(2),
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
