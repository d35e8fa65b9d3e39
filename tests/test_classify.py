import math

import pytest

from kdl.classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    EllipticRuledDatum,
    GluingMatrix,
    HopfDatum,
    RationalDatum,
    SmoothBaseWithCurve,
    SmoothFourfold,
    TangentDims,
    TangentUnavailable,
    TwoSmoothSurfaces,
    Verdict,
    classify,
    cohomology_table,
    hopf_dsemistable,
    hopf_dsemistable_oracle,
    hopf_invariants,
    hopf_kx_zero,
    ruled_dsemistable,
    smoothing_verdict,
    surface_class_payload,
    tangent_table,
    versal_descriptor,
)
from kdl.errors import InconsistentData, NotAUnit, NotSL2


class TestKxZero:
    def test_unipotent_upper_triangular(self):
        assert hopf_kx_zero(GluingMatrix(1, 5, 0, 1))

    def test_identity(self):
        assert hopf_kx_zero(GluingMatrix(1, 0, 0, 1))

    def test_rotation_fails(self):
        assert not hopf_kx_zero(GluingMatrix(0, -1, 1, 0))

    def test_not_sl2_rejected(self):
        with pytest.raises(NotSL2):
            hopf_kx_zero(GluingMatrix(1, 0, 0, 2))

    def test_only_b_is_free(self):
        for b in range(-5, 6):
            assert hopf_kx_zero(GluingMatrix(1, b, 0, 1))
        # c != 0 or d != 1 in SL2 always fails
        assert not hopf_kx_zero(GluingMatrix(1, 0, 1, 1))
        assert not hopf_kx_zero(GluingMatrix(2, 1, 1, 1))

    def test_sweep_of_small_sl2_matrices(self):
        # admissibility holds exactly on the unipotent upper-triangular ones
        span = range(-4, 5)
        for a in span:
            for b in span:
                for c in span:
                    for d in span:
                        if a * d - b * c != 1:
                            continue
                        m = GluingMatrix(a, b, c, d)
                        assert hopf_kx_zero(m) == (a == 1 and d == 1 and c == 0)


class TestDsemistable:
    @pytest.mark.parametrize(
        "n,n1,n2,b,expected",
        [(4, 1, 3, 2, True), (4, 1, 3, 1, False), (1, 0, 0, 0, True)],
    )
    def test_congruences(self, n, n1, n2, b, expected):
        assert hopf_dsemistable(HopfDatum(n, n1, n2, b)) is expected

    @pytest.mark.parametrize(
        "n,n1,n2,b,expected",
        [(4, 1, 3, 2, True), (9, 1, 4, 3, True), (5, 1, 2, 0, False)],
    )
    def test_oracle(self, n, n1, n2, b, expected):
        assert hopf_dsemistable_oracle(HopfDatum(n, n1, n2, b)) is expected

    def test_oracle_requires_units(self):
        with pytest.raises(NotAUnit):
            hopf_dsemistable_oracle(HopfDatum(4, 2, 1, 0))

    def test_equivalence_small_range(self):
        for n in range(1, 25):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            for n1 in units:
                for n2 in units:
                    for b in range(n):
                        h = HopfDatum(n, n1, n2, b)
                        assert hopf_dsemistable(h) == hopf_dsemistable_oracle(h)


class TestInvariants:
    @pytest.mark.parametrize(
        "n,n1,n2,b,e,w",
        [(4, 1, 3, 2, 2, 2), (1, 0, 0, 0, 1, 1), (9, 1, 4, 3, 3, 3)],
    )
    def test_examples(self, n, n1, n2, b, e, w):
        assert hopf_invariants(HopfDatum(n, n1, n2, b)) == (e, w)

    def test_warp_gcd_includes_residue_difference(self):
        # gcd(n, n1-n2, b) differs from gcd(n, b) here: the warp must use the
        # three-argument gcd.
        assert hopf_invariants(HopfDatum(6, 1, 5, 3)) == (2, 6)
        assert hopf_invariants(HopfDatum(8, 3, 1, 4)) == (2, 4)

    def test_invariants_divide_n(self):
        for n in range(1, 40):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            for n1 in units:
                for n2 in units:
                    for b in range(n):
                        e, w = hopf_invariants(HopfDatum(n, n1, n2, b))
                        assert n % e == 0
                        assert n % w == 0

    def test_dsemistable_implies_warp_divides_degree(self):
        for n in range(1, 40):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            for n1 in units:
                for n2 in units:
                    for b in range(n):
                        h = HopfDatum(n, n1, n2, b)
                        if hopf_dsemistable(h):
                            e, w = hopf_invariants(h)
                            assert e % w == 0


class TestRuledDsemistable:
    @pytest.mark.parametrize(
        "e,w,expected",
        [(4, 2, True), (3, 2, False), (0, 0, True), (0, 5, True), (3, 0, False)],
    )
    def test_divisibility_conventions(self, e, w, expected):
        assert ruled_dsemistable(e, w) is expected


class TestTables:
    def test_cohomology(self):
        assert cohomology_table(HOPF, 3) == (1, 1, 0)
        assert cohomology_table(ELLIPTIC_RULED, 2) == (1, 2, 1)
        assert cohomology_table(ELLIPTIC_RULED, 0) == (2, 3, 1)
        assert cohomology_table(RATIONAL, 5) == (1, 2, 0)
        assert cohomology_table(RATIONAL, 0) == (2, 3, 0)

    def test_tangent(self):
        assert tangent_table(HOPF, 1) == TangentDims(1, 2, 1)
        assert tangent_table(ELLIPTIC_RULED, 3) == TangentDims(1, 3, 2)
        assert tangent_table(RATIONAL, 3) == TangentDims(1, 3, 2)
        assert tangent_table(RATIONAL, 0) == TangentUnavailable(dim_t1=4)
        assert tangent_table(ELLIPTIC_RULED, 0) == TangentUnavailable(dim_t1=4)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            cohomology_table("k3", 1)


class TestVerdict:
    def test_kodaira_surface(self):
        assert smoothing_verdict(2, 2, True) == Verdict.kodaira_surface(1)
        assert str(Verdict.kodaira_surface(1)) == "KodairaSurface(1)"

    def test_complex_torus(self):
        assert smoothing_verdict(0, 1, True) == Verdict.complex_torus()

    def test_no_smoothing(self):
        assert smoothing_verdict(3, 2, False) == Verdict.no_smoothing()

    def test_rational_degree_six_warp_three(self):
        assert smoothing_verdict(6, 3, True) == Verdict.kodaira_surface(2)

    def test_inconsistent_data(self):
        with pytest.raises(InconsistentData):
            smoothing_verdict(3, 2, True)
        with pytest.raises(InconsistentData):
            smoothing_verdict(3, 0, True)

    def test_degree_zero_never_kodaira(self):
        for w in range(0, 5):
            verdict = smoothing_verdict(0, w, True)
            assert verdict.kind != "KodairaSurface"


class TestVersal:
    def test_descriptors(self):
        assert versal_descriptor(HOPF, 2) == SmoothBaseWithCurve(2, 1)
        assert versal_descriptor(RATIONAL, 2) == TwoSmoothSurfaces(2, 2, 1)
        assert versal_descriptor(ELLIPTIC_RULED, 0) == SmoothFourfold(4, 3)


class TestClassify:
    def test_hopf_composite_example(self):
        sc = classify(HopfDatum(4, 1, 3, 2), GluingMatrix(1, 2, 0, 1))
        assert sc.admissible and sc.d_semistable
        assert (sc.degree, sc.warp) == (2, 2)
        assert sc.verdict == Verdict.kodaira_surface(1)
        assert sc.cohomology == (1, 1, 0)
        assert sc.tangent == TangentDims(1, 2, 1)
        assert sc.versal == SmoothBaseWithCurve(2, 1)

    def test_hopf_default_matrix(self):
        assert classify(HopfDatum(4, 1, 3, 2)) == classify(HopfDatum(4, 1, 3, 2), GluingMatrix(1, 2, 0, 1))

    def test_non_translation_not_admissible(self):
        sc = classify(EllipticRuledDatum(4, 2, translation=False))
        assert not sc.admissible
        assert not sc.d_semistable
        assert sc.verdict == Verdict.no_smoothing()
        assert sc.cohomology is None and sc.tangent is None and sc.versal is None

    def test_rational_warp_not_dividing(self):
        sc = classify(RationalDatum(3, 2, untwisted=True))
        assert sc.admissible and not sc.d_semistable
        assert sc.verdict == Verdict.no_smoothing()

    def test_twisted_rational_not_admissible(self):
        sc = classify(RationalDatum(4, 2, untwisted=False))
        assert not sc.admissible

    def test_elliptic_degree_zero_torus(self):
        sc = classify(EllipticRuledDatum(0, 1, translation=True))
        assert sc.verdict == Verdict.complex_torus()
        assert sc.cohomology == (2, 3, 1)
        assert sc.tangent == TangentUnavailable(4)
        assert sc.versal == SmoothFourfold(4, 3)

    def test_matrix_rejected_for_ruled_data(self):
        with pytest.raises(ValueError):
            classify(RationalDatum(2, 1, untwisted=True), GluingMatrix(1, 0, 0, 1))

    def test_payload_shape(self):
        payload = surface_class_payload(classify(HopfDatum(4, 1, 3, 2)))
        assert payload["verdict"] == "KodairaSurface(1)"
        assert payload["cohomology"] == {"h0": 1, "h1": 1, "h2": 0}
        assert payload["tangent"] == {"T0": 1, "T1": 2, "T2": 1}
        assert payload["versal"] == {"shape": "SmoothBaseWithCurve", "dimV": 2, "dimLocTriv": 1}
        assert list(payload) == [
            "type",
            "admissible",
            "d_semistable",
            "degree",
            "warp",
            "verdict",
            "cohomology",
            "tangent",
            "versal",
            "criteria",
        ]


class TestDatumValidation:
    def test_residues_must_be_reduced(self):
        with pytest.raises(ValueError):
            HopfDatum(4, 5, 1, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            EllipticRuledDatum(-1, 0, translation=True)
