import copy
import hashlib
import json
import math
import pickle
import sys
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdl.classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    TYPES,
    EllipticRuledDatum,
    GluingMatrix,
    HopfDatum,
    RationalDatum,
    SmoothBaseWithCurve,
    SmoothFourfold,
    SurfaceClass,
    Tables,
    TangentDims,
    TangentUnavailable,
    TwoSmoothSurfaces,
    TypeSpec,
    Verdict,
    _hopf_data,
    classify,
    cohomology_table,
    hopf_dsemistable,
    hopf_dsemistable_oracle,
    hopf_invariants,
    hopf_kx_zero,
    quotient_degree,
    ruled_dsemistable,
    smoothing_verdict,
    surface_class_payload,
    tangent_table,
    versal_descriptor,
)
from kdl.boundary import STRATA, StratumComponent
from kdl.errors import NotDivisible, NotSL2
from kdl.smoothing import FAMILIES, QuotientInfo, build_family, parameter_values


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
        # The oracle inverts n1*n2 mod n; the datum refuses non-units, so no
        # datum reaches it without an inverse.
        with pytest.raises(ValueError, match="^n1 and n2 must be units modulo n$"):
            HopfDatum(4, 2, 1, 0)

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


def answer(call, *args):
    """What a call returns, or the class name and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestRuledDsemistable:
    @pytest.mark.parametrize(
        "e,w,expected",
        [(4, 2, True), (3, 2, False), (0, 0, True), (0, 5, True), (3, 0, False), (4, -2, False), (0, -3, False),
         (-4, 2, True)],
    )
    def test_divisibility_conventions(self, e, w, expected):
        assert ruled_dsemistable(e, w) is expected

    @pytest.mark.parametrize("w", range(-3, 13))
    @pytest.mark.parametrize("e", range(-3, 13))
    def test_every_site_answers_the_warp_rule_alike(self, e, w):
        # The warp rule (w >= 1 and w | e) and e/w at every site that reads
        # them; a warp the rule refuses raises one error, NotDivisible, with
        # one message.  ruled_dsemistable alone lets w = 0 divide e = 0, and
        # smoothing_verdict answers a complex torus at e = 0 for every w >= 0.
        divides = w >= 1 and e % w == 0
        refused = ("NotDivisible", f"warp {w} must be a positive divisor of degree {e}")
        assert answer(quotient_degree, e, w) == (e // w if divides else refused)
        assert ruled_dsemistable(e, w) is (e == 0 if w == 0 else divides)
        verdict = Verdict.complex_torus() if e == 0 <= w else Verdict.kodaira_surface(e // w) if divides else refused
        assert answer(smoothing_verdict, e, w, True) == verdict
        assert answer(parameter_values, e, w) == ({"e": e, "e/w": e // w} if divides else refused)
        for family in ("hopf", "elliptic", "rational"):
            low = FAMILIES[family].min_degree
            below = ("ValueError", f"the {family} family needs degree e >= {low}" if low else "degree must be nonnegative")
            built = answer(lambda: build_family(family, e, w, window=1).quotient_info)
            assert built == (refused if not divides else QuotientInfo(w, e // w) if e >= low else below), family
        for stratum in STRATA:
            component = answer(lambda: StratumComponent(stratum, e, w).key)
            below = ("ValueError", "degree and warp must be positive")
            assert component == (refused if not divides else (stratum, e, w) if e >= 1 else below), stratum


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

    def test_each_type_names_its_smoothing_family(self):
        # Derived, not restated: each type names a family that takes a degree,
        # no family is named twice, and the curve family is named by none.
        named = [spec.family for spec in TYPES.values()]
        assert all(family in FAMILIES and FAMILIES[family].min_degree is not None for family in named)
        assert len(set(named)) == len(named)
        assert "mumford" not in named


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
        # d-semistable claimed with a warp the rule refuses.
        with pytest.raises(NotDivisible, match="warp 2 must be a positive divisor of degree 3"):
            smoothing_verdict(3, 2, True)
        with pytest.raises(NotDivisible, match="warp 0 must be a positive divisor of degree 3"):
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

    def test_payload_criteria_is_a_fresh_dict(self):
        first = surface_class_payload(classify(HopfDatum(4, 1, 3, 2)))
        first["criteria"]["admissibility"] = "changed"
        later = surface_class_payload(classify(HopfDatum(4, 1, 3, 2)))
        assert later["criteria"] == TYPES[HOPF].criteria
        assert later["criteria"]["admissibility"] != "changed"
        assert later["criteria"] is not TYPES[HOPF].criteria


def _golden_payloads():
    """Every valid Hopf tuple with n <= 12 (default matrix), then every
    elliptic ruled and rational datum with e, w <= 6 and either flag."""
    for n in range(1, 13):
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        for n1 in units:
            for n2 in units:
                for b in range(n):
                    yield surface_class_payload(classify(HopfDatum(n, n1, n2, b)))
    for e in range(7):
        for w in range(7):
            for flag in (False, True):
                yield surface_class_payload(classify(EllipticRuledDatum(e, w, translation=flag)))
                yield surface_class_payload(classify(RationalDatum(e, w, untwisted=flag)))


def test_golden_payload_digest():
    # Compact JSON of the payload list, keys in the payload's own order.
    payloads = list(_golden_payloads())
    text = json.dumps(payloads, separators=(",", ":"))
    assert len(payloads) == 2487
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "02b7104925fce39732277a810680ab4ff098671746876fe22a0d0ff8d9eb0346"
    )


class TestDatumValidation:
    def test_residues_must_be_reduced(self):
        with pytest.raises(ValueError):
            HopfDatum(4, 5, 1, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            EllipticRuledDatum(-1, 0, translation=True)

    def test_hopf_data_is_the_validated_enumeration(self):
        # _hopf_data skips the constructor's checks: it must yield exactly
        # what the constructor builds over the unit residues, record and
        # field types included.
        def typed(h):
            return type(h), tuple((type(x), x) for x in h)

        for n in range(1, 17):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            want = [HopfDatum(n, n1, n2, b) for n1 in units for n2 in units for b in range(n)]
            assert list(map(typed, _hopf_data(n))) == list(map(typed, want))
        assert sum(1 for n in range(1, 61) for _ in _hopf_data(n)) == 1392347


# -- the record contract ----------------------------------------------------

# Each record type's field names, in constructor order.
RECORD_FIELDS = {
    GluingMatrix: ("a", "b", "c", "d"),
    HopfDatum: ("n", "n1", "n2", "b", "alpha_label"),
    EllipticRuledDatum: ("e", "w", "translation", "j_label"),
    RationalDatum: ("e", "w", "untwisted", "horizontal_labels"),
    Verdict: ("kind", "degree"),
    TangentDims: ("t0", "t1", "t2"),
    TangentUnavailable: ("dim_t1",),
    SmoothBaseWithCurve: ("dim_base", "dim_locally_trivial"),
    TwoSmoothSurfaces: ("dim_v1", "dim_v2", "dim_intersection"),
    SmoothFourfold: ("dim_base", "dim_locally_trivial"),
    SurfaceClass: (
        "surface_type", "admissible", "d_semistable", "degree", "warp", "verdict", "cohomology", "tangent", "versal",
    ),
    Tables: ("cohomology", "tangent", "versal"),
    TypeSpec: ("datum", "names", "decide", "positive", "zero", "criteria", "param_space", "family", "deflections"),
}

small = st.integers(-3, 12)
labels = st.text(max_size=3)
hopf_data = st.integers(1, 12).flatmap(
    lambda n: st.builds(
        HopfDatum, st.just(n), *[st.sampled_from([a for a in range(n) if math.gcd(a, n) == 1])] * 2,
        st.integers(0, n - 1), alpha_label=labels,
    )
)
ruled_data = st.one_of(
    st.builds(EllipticRuledDatum, st.integers(0, 8), st.integers(0, 8), translation=st.booleans(), j_label=labels),
    st.builds(
        RationalDatum, st.integers(0, 8), st.integers(0, 8), untwisted=st.booleans(),
        horizontal_labels=st.lists(labels, min_size=2, max_size=2),
    ),
)
tangents = st.one_of(st.builds(TangentDims, small, small, small), st.builds(TangentUnavailable, small))
versals = st.one_of(
    st.builds(SmoothBaseWithCurve, small, small),
    st.builds(TwoSmoothSurfaces, small, small, small),
    st.builds(SmoothFourfold, small, small),
)
records = st.one_of(
    st.builds(GluingMatrix, small, small, small, small),
    hopf_data,
    ruled_data,
    st.builds(Verdict, st.sampled_from(["KodairaSurface", "ComplexTorus", "NoSmoothing"]), st.none() | small),
    tangents,
    versals,
    st.builds(classify, hopf_data | ruled_data),
    st.builds(Tables, st.tuples(small, small, small), tangents, versals),
    st.sampled_from(list(TYPES.values())),
)


class TestRecordContract:
    def test_every_record_type_is_covered(self):
        module = sys.modules["kdl.classify"]
        public_classes = {
            obj for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_")
        }
        assert public_classes == set(RECORD_FIELDS)

    @given(records)
    @settings(max_examples=300)
    def test_fields_are_read_only(self, record):
        before = repr(record)
        for name in RECORD_FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert repr(record) == before

    @given(records)
    @settings(max_examples=300)
    def test_equality_and_hash_depend_on_the_type(self, record):
        cls, fields = type(record), RECORD_FIELDS[type(record)]
        values = [getattr(record, name) for name in fields]
        rebuilt = cls(**dict(zip(fields, values)))
        subclass = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
        twin = namedtuple(cls.__name__, fields)(*values)
        others = [tuple(values), subclass]
        for other_cls, other_fields in RECORD_FIELDS.items():
            if other_cls is not cls and len(other_fields) == len(fields):
                try:
                    others.append(other_cls(*values))
                except (TypeError, ValueError):
                    pass
        assert rebuilt == record and not rebuilt != record
        for other in others:
            assert record != other and other != record
            assert not record == other and not other == record
        # A tuple subclass from elsewhere compares by tuple rules only as the left operand.
        assert record != twin and not record == twin
        assert copy.deepcopy(record) == record
        try:
            plain_hash = hash(tuple(values))
        except TypeError:  # a TypeSpec holds its criteria dict
            with pytest.raises(TypeError):
                hash(record)
            return
        assert hash(rebuilt) == hash(record) != plain_hash
        assert len({record, rebuilt, tuple(values), subclass}) == 3
        assert pickle.loads(pickle.dumps(record)) == record

    @given(records)
    @settings(max_examples=300)
    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORD_FIELDS[type(record)])
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_defaults(self):
        assert HopfDatum(4, 1, 3, 2).alpha_label == "alpha"
        assert EllipticRuledDatum(1, 1, True).j_label == "j"
        assert RationalDatum(1, 1, True).horizontal_labels == ("h1", "h2")
        assert RationalDatum(1, 1, True, ["a", "b"]).horizontal_labels == ("a", "b")
        assert Verdict("NoSmoothing").degree is None
        assert TangentUnavailable().dim_t1 == 4
        assert SmoothBaseWithCurve() == SmoothBaseWithCurve(2, 1)
        assert TwoSmoothSurfaces() == TwoSmoothSurfaces(2, 2, 1)
        assert SmoothFourfold() == SmoothFourfold(4, 3)

    def test_verdict_constants_are_shared(self):
        assert Verdict.no_smoothing() is Verdict.no_smoothing() == Verdict("NoSmoothing")
        assert Verdict.complex_torus() is Verdict.complex_torus() == Verdict("ComplexTorus")

    @given(small, small, small, small)
    @example(1, 5, -7, -3)
    @example(4, 2, 5, 0)
    @example(4, 2, 1, 0)
    def test_hopf_validation_order(self, n, n1, n2, b):
        if n < 1:
            message = "torsion order n must be positive"
        elif not all(0 <= x < n for x in (n1, n2, b)):
            message = "n1, n2, b must be residues in [0, n)"
        elif math.gcd(n1, n) != 1 or math.gcd(n2, n) != 1:
            message = "n1 and n2 must be units modulo n"
        else:
            assert HopfDatum(n, n1, n2, b) == HopfDatum(n=n, n1=n1, n2=n2, b=b, alpha_label="alpha")
            return
        with pytest.raises(ValueError) as caught:
            HopfDatum(n, n1, n2, b)
        assert str(caught.value) == message

    @given(small, small, st.booleans(), st.one_of(st.integers(), st.lists(labels, max_size=3), st.text(max_size=3)))
    def test_ruled_validation_order(self, e, w, flag, horizontal_labels):
        if e < 0 or w < 0:
            with pytest.raises(ValueError, match="^degree and warp must be nonnegative$"):
                EllipticRuledDatum(e, w, translation=flag)
        else:
            assert EllipticRuledDatum(e, w, translation=flag) == EllipticRuledDatum(e, w, flag, "j")
        if isinstance(horizontal_labels, int):  # not iterable: rejected before the numbers are looked at
            with pytest.raises(TypeError):
                RationalDatum(e, w, flag, horizontal_labels)
            return
        if e < 0 or w < 0:
            message = "degree and warp must be nonnegative"
        elif len(horizontal_labels) != 2:
            message = "exactly two horizontal gluing labels"
        else:
            assert RationalDatum(e, w, flag, horizontal_labels).horizontal_labels == tuple(horizontal_labels)
            return
        with pytest.raises(ValueError) as caught:
            RationalDatum(e, w, flag, horizontal_labels)
        assert str(caught.value) == message

    def test_replace_validates(self):
        assert HopfDatum(4, 1, 3, 2)._replace(b=0) == HopfDatum(4, 1, 3, 0)
        with pytest.raises(ValueError, match="residues"):
            HopfDatum(4, 1, 3, 2)._replace(n1=7)
        with pytest.raises(ValueError, match="^n1 and n2 must be units modulo n$"):
            HopfDatum(4, 1, 3, 2)._replace(n1=2)
        assert RationalDatum(1, 1, True)._replace(horizontal_labels=["a", "b"]).horizontal_labels == ("a", "b")
