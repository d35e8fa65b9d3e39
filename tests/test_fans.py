import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice import identity, maximal_minor_gcd
from test_smoothing import family_params

import kdl.fans
from kdl.errors import ArityMismatch, DimMismatch, NotDivisible
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
    fan_window,
    ray_formula,
    share_facet,
    window_cones,
    window_payload,
)
from kdl.lattice import IntMatrix, IntVec, _record, det
from kdl.smoothing import FAMILIES


def binom2(m: int) -> int:
    """m(m-1)/2 for every integer m, negatives included: the notation of the ray formulas."""
    return m * (m - 1) // 2


def named_generators(family, e=None, w=None):
    return dict(FAMILIES[family].generators(e, w))


def lattice_parts(family, e=None, w=None):
    return {name: g.lattice_part.rows for name, g in named_generators(family, e, w).items()}


def ray_set(cone):
    return {v.entries for v in cone.rays}


class TestBinom2:
    @pytest.mark.parametrize("m,expected", [(-2, 3), (-1, 1), (0, 0), (1, 0), (2, 1), (5, 10)])
    def test_polynomial_on_all_integers(self, m, expected):
        assert binom2(m) == expected

    def test_second_difference_is_one(self):
        for m in range(-10, 11):
            assert binom2(m - 1) + binom2(m + 1) - 2 * binom2(m) == 1


class TestRayFormulas:
    KINDS = [MumfordNeron(), HopfSmoothing(3), EllipticSmoothing(), RationalSmoothing(2)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_data_have_degree_at_most_two_on_every_axis(self, kind):
        # The certificate and the one-point deflection check rest on this.
        assert tuple(kind.ray_coefficients) == kind.AXES
        for coefficients in kind.ray_coefficients.values():
            assert 1 <= len(coefficients) <= 3
            assert all(len(c) == kind.AMBIENT_RANK for c in coefficients)

    def test_data_evaluate_to_the_paper_formulas(self):
        formulas = {
            (MumfordNeron(), "m"): lambda m: (m, 1),
            (HopfSmoothing(3), "m"): lambda m: (m, 3 * binom2(m), 1),
            (EllipticSmoothing(), "n"): lambda n: (0, n, 1),
            (RationalSmoothing(2), "m"): lambda m: (m, 2 * binom2(m), 1, 0),
            (RationalSmoothing(2), "n"): lambda n: (0, n, 0, 1),
        }
        for (kind, axis), formula in formulas.items():
            ray = ray_formula(kind, axis)
            for i in range(-6, 7):
                assert ray(i) == IntVec(formula(i)), (kind, axis, i)


class TestConeAt:
    def test_hopf_negative_index(self):
        cone = cone_at(HopfSmoothing(3), -1)
        assert ray_set(cone) == {(-1, 3, 1), (0, 0, 1)}

    def test_mumford(self):
        assert ray_set(cone_at(MumfordNeron(), 0)) == {(0, 1), (1, 1)}

    def test_elliptic(self):
        assert ray_set(cone_at(EllipticSmoothing(), 4)) == {(0, 4, 1), (0, 5, 1)}

    def test_rational_origin(self):
        cone = cone_at(RationalSmoothing(1), (0, 0))
        assert ray_set(cone) == {(0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 1)}

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            cone_at(HopfSmoothing(2), (0, 0))
        with pytest.raises(ArityMismatch):
            cone_at(RationalSmoothing(2), 0)
        with pytest.raises(ArityMismatch):
            cone_at(RationalSmoothing(2), (0, 0, 0))

    def test_rays_are_canonically_sorted(self):
        cone = cone_at(RationalSmoothing(1), (0, 0))
        assert [v.entries for v in cone.rays] == sorted(v.entries for v in cone.rays)


class TestConeValidation:
    def test_rejects_imprimitive_ray(self):
        with pytest.raises(ValueError):
            Cone((IntVec((2, 0)),), 2)

    def test_rejects_dependent_rays(self):
        with pytest.raises(ValueError):
            Cone((IntVec((1, 1)), IntVec((-1, -1))), 2)

    def test_equality_ignores_input_order(self):
        a = Cone((IntVec((0, 1)), IntVec((1, 1))), 2)
        b = Cone((IntVec((1, 1)), IntVec((0, 1))), 2)
        assert a == b

    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda rank: st.tuples(
                st.just(rank),
                st.lists(
                    st.lists(st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank),
                    min_size=1,
                    max_size=rank,
                ),
            )
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_one_basis_test_validates_and_decides_smoothness(self, drawn):
        # Primitivity is checked ray by ray before independence, which holds
        # exactly when some maximal minor is nonzero; a valid cone is smooth
        # exactly when the maximal minors have gcd 1.
        rank, rows = drawn
        if any(math.gcd(*row) != 1 for row in rows):
            expected = "cone rays must be primitive"
        elif maximal_minor_gcd(rows) == 0:
            expected = "cone rays must be linearly independent"
        else:
            expected = None
        try:
            cone = Cone(tuple(IntVec(tuple(row)) for row in rows), rank)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert cone_is_smooth(cone) == (abs(maximal_minor_gcd(rows)) == 1)


class TestSmoothness:
    def test_hopf_origin_cone(self):
        assert cone_is_smooth(cone_at(HopfSmoothing(1), 0))

    def test_rational_cone(self):
        assert cone_is_smooth(cone_at(RationalSmoothing(2), (3, -1)))

    def test_index_two_cone(self):
        assert not cone_is_smooth(Cone((IntVec((1, 0)), IntVec((1, 2))), 2))

    def test_smoothness_leaves_equality_and_hash_alone(self):
        cone = cone_at(HopfSmoothing(2), 0)
        flipped = _record(Cone, rays=cone.rays, rank=cone.rank, smooth=not cone.smooth, formula=None)
        assert cone.smooth and not flipped.smooth
        assert cone == flipped and hash(cone) == hash(flipped) and repr(cone) == repr(flipped)


class TestApply:
    def test_hopf_shift_moves_cone_up(self):
        for e, w in family_params("hopf"):
            kind, g = HopfSmoothing(e), named_generators("hopf", e, w)["polygon_shift"]
            assert apply(g, cone_at(kind, 0)) == cone_at(kind, 1), (e, w)

    def test_identity_fixes_cone(self):
        kind = HopfSmoothing(2)
        g = GroupElement.from_matrix(identity(3))
        assert apply(g, cone_at(kind, 5)) == cone_at(kind, 5)

    def test_mumford_shift(self):
        kind = MumfordNeron()
        g = named_generators("mumford")["polygon_shift"]
        for m in (-3, 0, 7):
            assert apply(g, cone_at(kind, m)) == cone_at(kind, m + 1)

    def test_rank5_matrix_acts_on_rank4_cone_through_embedding(self):
        for e, w in family_params("rational"):
            kind, named = RationalSmoothing(e), named_generators("rational", e, w)
            assert apply(named["shift_m"], cone_at(kind, (0, 0))) == cone_at(kind, (1, 0)), (e, w)
            assert apply(named["shift_n"], cone_at(kind, (0, 0))) == cone_at(kind, (0, 1)), (e, w)

    def test_dim_mismatch(self):
        g = GroupElement.from_matrix(identity(2))
        with pytest.raises(DimMismatch):
            apply(g, cone_at(HopfSmoothing(1), 0))

    def test_embedding_must_be_preserved(self):
        # A permutation swapping the last two coordinates moves the embedded
        # Z^2 out of itself.
        swap = IntMatrix(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        g = GroupElement.from_matrix(swap)
        with pytest.raises(DimMismatch):
            apply(g, cone_at(MumfordNeron(), 0))


# Every kind, and each kind in e at e = 1..4.
ALL_KINDS = [MumfordNeron(), EllipticSmoothing(), *map(HopfSmoothing, range(1, 5)),
             *map(RationalSmoothing, range(1, 5))]


@st.composite
def unimodular_matrices(draw, dim):
    """A product of elementary matrices I + t*E_ij and sign flips of one coordinate.  With probability 1/2
    no factor has a nonzero entry above the last row of the last column, so neither has the product, and
    a matrix of dimension rank+1 keeps the embedded Z^rank."""
    keeping = draw(st.booleans())
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            rows = [[-x for x in row] if k == i else row for k, row in enumerate(rows)]
        elif not (keeping and j == dim - 1):
            t = draw(st.integers(-3, 3))  # row i gains t times row j: left factor (I + t*E_ij)
            rows = [[x + t * y for x, y in zip(row, rows[j])] if k == i else row for k, row in enumerate(rows)]
    return IntMatrix(tuple(map(tuple, rows)))


class TestApplyArithmetic:
    @given(st.sampled_from(ALL_KINDS), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_images_are_the_row_times_matrix_products(self, kind, bound, embedded, data):
        # Each image ray is (v, 0) @ m computed here, with the padding
        # stripped; apply refuses exactly when some image leaves Z^rank.  The
        # image takes the source cone's smoothness, which validating its rays
        # confirms, and no formula.
        rank = kind.AMBIENT_RANK
        dim = rank + embedded
        m = data.draw(unimodular_matrices(dim))
        g = GroupElement.from_matrix(m)
        cones = fan_window(kind, bound, data.draw(st.booleans())).cones
        for index in data.draw(st.lists(st.sampled_from(list(cones)), min_size=1, max_size=4)):
            cone = cones[index]
            images = [[sum(x * row[j] for x, row in zip(v.entries + (0,) * embedded, m.rows)) for j in range(dim)]
                      for v in cone.rays]
            if any(image[rank:] != [0] * embedded for image in images):
                with pytest.raises(DimMismatch):
                    apply(g, cone)
                continue
            image = apply(g, cone)
            assert [v.entries for v in image.rays] == sorted(tuple(image[:rank]) for image in images), index
            assert image.rank == rank and image.formula is None
            assert image.smooth == cone.smooth == Cone(image.rays, rank).smooth, index


class TestShareFacet:
    def test_adjacent_hopf_cones(self):
        kind = HopfSmoothing(1)
        assert share_facet(cone_at(kind, 0), cone_at(kind, 1))

    def test_distant_cones(self):
        kind = HopfSmoothing(1)
        assert not share_facet(cone_at(kind, 0), cone_at(kind, 2))

    def test_cone_not_adjacent_to_itself(self):
        cone = cone_at(HopfSmoothing(1), 0)
        assert not share_facet(cone, cone)

    def test_rational_adjacency_in_each_direction(self):
        kind = RationalSmoothing(2)
        assert share_facet(cone_at(kind, (0, 0)), cone_at(kind, (1, 0)))
        assert share_facet(cone_at(kind, (0, 0)), cone_at(kind, (0, 1)))
        assert not share_facet(cone_at(kind, (0, 0)), cone_at(kind, (1, 1)))


class TestDeflection:
    def test_hopf(self):
        assert deflection(HopfSmoothing(3), 0).entries == (0, 3, 0)

    def test_mumford_collinear(self):
        assert deflection(MumfordNeron(), 7).entries == (0, 0)

    def test_elliptic_zero(self):
        assert deflection(EllipticSmoothing(), -4).entries == (0, 0, 0)

    def test_rational_directions(self):
        kind = RationalSmoothing(4)
        assert deflection(kind, (0, 0), "m").entries == (0, 4, 0, 0)
        assert deflection(kind, (0, 0), "n").entries == (0, 0, 0, 0)

    def test_direction_required_for_rational(self):
        with pytest.raises(ArityMismatch):
            deflection(RationalSmoothing(1), (0, 0))
        with pytest.raises(ArityMismatch):
            deflection(RationalSmoothing(1), (0, 0), "q")

    def test_direction_rejected_for_chain(self):
        with pytest.raises(ArityMismatch):
            deflection(HopfSmoothing(1), 0, "m")

    def test_hopf_identity_across_window(self):
        for e in (1, 2, 5):
            kind = HopfSmoothing(e)
            for m in range(-16, 17):
                assert deflection(kind, m).entries == (0, e, 0)


    @pytest.mark.parametrize("kind", [MumfordNeron(), HopfSmoothing(3), EllipticSmoothing(), RationalSmoothing(2)])
    def test_the_second_difference_of_the_rays(self, kind):
        # The deflection is read from the ray coefficients; it is the second
        # difference of the rays ray_formula evaluates, at every index.
        for axis in kind.AXES:
            ray = ray_formula(kind, axis)
            for i in range(-12, 13):
                index = i if len(kind.AXES) == 1 else (i, -i)
                second = IntVec(tuple(a + c - 2 * b for a, b, c in zip(ray(i - 1).entries, ray(i).entries, ray(i + 1).entries)))
                assert deflection(kind, index, None if len(kind.AXES) == 1 else axis) == second, (axis, i)


class TestShiftMatrices:
    # Every generator of every FAMILIES row, at every e <= 8 and w | e.
    def test_all_special_linear(self):
        for family in FAMILIES:
            for e, w in family_params(family):
                for name, g in named_generators(family, e, w).items():
                    assert det(g.lattice_part) == 1, (family, e, w, name)

    def test_exact_matrix_entries(self):
        # The matrices are part of the construction; pin them entry by entry.
        assert lattice_parts("mumford") == {"polygon_shift": ((1, 0), (1, 1))}
        assert lattice_parts("hopf", 3, 1)["polygon_shift"] == ((1, 3, 0), (0, 1, 0), (1, 0, 1))
        assert lattice_parts("elliptic", 6, 2)["base_twist"] == ((1, 3, 0), (0, 1, 0), (0, 0, 1))
        assert lattice_parts("rational", 2, 1)["shift_m"] == (
            (1, 2, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (1, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 1, 0, 0, 1),
        )
        for e, w in family_params("hopf"):
            assert lattice_parts("hopf", e, w) == {
                "polygon_shift": ((1, e, 0), (0, 1, 0), (1, 0, 1)),
                "fiber_gluing": identity(3).rows,
            }, (e, w)
        for e, w in family_params("elliptic"):
            assert lattice_parts("elliptic", e, w) == {
                "polygon_shift": ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
                "base_twist": ((1, e // w, 0), (0, 1, 0), (0, 0, 1)),
            }, (e, w)
        for e, w in family_params("rational"):
            assert lattice_parts("rational", e, w) == {
                "shift_m": ((1, e, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 1)),
                "shift_n": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)),
                "horizontal_gluing": identity(5).rows,
            }, (e, w)

    def test_elliptic_shift_moves_index(self):
        kind = EllipticSmoothing()
        for e, w in family_params("elliptic"):
            g = named_generators("elliptic", e, w)["polygon_shift"]
            for n in range(-8, 8):
                assert apply(g, cone_at(kind, n)) == cone_at(kind, n + 1), (e, w)

    def test_elliptic_twist_fixes_every_ray(self):
        kind = EllipticSmoothing()
        for e, w in family_params("elliptic"):
            twist = named_generators("elliptic", e, w)["base_twist"].lattice_part
            for n in range(-8, 9):
                for ray in cone_at(kind, n).rays:
                    assert ray.times(twist) == ray, (e, w)

    def test_elliptic_twist_requires_divisibility(self):
        with pytest.raises(NotDivisible):
            named_generators("elliptic", 3, 2)
        with pytest.raises(NotDivisible):
            named_generators("elliptic", 3, 0)

    def test_rational_shifts_commute(self):
        for e, w in family_params("rational"):
            named = named_generators("rational", e, w)
            phi, psi = named["shift_m"].lattice_part, named["shift_n"].lattice_part
            assert phi @ psi == psi @ phi, (e, w)

    def test_shift_powers_have_no_fixed_cone(self):
        for e, w in family_params("hopf"):
            kind, g = HopfSmoothing(e), named_generators("hopf", e, w)["polygon_shift"].lattice_part
            gk = identity(3)
            for k in range(1, 9):
                gk = gk @ g
                for m in range(-8, 9):
                    image = apply(GroupElement.from_matrix(gk), cone_at(kind, m))
                    assert image == cone_at(kind, m + k) != cone_at(kind, m), (e, w, k, m)


class TestGroupElement:
    def test_rejects_non_unimodular_lattice_part(self):
        with pytest.raises(ValueError):
            GroupElement(IntMatrix(((2, 0), (0, 1))), ("1", "1"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            GroupElement(identity(3), ("1", "alpha"))


class TestFanWindow:
    def test_chain_window_contents(self):
        window = fan_window(HopfSmoothing(2), 4)
        assert window.indices() == list(range(-4, 5))
        assert window.cones[3] == cone_at(HopfSmoothing(2), 3)

    @pytest.mark.parametrize("kind", [MumfordNeron(), HopfSmoothing(3), EllipticSmoothing(), RationalSmoothing(2)])
    def test_cones_share_the_window_rays(self, kind):
        # Each ray -W..W+1 of each axis is built once and held by every cone
        # that contains it.
        window = fan_window(kind, 3)
        assert all(cone == cone_at(kind, index) for index, cone in window.cones.items())
        rays = {id(v) for cone in window.cones.values() for v in cone.rays}
        assert len(rays) == len(kind.AXES) * (2 * 3 + 2)

    def test_rational_window_grid(self):
        window = fan_window(RationalSmoothing(1), 2)
        assert window.index_range == ((-2, 2), (-2, 2))
        assert len(window.cones) == 5 * 5

    def test_adjacent_cones_share_facet(self):
        window = fan_window(EllipticSmoothing(), 6)
        for n in range(-6, 6):
            assert share_facet(window.cones[n], window.cones[n + 1])

    def test_payload_is_ordered(self):
        payload = window_payload(fan_window(MumfordNeron(), 2))
        assert payload["kind"] == "mumford_neron"
        assert payload["params"] == {}
        assert payload["range"] == {"m": [-2, 2]}
        assert [c["index"] for c in payload["cones"]] == list(range(-2, 3))
        first = payload["cones"][0]
        assert first["rays"] == [[-2, 1], [-1, 1]]

    def test_rational_payload_axes(self):
        payload = window_payload(fan_window(RationalSmoothing(2), 1))
        assert payload["params"] == {"e": 2}
        assert payload["range"] == {"m": [-1, 1], "n": [-1, 1]}
        assert payload["cones"][0]["index"] == [-1, -1]


def oracle_window(kind, bound):
    """Every cone of the window evaluated here: ray i of an axis is c0 + i*c1 + binom2(i)*c2 from the kind's
    ``ray_coefficients``, and each cone is validated by ``Cone``, keyed and tagged as a window cone."""
    def ray(axis, i):
        powers = (1, i, i * (i - 1) // 2)
        return IntVec(tuple(sum(p * c[j] for p, c in zip(powers, kind.ray_coefficients[axis]))
                            for j in range(kind.AMBIENT_RANK)))

    window = {}
    for at in product(range(-bound, bound + 1), repeat=len(kind.AXES)):
        rays = [ray(axis, i + step) for axis, i in zip(kind.AXES, at) for step in (0, 1)]
        window[at if len(at) > 1 else at[0]] = (Cone(tuple(rays), kind.AMBIENT_RANK), (kind, at))
    return window


class TestWindowOracle:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("certified", [False, True])
    def test_window_cones_match_the_evaluated_formula(self, kind, certified):
        for bound in range(1, 7):
            cones, oracle = window_cones(kind, bound, certified), oracle_window(kind, bound)
            assert list(cones) == list(oracle), bound
            for index, (cone, formula) in oracle.items():
                built = cones[index]
                assert [v.entries for v in built.rays] == [v.entries for v in cone.rays], (bound, index)
                assert (built.rank, built.smooth, built.formula) == (cone.rank, cone.smooth, formula), (bound, index)


def eager_window(kind, bound):
    """The oracle window: every cone built up front by ``cone_at``, in a plain dict."""
    indices = product(range(-bound, bound + 1), repeat=len(kind.AXES))
    return {index: cone_at(kind, index) for index in (at if len(at) > 1 else at[0] for at in indices)}


def window_keys():
    """Keys to look up in a window: ints in and out of range, equal numbers of
    other types, non-numbers, unhashables and tuples of them of any arity."""
    numbers = st.integers(-4, 4) | st.integers(-2**70, 2**70)
    scalars = st.one_of(
        numbers, st.booleans(), numbers.map(float), st.floats(-5, 5), st.sampled_from([math.nan, math.inf]),
        numbers.map(Fraction), st.fractions(-5, 5), numbers.map(complex), st.complex_numbers(max_magnitude=5),
        numbers.map(Decimal), st.none(), st.text(max_size=2), st.lists(numbers, max_size=2))
    tuples = st.lists(scalars | st.tuples(numbers), max_size=3).map(tuple)
    return st.booleans().flatmap(lambda tuple_: tuples if tuple_ else scalars)


class EqualsMinusOne:
    """Equal to -1 but not of its hash, so a dict keyed by -1 does not find it."""

    def __eq__(self, other):
        return other == -1

    def __hash__(self):
        return 7


# Keys every lookup test tries besides the drawn ones; hash(-1) is -2.
FIXED_KEYS = [True, False, 1.0, -1.0, -2.0, Fraction(-1), Decimal(-1), complex(-1), 2**61 + 1, [1], "1", None,
              EqualsMinusOne(), (1,), (True, False), (1.0, -1.0), (-1, -2), (0, 0, 0), (1, [0]), ((1,), 0),
              (EqualsMinusOne(), 0)]


def outcome(read):
    """What a read returns, or the type of what it raises."""
    try:
        return read()
    except (KeyError, TypeError) as error:
        return type(error)


class TestConesBuiltOnRead:
    KINDS = [MumfordNeron(), HopfSmoothing(3), EllipticSmoothing(), RationalSmoothing(2)]

    @pytest.fixture
    def built(self, monkeypatch):
        """The per-axis index of each cone ``kdl.fans`` builds from now on."""
        built = []

        def counting(kind, at, rays, certified=False, original=kdl.fans._cone):
            built.append(at)
            return original(kind, at, rays, certified)

        monkeypatch.setattr(kdl.fans, "_cone", counting)
        return built

    @pytest.mark.parametrize("kind", KINDS)
    def test_len_in_and_iteration_build_no_cone(self, kind, built):
        # len, iteration and indices() are arithmetic in the bound; the first
        # lookup (here an `in`) builds every cone of the window once.
        oracle = eager_window(kind, 3)
        built.clear()
        window = fan_window(kind, 3)
        outside = 4 if len(kind.AXES) == 1 else (4, 0)
        assert len(window.cones) == len(oracle) and list(window.cones) == sorted(oracle)
        assert window.indices() == sorted(oracle)
        assert built == []
        assert all(index in window.cones for index in oracle) and outside not in window.cones
        assert sorted(built) == sorted(cone.formula[1] for cone in oracle.values())

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_cone_is_built_once_however_often_read(self, kind, built):
        oracle = eager_window(kind, 3)
        built.clear()
        window = fan_window(kind, 3)
        first = {index: window.cones[index] for index in oracle}
        assert first == oracle and sorted(built) == sorted(cone.formula[1] for cone in oracle.values())
        assert all(window.cones[index] is cone for index, cone in first.items())
        assert dict(window.cones) == oracle and len(built) == len(oracle)

    @pytest.mark.parametrize("kind", KINDS)
    def test_compares_prints_pickles_and_copies_as_a_dict_window(self, kind, built):
        oracle = eager_window(kind, 2)
        plain = FanWindow(kind, ((-2, 2),) * len(kind.AXES), oracle)
        built.clear()
        window = fan_window(kind, 2)
        window.cones[next(iter(oracle))]  # the first lookup builds every cone
        assert len(built) == len(oracle)
        built.clear()
        copies = [pickle.loads(pickle.dumps(window)), copy.deepcopy(window)]
        for window in (window, *copies):
            assert window == plain and plain == window and window.cones == oracle and oracle == window.cones
            assert repr(window) == repr(plain) and repr(window.cones) == repr(oracle)
        assert built == []  # a copy carries every cone built before it and builds none

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_built_window_copies_through_its_dict(self, kind, built):
        # keys, items and values build the window, as a lookup does, and return
        # the built dict's views; so dict() copies a built window item for item,
        # in the dict's order and with its cone objects, and builds no cone.
        for read in ("keys", "items", "values"):
            built.clear()
            window = fan_window(kind, 3).cones
            view = getattr(window, read)()
            assert type(view) is type(getattr({}, read)()) and list(view) == list(getattr(window.cones, read)())
            assert len(built) == len(window.cones)
        built.clear()
        cones = window.cones
        copied = dict(window)
        assert list(copied) == list(cones) == list(window)
        assert all(a is b for a, b in zip(copied.values(), cones.values()))
        assert built == [] and window.cones is cones

    @pytest.mark.parametrize("kind", KINDS)
    def test_copying_an_unread_window_builds_nothing(self, kind, built):
        window = fan_window(kind, 2)
        copies = [pickle.loads(pickle.dumps(window)), copy.deepcopy(window), copy.copy(window)]
        assert built == []
        oracle = eager_window(kind, 2)
        built.clear()
        for each in copies:
            assert dict(each.cones) == oracle and each.cones.formula == window.cones.formula
        assert len(built) == len(copies) * len(oracle)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("certified", [False, True])
    def test_window_cones_is_the_dict_of_a_window(self, kind, bound, certified):
        cones = window_cones(kind, bound, certified)
        read = dict(fan_window(kind, bound, certified).cones)
        assert type(cones) is dict and cones == read and list(cones) == list(read)
        assert [(c.smooth, c.formula) for c in cones.values()] == [(c.smooth, c.formula) for c in read.values()]

    @given(st.sampled_from(KINDS), st.integers(1, 3), st.lists(window_keys(), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_finds_keys_as_a_dict_window(self, kind, bound, keys):
        # Membership and lookup answer as a dict of the window's indices for
        # any key: True, 1.0, Fraction(1), 1+0j or Decimal(1) finds index 1
        # (cone 1, whose per-axis integers are ints), an out-of-range,
        # wrong-arity or non-numeric key finds nothing, and an unhashable key
        # raises TypeError.
        oracle, window = eager_window(kind, bound), fan_window(kind, bound).cones
        for key in keys + FIXED_KEYS:
            assert outcome(lambda: key in window) == outcome(lambda: key in oracle), key
            assert outcome(lambda: window.get(key)) == outcome(lambda: oracle.get(key)), key
            found = outcome(lambda: window[key])
            assert found == outcome(lambda: oracle[key]), key
            if isinstance(found, Cone):
                assert all(type(x) is int for x in found.formula[1]), key

    @pytest.mark.parametrize("kind", KINDS)
    def test_certified_decides_trusted_or_validated_on_read(self, kind, monkeypatch):
        tests = []

        def counting(rays, original=kdl.fans.extends_to_basis):
            tests.append(rays)
            return original(rays)

        monkeypatch.setattr(kdl.fans, "extends_to_basis", counting)
        trusted, validated = fan_window(kind, 2, certified=True), fan_window(kind, 2)
        assert tests == []
        assert dict(trusted.cones) == dict(validated.cones) and len(tests) == len(validated.cones)
        assert all(cone.smooth for cone in trusted.cones.values())
