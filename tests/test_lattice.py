import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdl.errors import NotAUnit, RankMismatch
from kdl.lattice import (
    IntMatrix,
    IntVec,
    det,
    elementary_divisors,
    extends_to_basis,
    is_unimodular,
    is_unipotent,
    mod_inverse,
    rank_of,
)


def identity(dim):
    """The dim x dim identity matrix."""
    return IntMatrix(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))


def det_by_permutations(rows):
    """Independent determinant oracle: Leibniz expansion over all permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def maximal_minor_gcd(rows):
    """Independent oracle for extends_to_basis: gcd of all k x k minors."""
    k = len(rows)
    ncols = len(rows[0])
    g = 0
    for cols in itertools.combinations(range(ncols), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, det_by_permutations(sub))
    return g


def smith_divisors(rows):
    """Independent oracle for elementary_divisors: the diagonal of the Smith
    normal form, reached by row and column operations over Z, in divisibility
    order and padded with zeros when the rank is deficient."""
    a = [[int(x) for x in row] for row in rows]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("rows must all have the same length")
    divisors: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        # Move a nonzero entry of minimal magnitude into the pivot slot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            # Euclidean reduction of column t, then row t; a swap during either
            # pass strictly shrinks the pivot, so this terminates.
            reduced = True
            for i in range(t + 1, nrows):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        reduced = False
            for j in range(t + 1, ncols):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        reduced = False
            if not reduced:
                pivot = (t, t)
                continue
            # Enforce that the pivot divides every remaining entry, so the
            # diagonal comes out in divisibility order.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            pivot = (t, t)
        divisors.append(abs(a[t][t]))
        t += 1
    divisors.extend(0 for _ in range(min(nrows, ncols) - len(divisors)))
    return divisors


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@st.composite
def integer_matrices(draw):
    """1-5 rows by 1-5 columns (tall, square or wide): random entries, or a
    product of an m x r and an r x n matrix with r < min(m, n), which forces
    the rank below full (r = 0 gives the zero matrix)."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def entries(m, n, bound):
        return draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=m, max_size=m))

    if draw(st.booleans()):
        return entries(nrows, ncols, 6)
    inner = draw(st.integers(0, min(nrows, ncols) - 1))
    left, right = entries(nrows, inner, 3), entries(inner, ncols, 3)
    return [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(ncols)] for i in range(nrows)]


@st.composite
def basis_candidates(draw):
    """k vectors in Z^rank, 1 <= k <= rank <= 5: random entries, or the first k
    rows of a unimodular matrix (the identity after random elementary row
    operations) with its first row scaled by 1, 2 or 3, so both answers occur."""
    rank = draw(st.integers(1, 5))
    count = draw(st.integers(1, rank))
    if draw(st.booleans()):
        row = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
        return draw(st.lists(row, min_size=count, max_size=count))
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    index = st.integers(0, rank - 1)
    for i, j, factor in draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=10)):
        if i != j:
            rows[i] = [x + factor * y for x, y in zip(rows[i], rows[j])]
    scale = draw(st.integers(1, 3))
    rows[0] = [scale * x for x in rows[0]]
    return rows[:count]


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == 1

    def test_triangular(self):
        assert det(IntMatrix(((1, 0), (1, 2)))) == 2

    def test_hopf_shift_matrix(self):
        # Cofactor expansion along the middle row gives 1 for any e.
        m = IntMatrix(((1, 5, 0), (0, 1, 0), (1, 0, 1)))
        assert det(m) == 1
        assert det_by_permutations(m.rows) == 1

    def test_rational_shift_matrix_5x5(self):
        e = 2
        m = IntMatrix(
            (
                (1, e, 0, 0, 0),
                (0, 1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (0, 0, 0, 1, 0),
                (0, 1, 0, 0, 1),
            )
        )
        assert det(m) == 1
        assert det_by_permutations(m.rows) == 1

    def test_singular(self):
        assert det(IntMatrix(((1, 2), (2, 4)))) == 0

    @given(small_matrices)
    @settings(max_examples=200)
    def test_matches_permutation_oracle(self, rows):
        m = IntMatrix(tuple(tuple(r) for r in rows))
        assert det(m) == det_by_permutations(rows)

    @given(small_matrices, small_matrices)
    @settings(max_examples=200)
    def test_multiplicative(self, rows_a, rows_b):
        n = min(len(rows_a), len(rows_b))
        a = IntMatrix(tuple(tuple(r[:n]) for r in rows_a[:n]))
        b = IntMatrix(tuple(tuple(r[:n]) for r in rows_b[:n]))
        assert det(a @ b) == det(a) * det(b)


class TestModInverse:
    @pytest.mark.parametrize("a,n,expected", [(1, 5, 1), (3, 4, 3), (4, 9, 7), (0, 1, 0)])
    def test_examples(self, a, n, expected):
        assert mod_inverse(a, n) == expected

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            mod_inverse(2, 4)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 0)

    def test_inverse_property_up_to_200(self):
        for n in range(1, 201):
            for a in range(n):
                if math.gcd(a, n) == 1:
                    m = mod_inverse(a, n)
                    assert 0 <= m < n
                    assert (a * m) % n == 1 % n


class TestExtendsToBasis:
    def test_unit_vector(self):
        assert extends_to_basis([IntVec((1, 0, 0))])

    def test_two_vectors_smith_divisors_one(self):
        assert extends_to_basis([IntVec((0, 0, 1)), IntVec((1, 0, 1))])

    def test_imprimitive_vector(self):
        assert not extends_to_basis([IntVec((2, 0))])

    def test_dependent_vectors(self):
        assert not extends_to_basis([IntVec((1, 0)), IntVec((1, 0))])

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            extends_to_basis([IntVec((1, 0)), IntVec((1, 0, 0))])
        with pytest.raises(RankMismatch):
            extends_to_basis([IntVec((1, 0)), IntVec((0, 1)), IntVec((1, 1))])

    def test_matches_minor_gcd_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            rank = rng.randint(1, 4)
            count = rng.randint(1, rank)
            rows = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(count)]
            if any(all(x == 0 for x in row) for row in rows):
                continue
            vecs = [IntVec(tuple(row)) for row in rows]
            assert extends_to_basis(vecs) == (abs(maximal_minor_gcd(rows)) == 1)

    @given(basis_candidates())
    @settings(max_examples=300)
    def test_matches_the_smith_oracle(self, rows):
        # k = rank takes the determinant path, k < rank the divisor path.
        assert extends_to_basis([IntVec(tuple(row)) for row in rows]) == all(d == 1 for d in smith_divisors(rows))

    @given(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3).filter(lambda r: any(r)))
    @settings(max_examples=100)
    def test_invariant_under_unimodular_transform(self, row):
        vec = IntVec(tuple(row))
        rng = random.Random(sum(abs(x) for x in row))
        m = identity(3)
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            factor = rng.choice((-1, 1))
            rows = [list(r) for r in m.rows]
            rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
            m = IntMatrix(tuple(tuple(r) for r in rows))
        assert is_unimodular(m)
        assert extends_to_basis([vec]) == extends_to_basis([vec.times(m)])

    def test_invariant_under_row_operations(self):
        # Unimodular row operations change the generating set, not the
        # sublattice it generates.
        rng = random.Random(23)
        for _ in range(200):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
            if not any(rows[0]) or not any(rows[1]):
                continue
            vecs = [IntVec(tuple(r)) for r in rows]
            transformed = list(rows)
            for _ in range(5):
                i, j = rng.sample(range(2), 2)
                factor = rng.choice((-2, -1, 1, 2))
                transformed[i] = [a + factor * b for a, b in zip(transformed[i], transformed[j])]
            if not any(transformed[0]) or not any(transformed[1]):
                continue
            new_vecs = [IntVec(tuple(r)) for r in transformed]
            assert extends_to_basis(vecs) == extends_to_basis(new_vecs)


class TestUnimodular:
    def test_identity(self):
        assert is_unimodular(identity(4))

    def test_rational_shift_is_unimodular(self):
        m = IntMatrix(
            (
                (1, 2, 0, 0, 0),
                (0, 1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (0, 0, 0, 1, 0),
                (0, 1, 0, 0, 1),
            )
        )
        assert is_unimodular(m)

    def test_not_unimodular(self):
        assert not is_unimodular(IntMatrix(((2, 0), (0, 1))))


class TestUnipotent:
    def test_identity_and_jordan_blocks(self):
        assert is_unipotent(identity(3))
        assert is_unipotent(IntMatrix(((1, 1, 0), (0, 1, 1), (0, 0, 1))))

    def test_rational_shift_is_unipotent(self):
        # (g - I)^2 != 0, so a test of the square alone would reject it.
        m = IntMatrix(
            (
                (1, 2, 0, 0, 0),
                (0, 1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (0, 0, 0, 1, 0),
                (0, 1, 0, 0, 1),
            )
        )
        assert is_unipotent(m)

    @pytest.mark.parametrize(
        "rows", [((-1, 0), (0, -1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (0, 2))]
    )
    def test_not_unipotent(self, rows):
        assert not is_unipotent(IntMatrix(rows))


class TestElementaryDivisors:
    def test_diagonal_order(self):
        # gcd of entries is 1, product of the two divisors is |det| = 6.
        assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_padding(self):
        assert elementary_divisors([[1, 2], [2, 4]]) == [1, 0]

    def test_random_against_minor_gcds(self):
        # d_1 * ... * d_k equals the gcd of all k x k minors, for every k.
        rng = random.Random(11)
        for _ in range(150):
            nrows = rng.randint(1, 3)
            ncols = rng.randint(nrows, 4)
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            divisors = elementary_divisors(rows)
            for k in range(1, nrows + 1):
                g = 0
                for rsel in itertools.combinations(range(nrows), k):
                    for csel in itertools.combinations(range(ncols), k):
                        sub = [[rows[r][c] for c in csel] for r in rsel]
                        g = math.gcd(g, det_by_permutations(sub))
                prod = 1
                for d in divisors[:k]:
                    prod *= d
                assert prod == g

    @given(integer_matrices())
    @settings(max_examples=300)
    def test_matches_the_smith_oracle(self, rows):
        assert elementary_divisors(rows) == smith_divisors(rows)

    def test_no_rows_and_no_columns(self):
        assert elementary_divisors([]) == []
        assert elementary_divisors([[]]) == []

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match=r"^rows must all have the same length$"):
            elementary_divisors([[1, 2], [3]])

    @pytest.mark.parametrize("nrows,ncols", [(1, 1), (2, 3), (3, 2), (5, 5), (4, 1)])
    def test_zero_matrix(self, nrows, ncols):
        assert elementary_divisors([[0] * ncols for _ in range(nrows)]) == [0] * min(nrows, ncols)

    def test_entries_are_converted_with_int(self):
        divisors = elementary_divisors([[True, 2.0], ["3", 4]])
        assert divisors == [1, 2] and all(type(d) is int for d in divisors)


class TestRank:
    def test_full_rank(self):
        assert rank_of([[1, 0], [0, 1]]) == 2

    def test_deficient(self):
        assert rank_of([[1, 2, 3], [2, 4, 6]]) == 1

    def test_rank_matches_nonzero_divisors(self):
        rng = random.Random(3)
        for _ in range(100):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(rng.randint(1, 4))]
            assert rank_of(rows) == sum(1 for d in elementary_divisors(rows) if d != 0)


class TestVecMatrixConventions:
    def test_row_vector_right_action(self):
        # (m, eB(m), 1) under the degree-e shift lands on (m+1, eB(m+1), 1).
        e, m = 2, 3
        shift = IntMatrix(((1, e, 0), (0, 1, 0), (1, 0, 1)))
        v = IntVec((m, e * m * (m - 1) // 2, 1))
        w = v.times(shift)
        assert w == IntVec((m + 1, e * (m + 1) * m // 2, 1))

    @given(small_matrices.flatmap(lambda rows: st.tuples(
        st.just(rows),
        st.lists(st.integers(-50, 50), min_size=len(rows), max_size=len(rows)),
    )))
    @settings(max_examples=200)
    def test_exact_results_equal_validated_vectors(self, case):
        # times stores its int tuple without re-conversion; it must equal,
        # and hash like, the validating IntVec of the same entries.
        rows, a = case
        m, u, n = IntMatrix(tuple(map(tuple, rows))), IntVec(a), len(rows)
        result, expected = u.times(m), IntVec([sum(a[i] * rows[i][j] for i in range(n)) for j in range(n)])
        assert result == expected and hash(result) == hash(expected)
        assert all(type(x) is int for x in result.entries)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n) for _ in range(2)))))
    @settings(max_examples=200)
    def test_trusted_product_equals_the_validated_product(self, case):
        # The product stores its int rows and columns without re-conversion;
        # it must equal, hash and print as the validating IntMatrix of the
        # same entries.
        a, b = case
        n = len(a)
        product = IntMatrix(a) @ IntMatrix(b)
        expected = IntMatrix([[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)])
        assert product == expected and hash(product) == hash(expected) and repr(product) == repr(expected)
        assert product.cols == expected.cols
        assert all(type(x) is int for row in product.rows + product.cols for x in row)
        assert type(product.rows) is tuple and all(type(row) is tuple for row in product.rows)

    def test_cached_columns_are_not_compared(self):
        m = IntMatrix(((1, 2), (3, 4)))
        assert m.cols == ((1, 3), (2, 4))
        assert repr(m) == "IntMatrix(rows=((1, 2), (3, 4)))"
        assert m == IntMatrix([[1, 2], [3, 4]]) and hash(m) == hash(IntMatrix([[1, 2], [3, 4]]))
        assert (m @ m).rows == ((7, 10), (15, 22))
