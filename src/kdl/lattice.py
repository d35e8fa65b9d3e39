"""Exact integer linear algebra over Z^r.

All arithmetic uses Python's arbitrary-precision integers; nothing here ever
rounds.  The global convention, used by every other module, is that matrices
act on ROW vectors from the RIGHT: the image of v under M is v @ M.

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import mul
from typing import Iterable, Sequence

from .errors import NotAUnit, RankMismatch


_new, _setattr = object.__new__, object.__setattr__  # looked up once: _record runs on every hot path


def _record(cls, **fields):
    """A frozen dataclass ``cls`` holding ``fields`` (every field, in field order) as given, without ``__init__``:
    no conversion, check or ``__post_init__``, for fields its caller has already checked."""
    record = _new(cls)
    _setattr(record, "__dict__", fields)
    return record


@dataclass(frozen=True)
class IntVec:
    """An integer row vector; ``rank`` is its length.

    ``IntVec(...)`` converts every entry with ``int`` and rejects an empty
    tuple.  The right action ``times``, computed from entries that are
    already ints, builds its result with ``_record`` instead.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if len(self.entries) == 0:
            raise ValueError("IntVec needs at least one entry")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_primitive(self) -> bool:
        """True when the entries have gcd 1 (the vector generates a saturated Z)."""
        return math.gcd(*self.entries) == 1

    def times(self, m: "IntMatrix") -> "IntVec":
        """Right action: the row vector self @ m."""
        if self.rank != m.dim:
            raise RankMismatch(f"vector of rank {self.rank} cannot act on a {m.dim}x{m.dim} matrix")
        return _record(IntVec, entries=tuple([sum(map(mul, self.entries, col)) for col in m.cols]))


@dataclass(frozen=True)
class IntMatrix:
    """A square integer matrix, stored row-major.

    ``cols`` holds the columns, computed once on construction for the
    products; it takes no part in equality, hashing or the repr.  A product
    is built by ``_trusted``, which stores its int rows and columns as they are."""

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("IntMatrix needs at least one row")
        if any(len(row) != n for row in rows):
            raise ValueError("IntMatrix must be square")
        object.__setattr__(self, "cols", tuple(zip(*rows)))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix from square, nonempty tuples of int rows, stored without conversion or checks."""
        return _record(cls, rows=rows, cols=tuple(zip(*rows)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise RankMismatch(f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}")
        return IntMatrix._trusted(tuple(tuple(sum(map(mul, row, col)) for col in other.cols) for row in self.rows))


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    return _bareiss_det(m.rows)


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of square int rows by Bareiss elimination; every division is exact."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    """True when det(m) is +1 or -1, i.e. m is an automorphism of the lattice."""
    return det(m) in (1, -1)


def is_unipotent(m: IntMatrix) -> bool:
    """True when (m - I)^dim = 0, i.e. every eigenvalue of m is 1."""
    power = shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    for _ in range(m.dim - 1):
        power = [[sum(map(mul, row, col)) for col in zip(*shifted)] for row in power]
    return not any(map(any, power))


def mod_inverse(a: int, n: int) -> int:
    """The inverse of a modulo n, as a residue in [0, n); for n = 1 this is 0.

    Raises NotAUnit when gcd(a, n) != 1.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotAUnit(f"{a} is not a unit modulo {n}") from None


def rank_of(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix (rows need not be square).

    Division-free cross-multiplication elimination: scaling a row by a
    nonzero integer never changes the rank, so the result is exact.
    """
    a = [list(row) for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        head = a[row][col]
        for r in range(row + 1, nrows):
            lead = a[r][col]
            if lead:
                a[r] = [head * x - lead * y for x, y in zip(a[r], a[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def elementary_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The elementary divisors d_1 | d_2 | ... of an integer matrix, min(#rows, #cols) of them.

    d_k = D_k / D_(k-1) for the gcd D_k of the k x k minors (D_0 = 1), each a
    Bareiss determinant, and d_k = 0 from the first D_k = 0 on (deficient rank).
    There are C(#rows, k) * C(#cols, k) such minors, so the cost grows binomially
    with the matrix; it serves the matrices of at most 5 columns kdl builds.
    """
    a = [[int(x) for x in row] for row in rows]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("rows must all have the same length")
    divisors: list[int] = []
    for k in range(1, min(nrows, ncols) + 1):
        minor_gcd = 0
        for picked, cols in product(combinations(range(nrows), k), combinations(range(ncols)[::-1], k)):
            minor_gcd = math.gcd(minor_gcd, _bareiss_det([[a[i][j] for j in cols] for i in picked]))
            if minor_gcd == 1:
                break  # D_k is 1; columns run from the last, where kdl's rays keep their height 1
        if minor_gcd == 0:
            break
        divisors.append(minor_gcd // math.prod(divisors))
    return divisors + [0] * (min(nrows, ncols) - len(divisors))


def extends_to_basis(vectors: Iterable[IntVec]) -> bool:
    """True when the vectors generate a direct summand of the full lattice.

    Equivalently, all elementary divisors of the stacked matrix are 1, which
    is what it takes for the vectors to extend to a Z-basis; a True answer
    implies the vectors are primitive and linearly independent.  As many
    vectors as the rank extend to a basis exactly when their determinant is
    +1 or -1, which one Bareiss elimination of their entries decides; fewer
    take ``elementary_divisors``, the gcds of their minors.
    """
    vecs = list(vectors)
    if not vecs:
        return True
    rank = vecs[0].rank
    if any(v.rank != rank for v in vecs):
        raise RankMismatch("vectors must share one ambient rank")
    if len(vecs) > rank:
        raise RankMismatch(f"{len(vecs)} vectors cannot be independent in rank {rank}")
    rows = [v.entries for v in vecs]
    if len(vecs) == rank:
        return _bareiss_det(rows) in (1, -1)
    return all(d == 1 for d in elementary_divisors(rows))
