"""Simplicial cones and finite windows of the periodic smoothing fans.

Four fan families appear, each an infinite periodic fan presented by a
generator formula:

* ``MumfordNeron``      -- in Z^2, cones <(m,1), (m+1,1)>; smooths the nodal cubic.
* ``HopfSmoothing(e)``  -- in Z^3, cones <(m, e*binom2(m), 1), (m+1, e*binom2(m+1), 1)>.
* ``EllipticSmoothing`` -- in Z^3, cones <(0,n,1), (0,n+1,1)>.
* ``RationalSmoothing(e)`` -- in Z^4, cones spanned by two consecutive Hopf-type
  rays (last coordinate split) and two consecutive elliptic-type rays.

Here binom2(m) = m(m-1)/2 as a polynomial, valid for every integer m.  A ``FanWindow`` is a finite slice of such
a fan, built whole at its first read; ``kdl.smoothing.prove_row`` proves the verification claims for every index
in Z, and a window is checked only where it differs from the formula.

A fan kind declares everything the code below needs once: its JSON ``NAME``, its ``AMBIENT_RANK``, its index
``AXES`` (``("m",)``, ``("n",)`` or ``("m", "n")``) and, per axis, ``ray_coefficients`` c0, c1[, c2] of its ray
formula c0 + i*c1 + binom2(i)*c2, of degree at most 2 in the index i (a kind in e builds them at construction).
The cone at an index takes, along each axis, that axis's rays at i and i+1; ``cone_at``, ``deflection``,
``fan_window`` and ``window_payload`` are written once over the axes, so a new kind is one more class here.

A window's first lookup builds all its cones (``window_cones``): each axis's rays are evaluated once, into ordered
pairs of rays i and i+1 its cones share, and each cone is one record tagged with its kind and index (``formula``).
A ``Cone`` validates its rays by one basis-extension test, which also decides its smoothness; ``apply`` (one
arithmetic path) hands that on to images.  A window that departs from the formula costs one build per cone, plus
the checks at its departures and their neighbours.

Matrices act on row vectors from the right throughout.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, product, repeat
from operator import attrgetter, mul
from typing import Callable, ClassVar, Union

from .errors import ArityMismatch, DimMismatch
from .lattice import IntMatrix, IntVec, _new, _record, _setattr, extends_to_basis, is_unimodular, rank_of

_entries = attrgetter("entries")  # the lexicographic sort key of rays


@dataclass(frozen=True)
class MumfordNeron:
    """The rank-2 chain fan smoothing the Neron 1-gon."""

    NAME: ClassVar[str] = "mumford_neron"
    AXES: ClassVar[tuple[str, ...]] = ("m",)
    AMBIENT_RANK: ClassVar[int] = 2

    ray_coefficients: ClassVar[dict] = {"m": ((0, 1), (1, 0))}  # (m, 1)


@dataclass(frozen=True)
class HopfSmoothing:
    """The rank-3 chain fan whose central fibre is a degree-e C*-bundle over the infinity-gon."""

    e: int
    NAME: ClassVar[str] = "hopf_smoothing"
    AXES: ClassVar[tuple[str, ...]] = ("m",)
    AMBIENT_RANK: ClassVar[int] = 3

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("degree e must be a positive integer")
        vars(self)["ray_coefficients"] = {"m": ((0, 0, 1), (1, 0, 0), (0, self.e, 0))}  # (m, e*binom2(m), 1)


@dataclass(frozen=True)
class EllipticSmoothing:
    """The rank-3 chain fan whose central fibre is a product of the infinity-gon with C*."""

    NAME: ClassVar[str] = "elliptic_smoothing"
    AXES: ClassVar[tuple[str, ...]] = ("n",)
    AMBIENT_RANK: ClassVar[int] = 3

    ray_coefficients: ClassVar[dict] = {"n": ((0, 0, 1), (0, 1, 0))}  # (0, n, 1)


@dataclass(frozen=True)
class RationalSmoothing:
    """The rank-4 doubly periodic fan: a bundle of infinity-gons over the infinity-gon."""

    e: int
    NAME: ClassVar[str] = "rational_smoothing"
    AXES: ClassVar[tuple[str, ...]] = ("m", "n")
    AMBIENT_RANK: ClassVar[int] = 4

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("degree e must be a positive integer")
        vars(self)["ray_coefficients"] = {  # (m, e*binom2(m), 1, 0) and (0, n, 0, 1)
            "m": ((0, 0, 1, 0), (1, 0, 0, 0), (0, self.e, 0, 0)), "n": ((0, 0, 0, 1), (0, 1, 0, 0))}


FanKind = Union[MumfordNeron, HopfSmoothing, EllipticSmoothing, RationalSmoothing]


def axis_indices(kind: FanKind, index) -> tuple[int, ...]:
    """The per-axis integers of a cone index: a bare int on one axis, a tuple over ``AXES`` on more."""
    if len(kind.AXES) == 1:
        if isinstance(index, int):
            return (index,)
        raise ArityMismatch(f"{type(kind).__name__} indexes cones by a single integer")
    if isinstance(index, tuple) and len(index) == len(kind.AXES):
        return index
    raise ArityMismatch(f"{type(kind).__name__} indexes cones by a tuple ({', '.join(kind.AXES)})")


@dataclass(frozen=True)
class Cone:
    """A simplicial rational cone given by primitive, independent rays.

    The ray tuple is canonicalized to lexicographic order on construction, so equal cones compare equal.  After
    the per-ray primitivity check one basis-extension test of the rays both validates the cone and decides its
    smoothness: rays that extend to a lattice basis are independent, so their rank is computed only when the
    test fails.  ``smooth`` holds the answer, and ``formula`` a formula cone's (kind, per-axis index); neither is
    compared, hashed or shown.  A certified window cone and an ``apply`` image are one record, not validated.
    """

    rays: tuple[IntVec, ...]
    rank: int
    smooth: bool = field(init=False, compare=False, repr=False)
    formula: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rays", rays := tuple(sorted(self.rays, key=_entries)))
        if not rays:
            raise ValueError("a cone needs at least one ray")
        if any(v.rank != self.rank for v in rays):
            raise ValueError("all rays must live in the ambient lattice")
        if any(not v.is_primitive() for v in rays):
            raise ValueError("cone rays must be primitive")
        smooth = len(rays) <= self.rank and extends_to_basis(rays)
        if not smooth and rank_of([v.entries for v in rays]) != len(rays):
            raise ValueError("cone rays must be linearly independent")
        object.__setattr__(self, "smooth", smooth)


@dataclass(frozen=True)
class GroupElement:
    """A lattice automorphism together with bookkeeping torus labels.

    ``torus_part`` records one opaque parameter label per coordinate (such as
    "alpha" or "1"); labels are never evaluated.
    """

    lattice_part: IntMatrix
    torus_part: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "torus_part", tuple(str(s) for s in self.torus_part))
        if not is_unimodular(self.lattice_part):
            raise ValueError("lattice part must be unimodular")
        if len(self.torus_part) != self.lattice_part.dim:
            raise ValueError("one torus label per lattice coordinate")

    @classmethod
    def _trusted(cls, m: IntMatrix, labels: tuple[str, ...]) -> "GroupElement":
        """An element of a lattice part known unimodular and labels known to fit, stored as given."""
        return _record(cls, lattice_part=m, torus_part=labels)

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "GroupElement":
        return cls(m, ("1",) * m.dim)


def ray_formula(kind: FanKind, axis: str) -> Callable[[int], IntVec]:
    """Ray i of an axis as a function of i: c0 + i*c1 + binom2(i)*c2 for the axis's coefficients, as one record."""
    columns = tuple(zip(*(kind.ray_coefficients[axis] + ((0,) * kind.AMBIENT_RANK,) * 2)[:3]))

    def ray(i: int) -> IntVec:  # runs once per window ray, so it sets the record's field without _record's call
        k = i * (i - 1) // 2  # binom2(i)
        _setattr(v := _new(IntVec), "entries", tuple([a + i * b + k * c for a, b, c in columns]))
        return v

    return ray


def _pairs(rays: list[IntVec]) -> list[tuple[IntVec, IntVec]]:
    """Each two consecutive rays of a list, in lexicographic order."""
    return [(v, u) if v.entries <= u.entries else (u, v) for v, u in zip(rays, rays[1:])]


def _cone(kind: FanKind, at: tuple[int, ...], pairs, certified: bool = False) -> Cone:
    """The cone at per-axis integers ``at``, tagged ``formula`` (kind, at), of each axis a's rays i, i+1 in ``pairs[a]``
    (as ``_pairs`` orders them), sorted once on more axes: one record if ``certified``, else validated by ``Cone``."""
    rays = pairs[0] if len(pairs) == 1 else tuple(sorted(chain(*pairs), key=_entries))
    if certified:  # once per window cone, so it fills in the record without _record's call
        fields = vars(cone := _new(Cone))
        fields["rays"], fields["rank"], fields["smooth"], fields["formula"] = rays, kind.AMBIENT_RANK, True, (kind, at)
        return cone
    _setattr(cone := Cone(rays, kind.AMBIENT_RANK), "formula", (kind, at))  # validated; its sort keeps the order
    return cone


def cone_at(kind: FanKind, index) -> Cone:
    """The cone of the infinite fan at the given index, straight from the generator formula, validated once."""
    at, rays = axis_indices(kind, index), [ray_formula(kind, axis) for axis in kind.AXES]
    return _cone(kind, at, tuple([_pairs([ray(i), ray(i + 1)])[0] for ray, i in zip(rays, at)]))


def cone_is_smooth(c: Cone) -> bool:
    """Smoothness of the associated toric chart: the rays extend to a lattice basis.  ``Cone`` decides this once
    when it validates its rays, and ``apply`` carries it over to the image, so this reads the stored ``smooth``."""
    return c.smooth


def apply(g: GroupElement, c: Cone) -> Cone:
    """Image of a cone under the right action of g's lattice part, by one arithmetic path.

    A matrix of dimension rank+1 acts through the embedding of the ambient lattice as the first rank
    coordinates, and must preserve that sublattice.  Each image entry is ``sum(map(mul, v, col))`` over the matrix
    columns; ``map`` stops at the end of v, before an embedded column's padded 0, and the popped last entry must be 0.

    The image skips the ``Cone`` validation and takes the source cone's ``smooth``: ``GroupElement`` keeps its
    lattice part unimodular, and a unimodular map sends primitive, independent rays to primitive, independent
    rays, and rays that extend to a lattice basis to rays that do.  In the embedded case (v, 0) is primitive in
    Z^(rank+1), so is its image, and an image whose last coordinate is 0 is therefore primitive in Z^rank.
    Smoothness carries over too: rays v_i extend to a basis of Z^rank exactly when the (v_i, 0) extend to a
    basis of Z^(rank+1) (the quotient gains a free summand Z), which the map preserves.
    """
    m, rank = g.lattice_part, c.rank
    if len(m.cols) - rank not in (0, 1):
        raise DimMismatch(f"{m.dim}x{m.dim} matrix cannot act on cones of ambient rank {rank}")
    images = [[sum(map(mul, v.entries, col)) for col in m.cols] for v in c.rays]
    if len(m.cols) > rank and any([image.pop() for image in images]):
        raise DimMismatch("action does not preserve the embedded sublattice")
    images.sort()
    return _record(Cone, rays=tuple([_record(IntVec, entries=tuple(image)) for image in images]), rank=rank,
                   smooth=c.smooth, formula=None)


def share_facet(c1: Cone, c2: Cone) -> bool:
    """True when the common rays of two simplicial cones span a facet of both.

    For simplicial cones with as many rays as their dimension this means the
    cones are distinct and share all but one ray each.
    """
    if len(c1.rays) != len(c2.rays):
        return False
    shared = set(c1.rays) & set(c2.rays)
    return len(shared) == len(c1.rays) - 1


def deflection(kind: FanKind, index, direction: str | None = None) -> IntVec:
    """Second difference v_{i-1} + v_{i+1} - 2 v_i at the hinge ray of an index: the direction's c2 at
    every index, for rays c0 + i*c1 + binom2(i)*c2 (the ``ray_coefficients`` ``ray_formula`` evaluates).

    The hinge ray of index i is the ray shared by the cones at i-1 and i.  The
    result measures the C*-bundle degree of the central fibre over the polygon
    component attached to that hinge: e*(0,1,0) for HopfSmoothing, zero for
    MumfordNeron and EllipticSmoothing, e*(0,1,0,0) in the m-direction and
    zero in the n-direction for RationalSmoothing.  A kind with one axis takes
    no direction; a kind with several needs one of its ``AXES``.
    """
    if len(kind.AXES) == 1:
        if direction is not None:
            raise ArityMismatch(f"{type(kind).__name__} has a single index direction")
        direction = kind.AXES[0]
    elif direction not in kind.AXES:
        raise ArityMismatch(f"direction must be {' or '.join(map(repr, kind.AXES))} for {type(kind).__name__}")
    axis_indices(kind, index)  # an index of the wrong arity raises ArityMismatch
    zero = (0,) * kind.AMBIENT_RANK
    return _record(IntVec, entries=(*kind.ray_coefficients[direction], zero, zero)[2])


@dataclass(frozen=True)
class FanWindow:
    """A finite slice of one of the infinite fans.

    ``index_range`` holds one inclusive (lo, hi) interval per index axis;
    ``cones`` maps each index in the window to its cone, keyed by an int on
    one axis and by a tuple over the kind's ``AXES`` on more (``fan_window``
    builds them all at the first read).  ``indices()`` lists them sorted.
    """

    kind: FanKind
    index_range: tuple[tuple[int, int], ...]
    cones: Mapping

    def indices(self) -> list:
        return sorted(self.cones)


def window_cones(kind: FanKind, bound: int, certified: bool = False) -> dict:
    """Every cone with |index| <= bound on every axis, keyed and ordered as ``FanWindow.cones``, trusted if
    ``certified`` (``prove_row`` proved them smooth), else validated; each ray -bound..bound+1 evaluated once."""
    pairs = [_pairs(list(map(ray_formula(kind, axis), range(-bound, bound + 2)))) for axis in kind.AXES]
    ats = list(product(span := range(-bound, bound + 1), repeat=len(pairs)))
    cones = map(_cone, repeat(kind), ats, product(*pairs), repeat(certified))
    return dict(zip(span if len(pairs) == 1 else ats, cones))


class _FormulaCones(Mapping):
    """``fan_window``'s cones: ``len`` and iteration (in sorted order) are arithmetic in the bound and
    build nothing; the first lookup builds the whole window through ``window_cones`` and keeps it as ``cones``.
    It finds, compares, prints, pickles and copies as that dict does; ``formula`` is (kind, index range)."""

    cones = cached_property(lambda self: window_cones(self.kind, self.bound, self.certified))

    def __init__(self, kind: FanKind, bound: int, certified: bool):
        self.kind, self.bound, self.certified = kind, bound, certified
        self.formula = (kind, ((-bound, bound),) * len(kind.AXES))

    def __getitem__(self, index) -> Cone:
        return self.cones[index]

    def __iter__(self):
        span = range(-self.bound, self.bound + 1)
        return iter(span) if len(self.kind.AXES) == 1 else product(span, repeat=len(self.kind.AXES))

    def __len__(self) -> int:
        return (2 * self.bound + 1) ** len(self.kind.AXES)

    def __repr__(self) -> str:
        return repr(self.cones)


def fan_window(kind: FanKind, bound: int = 16, certified: bool = False) -> FanWindow:
    """The window of all cone indices with |index| <= bound on every axis.

    Its cones are built by ``window_cones`` at the first lookup, all at once, trusted if
    ``certified``; ``len`` and iteration build none.
    """
    if bound < 1:
        raise ValueError("window bound must be at least 1")
    cones = _FormulaCones(kind, bound, certified)
    return _record(FanWindow, kind=kind, index_range=cones.formula[1], cones=cones)


def window_payload(window: FanWindow) -> dict:
    """JSON-ready document for a fan window, with byte-stable ordering."""
    cones = [
        {"index": list(i) if isinstance(i, tuple) else i, "rays": [list(v.entries) for v in window.cones[i].rays]}
        for i in window.indices()
    ]
    return {
        "kind": window.kind.NAME,
        "params": asdict(window.kind),
        "range": {name: list(span) for name, span in zip(window.kind.AXES, window.index_range)},
        "cones": cones,
    }
