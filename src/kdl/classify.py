"""Classification of the three degeneration types from discrete data.

A degeneration is described by one of three data records, according to the
normalization of the singular surface:

* ``HopfDatum``          -- nonalgebraic normalization.  The fundamental group
  is Z + Z/nZ; n1, n2 are the residues of the two primitive n-th roots of
  unity in the torsion generator, and b is the residue twisting the second
  elliptic curve against the first.
* ``EllipticRuledDatum`` -- P^1-bundle over an elliptic curve, glued along two
  disjoint sections by a finite-order (or infinite-order, w = 0) translation.
* ``RationalDatum``      -- blown-up Hirzebruch surface glued along a 6-gon.

For each type the module decides admissibility (trivial canonical class),
d-semistability, the invariants degree e and warp w, and produces the
published cohomology/tangent dimensions, the smoothing verdict, and the shape
of the versal deformation base.

Warp convention: order 0 encodes an infinite-order gluing, and plain integer
divisibility with "0 divides only 0" then states every d-semistability
criterion uniformly.  Continuous parameters (alpha, j, specific roots of
unity) are carried as opaque labels and never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import InconsistentData, NotDivisible, NotSL2
from .lattice import IntMatrix, det, mod_inverse

HOPF = "hopf"
ELLIPTIC_RULED = "elliptic_ruled"
RATIONAL = "rational"

SURFACE_TYPES = (HOPF, ELLIPTIC_RULED, RATIONAL)


def _check_type(surface_type: str) -> None:
    if surface_type not in SURFACE_TYPES:
        raise ValueError(f"unknown surface type {surface_type!r}")


@dataclass(frozen=True, slots=True)
class GluingMatrix:
    """Integer 2x2 matrix recording how the gluing homothety maps one period
    lattice onto the other; admissible gluings have a = d = 1, c = 0."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True, slots=True)
class HopfDatum:
    """Discrete data of a degeneration with nonalgebraic normalization."""

    n: int
    n1: int
    n2: int
    b: int
    alpha_label: str = "alpha"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torsion order n must be positive")
        if self.n > 1 and not (
            0 <= self.n1 < self.n and 0 <= self.n2 < self.n and 0 <= self.b < self.n
        ):
            raise ValueError("n1, n2, b must be residues in [0, n)")


@dataclass(frozen=True, slots=True)
class EllipticRuledDatum:
    """Discrete data of a degeneration with elliptic ruled normalization.

    e is minus the minimal section self-intersection; w the order of the
    gluing translation (0 for infinite order); ``translation`` records whether
    the gluing automorphism is a translation at all.
    """

    e: int
    w: int
    translation: bool
    j_label: str = "j"

    def __post_init__(self):
        if self.e < 0 or self.w < 0:
            raise ValueError("degree and warp must be nonnegative")


@dataclass(frozen=True, slots=True)
class RationalDatum:
    """Discrete data of a degeneration with rational normalization.

    e is the Hirzebruch degree; w the order of the vertical gluing parameter
    (0 for infinite order); ``untwisted`` records the gluing pattern of the
    6-gon onto the triple-line curve.
    """

    e: int
    w: int
    untwisted: bool
    horizontal_labels: tuple[str, str] = ("h1", "h2")

    def __post_init__(self):
        object.__setattr__(self, "horizontal_labels", tuple(self.horizontal_labels))
        if self.e < 0 or self.w < 0:
            raise ValueError("degree and warp must be nonnegative")
        if len(self.horizontal_labels) != 2:
            raise ValueError("exactly two horizontal gluing labels")


SurfaceDatum = Union[HopfDatum, EllipticRuledDatum, RationalDatum]


@dataclass(frozen=True, slots=True)
class Verdict:
    """Smoothing outcome: KodairaSurface(d), ComplexTorus, or NoSmoothing."""

    kind: str
    degree: int | None = None

    def __str__(self) -> str:
        if self.kind == "KodairaSurface":
            return f"KodairaSurface({self.degree})"
        return self.kind

    @classmethod
    def kodaira_surface(cls, degree: int) -> "Verdict":
        return cls("KodairaSurface", degree)

    @classmethod
    def complex_torus(cls) -> "Verdict":
        return cls("ComplexTorus")

    @classmethod
    def no_smoothing(cls) -> "Verdict":
        return cls("NoSmoothing")


@dataclass(frozen=True, slots=True)
class TangentDims:
    t0: int
    t1: int
    t2: int


@dataclass(frozen=True, slots=True)
class TangentUnavailable:
    """No published tangent triple; only the embedding dimension of the versal
    base (= dim T^1) is known."""

    dim_t1: int = 4


@dataclass(frozen=True, slots=True)
class SmoothBaseWithCurve:
    dim_base: int = 2
    dim_locally_trivial: int = 1


@dataclass(frozen=True, slots=True)
class TwoSmoothSurfaces:
    dim_v1: int = 2
    dim_v2: int = 2
    dim_intersection: int = 1


@dataclass(frozen=True, slots=True)
class SmoothFourfold:
    dim_base: int = 4
    dim_locally_trivial: int = 3


VersalDescriptor = Union[SmoothBaseWithCurve, TwoSmoothSurfaces, SmoothFourfold]


@dataclass(frozen=True, slots=True)
class SurfaceClass:
    """Full classification output for one surface datum.

    When the surface is not admissible (nontrivial canonical class) the
    cohomology, tangent and versal fields are None: the published dimension
    tables are proved only under K = 0.
    """

    surface_type: str
    admissible: bool
    d_semistable: bool
    degree: int
    warp: int
    verdict: Verdict
    cohomology: tuple[int, int, int] | None
    tangent: TangentDims | TangentUnavailable | None
    versal: VersalDescriptor | None


def hopf_kx_zero(m: GluingMatrix) -> bool:
    """Whether the glued surface has trivial canonical class: a = d = 1, c = 0.

    Equivalently the composite lattice map with matrix entries (1-d, c)
    vanishes.  Raises NotSL2 when the matrix is not in SL2(Z).
    """
    if m.det() != 1:
        raise NotSL2(f"gluing matrix has determinant {m.det()}, expected 1")
    return m.a == 1 and m.d == 1 and m.c == 0


def hopf_dsemistable(h: HopfDatum) -> bool:
    """d-semistability congruences: (n1-n2)^2 = 0 and b(n1-n2) = 0 in Z/n."""
    d = h.n1 - h.n2
    return d * d % h.n == 0 and h.b * d % h.n == 0


def hopf_dsemistable_oracle(h: HopfDatum) -> bool:
    """Independent d-semistability test via the lifted gluing homomorphism.

    With m_i the inverse of n_i mod n, triviality of the first-order
    deformation sheaf amounts to m2*n1 + m1*n2 = 2 and b*m1*n2 = b in Z/n
    (linearity of the lift up to an integral homomorphism, after substituting
    the twisted period).  Agrees with hopf_dsemistable everywhere; the two
    sides are kept separate as a machine check.
    """
    n = h.n
    m1 = mod_inverse(h.n1, n)
    m2 = mod_inverse(h.n2, n)
    return (m2 * h.n1 + m1 * h.n2 - 2) % n == 0 and (h.b * m1 * h.n2 - h.b) % n == 0


def hopf_invariants(h: HopfDatum) -> tuple[int, int]:
    """Degree and warp: e = gcd(n, n1-n2), w = n / gcd(n, n1-n2, b).

    e is the torsion order of the fundamental group of the covering bundle,
    w the order of its cyclic Galois group.
    """
    e = math.gcd(h.n, h.n1 - h.n2)
    w = h.n // math.gcd(h.n, h.n1 - h.n2, h.b)
    return e, w


def ruled_dsemistable(e: int, w: int) -> bool:
    """Divisibility criterion w | e, with w = 0 dividing only e = 0."""
    if w == 0:
        return e == 0
    return e % w == 0


def cohomology_table(surface_type: str, e: int) -> tuple[int, int, int]:
    """Dimensions (h0, h1, h2) of the cohomology of the tangent sheaf."""
    _check_type(surface_type)
    if surface_type == HOPF:
        return (1, 1, 0)
    if surface_type == ELLIPTIC_RULED:
        return (1, 2, 1) if e > 0 else (2, 3, 1)
    return (1, 2, 0) if e > 0 else (2, 3, 0)


def tangent_table(surface_type: str, e: int) -> TangentDims | TangentUnavailable:
    """Published tangent-cohomology dimensions (T0, T1, T2).

    For degree 0 in the ruled cases only dim T^1 = 4 is known (the versal base
    is a smooth 4-fold); that is reported as TangentUnavailable metadata
    rather than an invented triple.
    """
    _check_type(surface_type)
    if surface_type == HOPF:
        return TangentDims(1, 2, 1)
    if e > 0:
        return TangentDims(1, 3, 2)
    return TangentUnavailable(dim_t1=4)


def smoothing_verdict(surface_type: str, e: int, w: int, d_semistable: bool) -> Verdict:
    """What the surface deforms to: a Kodaira surface of degree e/w, a complex
    torus (degree 0; never a Kodaira surface), or nothing smooth."""
    _check_type(surface_type)
    if not d_semistable:
        return Verdict.no_smoothing()
    if e == 0:
        return Verdict.complex_torus()
    if w < 1 or e % w != 0:
        raise InconsistentData(f"d-semistable claimed but warp {w} does not divide degree {e}")
    return Verdict.kodaira_surface(e // w)


def versal_descriptor(surface_type: str, e: int) -> VersalDescriptor:
    """Shape of the base of the semiuniversal deformation."""
    _check_type(surface_type)
    if surface_type == HOPF:
        return SmoothBaseWithCurve()
    if e > 0:
        return TwoSmoothSurfaces()
    return SmoothFourfold()


def commutator_scale(m: IntMatrix) -> int:
    """det of a 2x2 basis-change matrix; scales the commutator generator, so a
    degree computed in an index-w sublattice multiplies by this factor."""
    if m.dim != 2:
        raise ValueError("commutator scaling applies to 2x2 matrices")
    return det(m)


def quotient_degree(d: int, w: int) -> int:
    """Degree of the quotient bundle by a free action of order w: d / w."""
    if d < 1 or w < 1:
        raise ValueError("degree and group order must be positive")
    if d % w != 0:
        raise NotDivisible(f"group order {w} does not divide degree {d}")
    return d // w


def classify(datum: SurfaceDatum, matrix: GluingMatrix | None = None) -> SurfaceClass:
    """Full classification of one surface datum.

    For a HopfDatum the admissibility matrix defaults to (a,b,c,d) =
    (1, datum.b, 0, 1), the only shape compatible with an identity homothety.
    Non-Hopf data take no matrix.
    """
    if isinstance(datum, HopfDatum):
        mat = matrix if matrix is not None else GluingMatrix(1, datum.b, 0, 1)
        admissible = hopf_kx_zero(mat)
        e, w = hopf_invariants(datum)
        d_semistable = admissible and hopf_dsemistable(datum)
        surface_type = HOPF
    elif isinstance(datum, EllipticRuledDatum):
        if matrix is not None:
            raise ValueError("gluing matrices apply only to Hopf data")
        admissible = datum.translation
        e, w = datum.e, datum.w
        d_semistable = admissible and ruled_dsemistable(e, w)
        surface_type = ELLIPTIC_RULED
    elif isinstance(datum, RationalDatum):
        if matrix is not None:
            raise ValueError("gluing matrices apply only to Hopf data")
        admissible = datum.untwisted
        e, w = datum.e, datum.w
        d_semistable = admissible and ruled_dsemistable(e, w)
        surface_type = RATIONAL
    else:
        raise TypeError(f"not a surface datum: {type(datum).__name__}")

    return SurfaceClass(
        surface_type=surface_type,
        admissible=admissible,
        d_semistable=d_semistable,
        degree=e,
        warp=w,
        verdict=smoothing_verdict(surface_type, e, w, d_semistable),
        cohomology=cohomology_table(surface_type, e) if admissible else None,
        tangent=tangent_table(surface_type, e) if admissible else None,
        versal=versal_descriptor(surface_type, e) if admissible else None,
    )


# Canonical JSON encodings (stable field order throughout).


def _tangent_payload(tangent) -> dict | None:
    if tangent is None:
        return None
    if isinstance(tangent, TangentDims):
        return {"T0": tangent.t0, "T1": tangent.t1, "T2": tangent.t2}
    return {"unavailable": True, "dimT1": tangent.dim_t1}


def _versal_payload(versal) -> dict | None:
    if versal is None:
        return None
    if isinstance(versal, SmoothBaseWithCurve):
        return {
            "shape": "SmoothBaseWithCurve",
            "dimV": versal.dim_base,
            "dimLocTriv": versal.dim_locally_trivial,
        }
    if isinstance(versal, TwoSmoothSurfaces):
        return {
            "shape": "TwoSmoothSurfaces",
            "dimV1": versal.dim_v1,
            "dimV2": versal.dim_v2,
            "dimIntersection": versal.dim_intersection,
        }
    return {
        "shape": "SmoothFourfold",
        "dimV": versal.dim_base,
        "dimLocTriv": versal.dim_locally_trivial,
    }


CRITERIA = {
    HOPF: {
        "admissibility": "gluing matrix has a = d = 1 and c = 0 (identity homothety)",
        "d_semistability": "(n1-n2)^2 = 0 and b*(n1-n2) = 0 in Z/n",
    },
    ELLIPTIC_RULED: {
        "admissibility": "the gluing automorphism of the base is a translation",
        "d_semistability": "warp divides degree (0 divides only 0)",
    },
    RATIONAL: {
        "admissibility": "the 6-gon gluing is untwisted",
        "d_semistability": "warp divides degree (0 divides only 0)",
    },
}


def surface_class_payload(sc: SurfaceClass) -> dict:
    """JSON-ready encoding of a SurfaceClass with stable field order."""
    return {
        "type": sc.surface_type,
        "admissible": sc.admissible,
        "d_semistable": sc.d_semistable,
        "degree": sc.degree,
        "warp": sc.warp,
        "verdict": str(sc.verdict),
        "cohomology": None
        if sc.cohomology is None
        else {"h0": sc.cohomology[0], "h1": sc.cohomology[1], "h2": sc.cohomology[2]},
        "tangent": _tangent_payload(sc.tangent),
        "versal": _versal_payload(sc.versal),
        "criteria": CRITERIA[sc.surface_type],
    }

