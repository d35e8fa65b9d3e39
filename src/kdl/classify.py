"""Classification of the three degeneration types from discrete data.

A degeneration is described by one of three data records, according to the
normalization of the singular surface:

* ``HopfDatum``          -- nonalgebraic normalization.  The fundamental group
  is Z + Z/nZ; n1, n2 are the residues of the two primitive n-th roots of
  unity in the torsion generator, so units mod n, and b is the residue
  twisting the second elliptic curve against the first.
* ``EllipticRuledDatum`` -- P^1-bundle over an elliptic curve, glued along two
  disjoint sections by a finite-order (or infinite-order, w = 0) translation.
* ``RationalDatum``      -- blown-up Hirzebruch surface glued along a 6-gon.

For each type the module decides admissibility (trivial canonical class),
d-semistability, the invariants degree e and warp w, and produces the
published cohomology/tangent dimensions, the smoothing verdict, and the shape
of the versal deformation base.

``TYPES`` is the one place per-type data lives: one ``TypeSpec`` row per type holds
its datum class, input names, decision rule, published tables, criteria text,
boundary parameter space, smoothing family and that family's expected deflection;
this module, ``kdl.cli``, ``kdl.boundary`` and ``kdl.smoothing`` read that row.

Every record here is a tuple subclass with named read-only fields: a
``namedtuple`` base gives the fields and the ``Name(field=value, ...)`` repr,
and the record is built by one ``tuple.__new__`` call, after its validation
where it has one (the three data records).  A record cannot be changed after
it is built.  ``_Record`` (``kdl.lattice``, the base of every module's
tuple-built records) makes equality and hashing depend on the type, and
``_replace`` validate like the constructor.

Warp convention: ``quotient_degree`` alone states the warp rule (w >= 1 and
w | e) and e/w, and ``ruled_dsemistable`` adds only that order 0, which encodes
an infinite-order gluing, divides only 0.  Continuous parameters (alpha, j,
specific roots of unity) are carried as opaque labels and never evaluated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import product, repeat
from typing import Union

from .errors import NotDivisible, NotSL2
from .lattice import _Record, mod_inverse

HOPF = "hopf"
ELLIPTIC_RULED = "elliptic_ruled"
RATIONAL = "rational"


class GluingMatrix(_Record, namedtuple("GluingMatrix", "a b c d")):
    """Integer 2x2 matrix recording how the gluing homothety maps one period
    lattice onto the other; admissible gluings have a = d = 1, c = 0."""

    __slots__ = ()

    def det(self) -> int:
        return self.a * self.d - self.b * self.c


class HopfDatum(_Record, namedtuple("HopfDatum", "n n1 n2 b alpha_label")):
    """Discrete data of a degeneration with nonalgebraic normalization.  Checked in order: n >= 1,
    n1, n2, b in [0, n), and n1, n2 units mod n (residues of primitive n-th roots of unity)."""

    __slots__ = ()

    def __new__(cls, n: int, n1: int, n2: int, b: int, alpha_label: str = "alpha"):
        if n < 1:
            raise ValueError("torsion order n must be positive")
        if not (0 <= n1 < n and 0 <= n2 < n and 0 <= b < n):
            raise ValueError("n1, n2, b must be residues in [0, n)")
        if math.gcd(n1 * n2, n) != 1:
            raise ValueError("n1 and n2 must be units modulo n")
        return tuple.__new__(cls, (n, n1, n2, b, alpha_label))


def _hopf_data(n: int) -> Iterator[HopfDatum]:
    """Every HopfDatum of torsion order n in (n1, n2, b) order, valid by construction and so built unchecked."""
    units = [a for a in range(n) if math.gcd(a, n) == 1]
    return map(tuple.__new__, repeat(HopfDatum), product((n,), units, units, range(n), ("alpha",)))


class EllipticRuledDatum(_Record, namedtuple("EllipticRuledDatum", "e w translation j_label")):
    """Discrete data of a degeneration with elliptic ruled normalization.

    e is minus the minimal section self-intersection; w the order of the
    gluing translation (0 for infinite order); ``translation`` records whether
    the gluing automorphism is a translation at all.
    """

    __slots__ = ()

    def __new__(cls, e: int, w: int, translation: bool, j_label: str = "j"):
        if e < 0 or w < 0:
            raise ValueError("degree and warp must be nonnegative")
        return tuple.__new__(cls, (e, w, translation, j_label))


class RationalDatum(_Record, namedtuple("RationalDatum", "e w untwisted horizontal_labels")):
    """Discrete data of a degeneration with rational normalization.

    e is the Hirzebruch degree; w the order of the vertical gluing parameter
    (0 for infinite order); ``untwisted`` records the gluing pattern of the
    6-gon onto the triple-line curve.
    """

    __slots__ = ()

    def __new__(cls, e: int, w: int, untwisted: bool, horizontal_labels: tuple[str, str] = ("h1", "h2")):
        horizontal_labels = tuple(horizontal_labels)
        if e < 0 or w < 0:
            raise ValueError("degree and warp must be nonnegative")
        if len(horizontal_labels) != 2:
            raise ValueError("exactly two horizontal gluing labels")
        return tuple.__new__(cls, (e, w, untwisted, horizontal_labels))


SurfaceDatum = Union[HopfDatum, EllipticRuledDatum, RationalDatum]


class Verdict(_Record, namedtuple("Verdict", "kind degree", defaults=(None,))):
    """Smoothing outcome: KodairaSurface(d), ComplexTorus, or NoSmoothing."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "KodairaSurface":
            return f"KodairaSurface({self.degree})"
        return self.kind

    @classmethod
    def kodaira_surface(cls, degree: int) -> "Verdict":
        return tuple.__new__(cls, ("KodairaSurface", degree))

    @staticmethod
    def complex_torus() -> "Verdict":
        return _COMPLEX_TORUS

    @staticmethod
    def no_smoothing() -> "Verdict":
        return _NO_SMOOTHING


_COMPLEX_TORUS = Verdict("ComplexTorus")
_NO_SMOOTHING = Verdict("NoSmoothing")


class TangentDims(_Record, namedtuple("TangentDims", "t0 t1 t2")):
    __slots__ = ()

    def payload(self) -> dict:
        return {"T0": self.t0, "T1": self.t1, "T2": self.t2}


class TangentUnavailable(_Record, namedtuple("TangentUnavailable", "dim_t1", defaults=(4,))):
    """No published tangent triple; only the embedding dimension of the versal
    base (= dim T^1) is known."""

    __slots__ = ()

    def payload(self) -> dict:
        return {"unavailable": True, "dimT1": self.dim_t1}


class SmoothBaseWithCurve(_Record, namedtuple("SmoothBaseWithCurve", "dim_base dim_locally_trivial", defaults=(2, 1))):
    __slots__ = ()

    def payload(self) -> dict:
        return {"shape": "SmoothBaseWithCurve", "dimV": self.dim_base, "dimLocTriv": self.dim_locally_trivial}


class TwoSmoothSurfaces(
    _Record, namedtuple("TwoSmoothSurfaces", "dim_v1 dim_v2 dim_intersection", defaults=(2, 2, 1))
):
    __slots__ = ()

    def payload(self) -> dict:
        return {
            "shape": "TwoSmoothSurfaces",
            "dimV1": self.dim_v1,
            "dimV2": self.dim_v2,
            "dimIntersection": self.dim_intersection,
        }


class SmoothFourfold(_Record, namedtuple("SmoothFourfold", "dim_base dim_locally_trivial", defaults=(4, 3))):
    __slots__ = ()

    def payload(self) -> dict:
        return {"shape": "SmoothFourfold", "dimV": self.dim_base, "dimLocTriv": self.dim_locally_trivial}


VersalDescriptor = Union[SmoothBaseWithCurve, TwoSmoothSurfaces, SmoothFourfold]


class SurfaceClass(
    _Record,
    namedtuple(
        "SurfaceClass", "surface_type admissible d_semistable degree warp verdict cohomology tangent versal"
    ),
):
    """Full classification output for one surface datum.

    When the surface is not admissible (nontrivial canonical class) the
    cohomology, tangent and versal fields are None: the published dimension
    tables are proved only under K = 0.
    """

    __slots__ = ()


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
    n, d = h.n, h.n1 - h.n2
    return d * d % n == 0 and h.b * d % n == 0


def hopf_dsemistable_oracle(h: HopfDatum) -> bool:
    """Independent d-semistability test via the lifted gluing homomorphism.

    With m_i the inverse of n_i mod n (m1 = n2*u, m2 = n1*u for u the inverse
    of n1*n2), triviality of the first-order deformation sheaf amounts to
    m2*n1 + m1*n2 = 2 and b*m1*n2 = b in Z/n (linearity of the lift up to an integral
    homomorphism, after substituting the twisted period).  Agrees with hopf_dsemistable
    everywhere; the two sides are kept separate as a machine check.
    """
    n, n1, n2, b = h.n, h.n1, h.n2, h.b
    u = mod_inverse(n1 * n2, n)
    m1, m2 = n2 * u, n1 * u
    return (m2 * n1 + m1 * n2 - 2) % n == 0 and (b * m1 * n2 - b) % n == 0


def hopf_invariants(h: HopfDatum) -> tuple[int, int]:
    """Degree and warp: e = gcd(n, n1-n2), w = n / gcd(n, n1-n2, b).

    e is the torsion order of the fundamental group of the covering bundle,
    w the order of its cyclic Galois group.
    """
    n, d = h.n, h.n1 - h.n2
    return math.gcd(n, d), n // math.gcd(n, d, h.b)


def quotient_degree(e: int, w: int) -> int:
    """The warp rule and e/w: a warp w >= 1 dividing e gives e/w, the generic fibre degree of the
    warp-w quotient, which a d-semistable degeneration smooths to.  Any other warp raises NotDivisible."""
    if w < 1 or e % w:
        raise NotDivisible(f"warp {w} must be a positive divisor of degree {e}")
    return e // w


def ruled_dsemistable(e: int, w: int) -> bool:
    """The warp rule of ``quotient_degree``, with w = 0 (infinite order) dividing only e = 0."""
    if w == 0:
        return e == 0
    try:
        quotient_degree(e, w)
    except NotDivisible:
        return False
    return True


def smoothing_verdict(e: int, w: int, d_semistable: bool) -> Verdict:
    """What the surface deforms to: a Kodaira surface of degree ``quotient_degree(e, w)``,
    a complex torus (degree 0, at a warp ``ruled_dsemistable`` admits; never a Kodaira surface), or nothing smooth."""
    if not d_semistable:
        return Verdict.no_smoothing()
    if e == 0 and ruled_dsemistable(e, w):
        return Verdict.complex_torus()
    return Verdict.kodaira_surface(quotient_degree(e, w))


def _decide_hopf(h: HopfDatum, matrix: GluingMatrix | None) -> tuple[bool, bool, int, int]:
    # The default matrix (1, b, 0, 1) is in SL2 with a = d = 1 and c = 0.
    admissible = matrix is None or hopf_kx_zero(matrix)
    e, w = hopf_invariants(h)
    return admissible, admissible and hopf_dsemistable(h), e, w


def _decide_ruled(admissible: bool, e: int, w: int, matrix: GluingMatrix | None) -> tuple[bool, bool, int, int]:
    if matrix is not None:
        raise ValueError("gluing matrices apply only to Hopf data")
    return admissible, admissible and ruled_dsemistable(e, w), e, w


class Tables(_Record, namedtuple("Tables", "cohomology tangent versal")):
    """The published tables of one type at one sign of the degree: the
    cohomology triple, a tangent record and a versal record."""

    __slots__ = ()


class TypeSpec(
    _Record, namedtuple("TypeSpec", "datum names decide positive zero criteria param_space family deflections")
):
    """Everything one normalization type adds to the classification.

    ``datum`` is the type's data record and ``names`` select the type on input.  ``decide`` maps a datum
    and an optional gluing matrix to (admissible, d_semistable, e, w).  ``positive`` and ``zero`` hold the
    ``Tables`` for e > 0 and e = 0; ``criteria`` is the text of the type's two criteria and ``param_space``
    that of its boundary stratum.  ``family`` names its smoothing family, a ``kdl.smoothing.FAMILIES`` key,
    and ``deflections`` maps e to that fan's expected deflection, a tuple of ints per axis: the degree of
    the central fibre's C*-bundle over each hinge, which ``kdl.smoothing.verify_family`` checks.
    """

    __slots__ = ()


TYPES = {
    HOPF: TypeSpec(
        datum=HopfDatum,
        names=("hopf",),
        decide=_decide_hopf,
        positive=Tables((1, 1, 0), TangentDims(1, 2, 1), SmoothBaseWithCurve()),
        zero=Tables((1, 1, 0), TangentDims(1, 2, 1), SmoothBaseWithCurve()),
        criteria={
            "admissibility": "gluing matrix has a = d = 1 and c = 0 (identity homothety)",
            "d_semistability": "(n1-n2)^2 = 0 and b*(n1-n2) = 0 in Z/n",
        },
        param_space="PuncturedDisk",
        family="hopf",
        deflections=lambda e: ((0, e, 0),),
    ),
    ELLIPTIC_RULED: TypeSpec(
        datum=EllipticRuledDatum,
        names=("elliptic", "elliptic_ruled"),
        decide=lambda d, matrix: _decide_ruled(d.translation, d.e, d.w, matrix),
        positive=Tables((1, 2, 1), TangentDims(1, 3, 2), TwoSmoothSurfaces()),
        zero=Tables((2, 3, 1), TangentUnavailable(dim_t1=4), SmoothFourfold()),
        criteria={
            "admissibility": "the gluing automorphism of the base is a translation",
            "d_semistability": "warp divides degree (0 divides only 0)",
        },
        param_space="ComplexLine",
        family="elliptic",
        deflections=lambda e: ((0, 0, 0),),
    ),
    RATIONAL: TypeSpec(
        datum=RationalDatum,
        names=("rational",),
        decide=lambda d, matrix: _decide_ruled(d.untwisted, d.e, d.w, matrix),
        positive=Tables((1, 2, 0), TangentDims(1, 3, 2), TwoSmoothSurfaces()),
        zero=Tables((2, 3, 0), TangentUnavailable(dim_t1=4), SmoothFourfold()),
        criteria={
            "admissibility": "the 6-gon gluing is untwisted",
            "d_semistability": "warp divides degree (0 divides only 0)",
        },
        param_space="CStar",
        family="rational",
        deflections=lambda e: ((0, e, 0, 0), (0, 0, 0, 0)),
    ),
}

# Every input name of a type, in table order, mapped to the type's key.
TYPE_NAMES = {name: key for key, spec in TYPES.items() for name in spec.names}
_TYPE_OF_DATUM = {spec.datum: key for key, spec in TYPES.items()}
_NO_TABLES = (None, None, None)


def _tables(surface_type: str, e: int) -> Tables:
    spec = TYPES.get(surface_type) if isinstance(surface_type, str) else None
    if spec is None:
        raise ValueError(f"unknown surface type {surface_type!r}")
    return spec.positive if e > 0 else spec.zero


def cohomology_table(surface_type: str, e: int) -> tuple[int, int, int]:
    """Dimensions (h0, h1, h2) of the cohomology of the tangent sheaf."""
    return _tables(surface_type, e).cohomology


def tangent_table(surface_type: str, e: int) -> TangentDims | TangentUnavailable:
    """Published tangent-cohomology dimensions (T0, T1, T2).

    For degree 0 in the ruled cases only dim T^1 = 4 is known (the versal base
    is a smooth 4-fold); that is reported as TangentUnavailable metadata
    rather than an invented triple.
    """
    return _tables(surface_type, e).tangent


def versal_descriptor(surface_type: str, e: int) -> VersalDescriptor:
    """Shape of the base of the semiuniversal deformation."""
    return _tables(surface_type, e).versal


def classify(datum: SurfaceDatum, matrix: GluingMatrix | None = None) -> SurfaceClass:
    """Full classification of one surface datum.

    For a HopfDatum the admissibility matrix defaults to (a,b,c,d) =
    (1, datum.b, 0, 1), the only shape compatible with an identity homothety.
    Non-Hopf data take no matrix.
    """
    surface_type = _TYPE_OF_DATUM.get(type(datum))
    if surface_type is None:
        raise TypeError(f"not a surface datum: {type(datum).__name__}")
    spec = TYPES[surface_type]
    admissible, d_semistable, e, w = spec.decide(datum, matrix)
    tables = (spec.positive if e > 0 else spec.zero) if admissible else _NO_TABLES
    verdict = smoothing_verdict(e, w, d_semistable)
    # A Tables record holds the last three fields of a SurfaceClass, in order.
    return tuple.__new__(SurfaceClass, (surface_type, admissible, d_semistable, e, w, verdict, *tables))


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
        "tangent": None if sc.tangent is None else sc.tangent.payload(),
        "versal": None if sc.versal is None else sc.versal.payload(),
        "criteria": TYPES[sc.surface_type].criteria.copy(),
    }
