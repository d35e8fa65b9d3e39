"""Construction and verification of the toric smoothing families.

Each degeneration type comes with a one- or two-parameter family presented by
an infinite periodic fan plus a group of lattice/torus automorphisms:

* mumford  -- the rank-2 chain fan with the unipotent shift; the quotient
  smooths the nodal cubic (the base case every other family fibers over).
* hopf     -- the rank-3 chain fan with ray heights growing like e*binom2(m);
  shift generator in SL3(Z), fibre gluing a pure torus translation.
* elliptic -- the flat rank-3 chain fan; shift in SL3(Z), base translation a
  torus generator whose lattice part fixes the fan.
* rational -- the rank-4 doubly periodic fan regarded inside Z^5 (the extra
  coordinate is a horizontal gluing parameter); commuting shift generators in
  SL5(Z).

``verify_family`` runs every fan-level claim over the family's window:
smoothness of all cones, facet adjacency, index shifts, deflection values,
special-linearity and commutation of the generators, and a combinatorial
freeness proxy.  Each claim is one public ``check_*`` function that returns
its first counterexample, or None, and ``verify_family`` is the ordered list
of report names and check calls.  Analytic facts with no finite certificate
in the fan data are listed as untested metadata, never silently assumed.
``prove_row``, the only proof, holds every claim but the deflection (which one
index decides) at every index in Z and (e, w) of a row.  A proved row's family
builds its window's cones unvalidated, and ``verify_family`` checks it only
where a departure from the formula touches it: per-cone claims at departed
cones, pair claims on pairs with a departed end; any other family, a replaced
or hand-made one too, is walked in full.  Passing results are shared records.

The freeness proxy asks whether a power g^k (k >= 1) of a shift fixes a cone.
For a unipotent g, g^k fixing a cone permutes its rays, so a power of g fixes
each ray v; unipotence then gives v(g - I) = 0, so g fixes the cone already.
Every shift in ``FAMILIES`` is unipotent, so one power decides the check.

``FAMILIES`` is the one place per-family data lives: one ``FamilySpec`` row per family holds its minimum
degree, fan kind, generators as data (each lattice part as written in the paper, its entries ints or the
parameter names "e" and "e/w"), parameter labels and untested notes; its type states its expected deflection.
``build_family`` and ``verify_family`` read that row and derive everything else from the kind's ``AXES``;
a row derives its generator template once, and the records they build from fields already checked (the
family, its window, parameters and quotient, each check result, the report) skip ``__init__`` (``_record``).
Adding a family takes one fan kind in ``kdl.fans`` (its ``AXES`` and the ``ray_coefficients`` of each
axis) and one row here, with one shift generator per axis listed first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .classify import TYPES, quotient_degree
from .fans import (
    EllipticSmoothing,
    FanKind,
    FanWindow,
    GroupElement,
    HopfSmoothing,
    MumfordNeron,
    RationalSmoothing,
    apply,
    axis_indices,
    cone_is_smooth,
    deflection,
    fan_window,
    ray_formula,
    share_facet,
    window_payload,
)
from .lattice import IntMatrix, IntVec, _record, det, extends_to_basis, is_unipotent


def parameter_values(e: int | None, w: int | None) -> dict[str, int]:
    """What the parameter names of a ``FAMILIES`` row stand for: "e" the degree, "e/w" the degree of the
    warp-w quotient's generic fibre, which ``kdl.classify.quotient_degree`` (the warp rule's one owner)
    gives or refuses with NotDivisible; none for the curve family."""
    if e is None:
        return {}
    return {"e": e, "e/w": quotient_degree(e, w)}


@dataclass(frozen=True)
class FamilyParams:
    e: int | None = None
    w: int | None = None
    alpha_label: str | None = None
    zeta_label: str | None = None


@dataclass(frozen=True)
class QuotientInfo:
    galois_order: int
    generic_fiber_degree: int


@dataclass(frozen=True)
class FamilySpec:
    """What one smoothing family adds to the axis-generic fan machinery; its type states its expected deflection.

    ``min_degree`` is None for the curve family, which takes no degree or
    warp.  ``group`` lists the generators as data, (name, lattice rows, torus
    labels): a row entry is an int or a name of ``parameter_values``, "e" or
    "e/w"; rows None make a pure torus translation, labels None all "1".
    ``generators(e, w)`` evaluates them to named group elements, unvalidated
    if ``trusted`` (a certified row's): the first ``len(kind.AXES)`` shift one
    step along each axis of the fan, and every later one must fix the fan.
    The shifts are unipotent, which ``prove_row`` proves; a shift that
    is not makes ``verify_family`` try every power in its freeness check.
    A row derives its generator ``template`` and ``FamilyParams`` fields (``params``) once, ``dataclasses.replace``
    anew, so a trusted ``generators`` call builds only the generators with a row that names a parameter.
    """

    min_degree: int | None
    kind: Callable[[int | None], FanKind]
    group: tuple[tuple[str, tuple | None, tuple[str, ...] | None], ...]
    labels: dict[str, str]
    untested: tuple[str, ...] = ()

    def __post_init__(self):
        template = []  # per generator: name, rows, labels, which rows name a parameter, its element if none does
        for name, rows, labels in self.group:
            rows = rows or tuple((0,) * i + (1,) + (0,) * (len(labels) - 1 - i) for i in range(len(labels)))
            labels, naming = labels or ("1",) * len(rows), tuple(any(isinstance(x, str) for x in row) for row in rows)
            fixed = None if any(naming) else GroupElement._trusted(IntMatrix._trusted(rows), labels)
            template.append((name, rows, labels, naming, fixed))
        vars(self).update(template=tuple(template), params=vars(FamilyParams(**self.labels)))

    def generators(self, e: int | None, w: int | None, trusted=False, values=None) -> tuple:
        """The named generators at (e, w); ``values``, if given, are ``parameter_values(e, w)``."""
        values = parameter_values(e, w) if values is None else values
        matrix, element = (IntMatrix._trusted, GroupElement._trusted) if trusted else (IntMatrix, GroupElement)
        named = []
        for name, rows, labels, naming, fixed in self.template:
            if not (trusted and fixed):
                rows = tuple([tuple(map(values.get, row, row)) if n else row for row, n in zip(rows, naming)])
                fixed = element(matrix(rows), labels)
            named.append((name, fixed))
        return tuple(named)

    def certified(self) -> bool:
        """``prove_row(self)``, proved at the row's first use in a process."""
        # Keyed on the prove_row binding, so the traced benchmark preflight proves each row again (det, matmul).
        if vars(self).get("proof", (None,))[0] is not prove_row:
            vars(self)["proof"] = prove_row, prove_row(self)
        return vars(self)["proof"][1]


FAMILIES = {
    "mumford": FamilySpec(
        min_degree=None,
        kind=lambda e: MumfordNeron(),
        group=(("polygon_shift", ((1, 0), (1, 1)), None),),
        labels={},
    ),
    "hopf": FamilySpec(
        min_degree=1,
        kind=HopfSmoothing,
        group=(
            ("polygon_shift", ((1, "e", 0), (0, 1, 0), (1, 0, 1)), None),
            ("fiber_gluing", None, ("1", "alpha", "1")),
        ),
        labels={"alpha_label": "alpha"},
        untested=(
            "the chosen fibre-gluing parameter is replaced by a compatible primitive "
            "w-th root when the covering group action is pushed down",
        ),
    ),
    "elliptic": FamilySpec(
        min_degree=0,
        kind=lambda e: EllipticSmoothing(),
        group=(
            ("polygon_shift", ((1, 0, 0), (0, 1, 0), (0, 1, 1)), None),
            ("base_twist", ((1, "e/w", 0), (0, 1, 0), (0, 0, 1)), ("alpha", "1", "1")),
        ),
        labels={"alpha_label": "alpha"},
    ),
    "rational": FamilySpec(
        min_degree=1,
        kind=RationalSmoothing,
        group=(
            ("shift_m", ((1, "e", 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 1)), None),
            ("shift_n", ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)), None),
            ("horizontal_gluing", None, ("1", "1", "1", "1", "lambda")),
        ),
        labels={"alpha_label": "lambda", "zeta_label": "zeta"},
        untested=(
            "the two birational modifications over the blown-up parameter plane "
            "(blowup along the non-normal-crossing locus, contraction of one quadric "
            "ruling) and the resulting honeycomb central fibre",
            "which horizontal parameter value realizes a prescribed gluing",
        ),
    ),
}

FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class SmoothingFamily:
    """A fan window, its generators, quotient bookkeeping and a proved row's certificate (kind, named generators)."""

    family: str
    kind: FanKind
    params: FamilyParams
    fan: FanWindow
    generators: tuple[GroupElement, ...]
    generator_names: tuple[str, ...]
    quotient_info: QuotientInfo | None
    certificate: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None = None


_passed = cache(lambda name: _record(CheckResult, name=name, passed=True, counterexample=None))


@dataclass(frozen=True)
class VerificationReport:
    family: str
    checks: tuple[CheckResult, ...]
    untested: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def build_family(family: str, e: int | None = None, w: int | None = None, window: int = 16) -> SmoothingFamily:
    """One smoothing family over a window of the given half-width, whose cones are all built at the first read.

    The three surface families need a degree e.  Their warp w must satisfy
    w >= 1 and w | e, and defaults to 1: the warp-w family is the covering
    family divided by a cyclic group of order w, so w = 1 is the covering
    family itself.  The mumford curve family takes neither e nor w.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    spec = FAMILIES[family]
    if spec.min_degree is None:
        if e is not None or w is not None:
            raise ValueError(f"the {family} family takes no degree or warp")
        values, quotient_info = parameter_values(e, w), None
    else:
        if e is None:
            raise ValueError(f"the {family} family needs a degree e")
        w = 1 if w is None else w
        values = parameter_values(e, w)
        if e < spec.min_degree:
            raise ValueError(
                f"the {family} family needs degree e >= {spec.min_degree}"
                if spec.min_degree
                else "degree must be nonnegative"
            )
        quotient_info = _record(QuotientInfo, galois_order=w, generic_fiber_degree=values["e/w"])
    kind, named = spec.kind(e), spec.generators(e, w, certified := spec.certified(), values)
    (names, generators), params = zip(*named), _record(FamilyParams, **spec.params | {"e": e, "w": w})
    return _record(SmoothingFamily, family=family, kind=kind, params=params, fan=fan_window(kind, window, certified),
                   generators=generators, generator_names=names, quotient_info=quotient_info,
                   certificate=(kind, named) if certified else None)


UNTESTED_COMMON = (
    "properness and freeness of the group action on the disk preimage (analytic; "
    "only combinatorial proxies are checked)",
    "smoothness of the quotient total space and flatness over the disk",
    "torus parameter labels are bookkeeping only and are never evaluated",
)


def prove_row(spec: FamilySpec) -> bool:
    """Whether every claim of ``verify_family`` but the deflection holds at every index in Z and admissible (e, w).

    Rays and lattice parts are affine in the row's one parameter t ("e", or "e/w" under a kind free of e), and the
    rays of an axis have degree d <= 2 in their index i.  So each identity is a polynomial in (i, t) of degree <= d in
    i and <= D = max(2, dim) in t, true everywhere once true on the grid i = 0..d, (e, w) = (t, 1) for t = min_degree
    to min_degree + D: each shift moves its axis's rays one step up and fixes the others', each further generator
    fixes every ray, the shifts are unipotent, and both generator checks hold.  Every cone is then cone 0 moved by
    unimodular shift powers.  The two claims that are no identity are made free of t and tested once.  Cone 0 (each
    ray, in a row in "e/w") is the same at every t, and its basis test decides ``cones_smooth``.  The freeness witness
    is a coordinate of ray i+1 - ray i with one nonzero value on the grid, so everywhere: a unipotent shift fixing a
    cone fixes its rays (module docstring), which it forbids, and rays i and i+2 differ, so neighbours share a facet.
    """
    names = {x for _, rows, _ in spec.group for row in rows or () for x in row if isinstance(x, str)}
    low, dim = spec.min_degree, len(spec.group[0][1] or spec.group[0][2])
    grid = [(spec.kind(t), spec.generators(t, t if t is None else 1, True))
            for t in ([None] if low is None else range(low, low + max(2, dim) + 1))]
    axes, rank = grid[0][0].AXES, grid[0][0].AMBIENT_RANK
    pad = (0,) * (dim - rank)  # a matrix acting on Z^rank + Z acts on a ray v as on (v, 0)
    rays = [[[ray_formula(k, a)(i).entries + pad for i in range(len(k.ray_coefficients[a]) + 1)] for a in axes]
            for k, _ in grid]  # rays 0..d+1 of each axis at each t
    still = [r if "e/w" in names else [vs[:2] for vs in r] for r in rays]
    steps = [[[y - x for x, y in zip(v, u)] for r in rays for v, u in zip(r[a], r[a][1:])] for a in range(len(axes))]
    return (len(names) < 2 and dim - rank in (0, 1) and still.count(still[0]) == len(still)
            and extends_to_basis([IntVec(vs[k][:rank]) for vs in rays[0] for k in (0, 1)])
            and all(any(x[0] and x.count(x[0]) == len(x) for x in zip(*axis)) for axis in steps) and all(
                all(IntVec(v).times(g.lattice_part).entries == vs[i + (a == at)]
                    for at, (_, g) in enumerate(named) for a, vs in enumerate(r) for i, v in enumerate(vs[:-1]))
                and all(is_unipotent(g.lattice_part) for _, g in named[: len(axes)])
                and not check_generators_special_linear(named) and not check_generators_commute(named)
                for r, (_, named) in zip(rays, grid)))


class _Walk:
    """A family's window as the checks walk it: ``first``, a list of its least index (if any), and the
    ``candidates`` each per-cone check visits, in index order; ``touching`` lists those of a pair check.
    ``certified``: the family's ``certificate`` is (its kind, its named generators), which only a row
    ``prove_row`` proves gives; else the generators are ``unproved`` and every index is a candidate.  The
    certificate proves every claim about a cone tagged (kind, its own index) and every pair claim between two
    such cones, so skipping them keeps each first counterexample.  A certified family's ``fan_window`` cones of
    its kind over the window's range pass every check unread and unlisted; on any other window with
    ``fan_window``'s indices (``departed``), the candidates are the departures, whose cone has another tag."""

    def __init__(self, f: SmoothingFamily):
        axes, named = f.kind.AXES, tuple(zip(f.generator_names, f.generators))
        self.family, self.cones, self.departed = f, f.fan.cones, False
        self.suffixes = [""] if len(axes) == 1 else [f"_{axis}" for axis in axes]
        self.certified = f.certificate == (f.kind, named)
        self.unproved = () if self.certified else named
        if self.certified and getattr(self.cones, "formula", None) == (f.kind, f.fan.index_range):
            self.first, self.candidates = [next(iter(self.cones))], []
            return
        self.candidates = f.fan.indices()
        self.first, box = self.candidates[:1], fan_window(f.kind, max([1, *(hi for _, hi in f.fan.index_range)])).cones
        if self.certified and f.fan.index_range == box.formula[1] and self.candidates == list(box):
            self.departed = True
            self.candidates = [i for i in box if self.cones[i].formula != (f.kind, i if len(axes) > 1 else (i,))]

    def near(self, i, axis: int, step: int):
        """The window index ``step`` along an axis from i, or None outside the window."""
        at = axis_indices(self.family.kind, i)
        at = at[:axis] + (at[axis] + step,) + at[axis + 1 :]
        j = at if len(at) > 1 else at[0]
        return j if j in self.cones else None

    def touching(self, axes, step: int) -> list:
        """The indices i, in order, whose pair with the index ``step`` along one of the axes from i a pair check
        visits: the candidates and, on a departed window, each index ``-step`` along one of the axes from one."""
        if not self.departed:
            return self.candidates
        return sorted({*self.candidates, *(self.near(i, a, -step) for i in self.candidates for a in axes)} - {None})


def check_cones_smooth(walk: _Walk) -> str | None:
    """The first window index whose cone is not smooth."""
    return next((str(i) for i in walk.candidates if not cone_is_smooth(walk.cones[i])), None)


def check_adjacent_cones_share_facet(walk: _Walk) -> str | None:
    """The first pair "i~j" of neighbouring window cones that share no facet."""
    for i in walk.touching(range(len(walk.suffixes)), 1):
        for axis in range(len(walk.suffixes)):
            j = walk.near(i, axis, 1)
            if j is not None and not share_facet(walk.cones[i], walk.cones[j]):
                return f"{i}~{j}"
    return None


def check_generators_special_linear(named) -> str | None:
    """The first of the named generators whose lattice part has a determinant other than 1."""
    return next((name for name, g in named if det(g.lattice_part) != 1), None)


def check_generators_commute(named) -> str | None:
    """The first pair "a*b" of the named generators whose lattice parts do not commute."""
    pairs = ((a, b, g.lattice_part, h.lattice_part) for at, (a, g) in enumerate(named) for b, h in named[at + 1 :])
    return next((f"{a}*{b}" for a, b, m, n in pairs if m @ n != n @ m), None)


def check_shift(walk: _Walk, axis: int) -> str | None:
    """The first window index whose cone the shift along an axis does not move to the next one."""
    for i in walk.touching((axis,), 1):
        j = walk.near(i, axis, 1)
        if j is not None and apply(walk.family.generators[axis], walk.cones[i]) != walk.cones[j]:
            return str(i)
    return None


def check_fixes_fan(walk: _Walk, gen: GroupElement) -> str | None:
    """The first window index whose cone a generator does not fix."""
    cones = walk.cones
    return next((str(i) for i in walk.candidates if apply(gen, cones[i]) != cones[i]), None)


def check_deflection(walk: _Walk, direction: str | None, expected: tuple | None) -> str | None:
    """The first window index whose deflection along a direction does not have the entries `expected`; rays
    of degree at most 2 have the same deflection at every index in Z, so one index decides."""
    return next((str(i) for i in walk.first if deflection(walk.family.kind, i, direction).entries != expected), None)


def check_freeness_proxy(walk: _Walk) -> str | None:
    """The first "shift^k fixes i": no power k >= 1 of a shift may fix a window cone.  k = 1 decides it for
    a unipotent shift (module docstring), as ``prove_row`` proves a certified walk's are; else k runs up to the span."""
    f = walk.family
    span = max(hi - lo for lo, hi in f.fan.index_range)
    for axis, suffix in enumerate(walk.suffixes):
        gen_k, base = f.generators[axis], f.generators[axis].lattice_part
        for k in range(1, (1 if walk.certified or is_unipotent(base) else span) + 1):
            gen_k = gen_k if k == 1 else GroupElement.from_matrix(gen_k.lattice_part @ base)
            for i in walk.candidates:
                if apply(gen_k, walk.cones[i]) == walk.cones[i]:
                    return f"shift{suffix}^{k} fixes {i}"
    return None


def check_shift_orbit_transitive(walk: _Walk) -> str | None:
    """The first window index that shift powers started at the least index do not reach.

    Each cone is reached from the cone one step back along the last axis above
    its lower bound, if both exist.  Only the first failure is read, so every cone
    before it equals the cone the walk reached there.  The index prints as "3"
    on one axis and as "(m,n)", with no space, on two.
    """
    kind, lows = walk.family.kind, [lo for lo, _ in walk.family.fan.index_range]
    for i in walk.touching(range(len(walk.suffixes)), -1):
        if i in walk.first:
            continue
        axis = max((a for a, (x, lo) in enumerate(zip(axis_indices(kind, i), lows)) if x > lo), default=None)
        j = None if axis is None else walk.near(i, axis, -1)
        if j is None or apply(walk.family.generators[axis], walk.cones[j]) != walk.cones[i]:
            return str(i).replace(" ", "")
    return None


def verify_family(f: SmoothingFamily) -> VerificationReport:
    """Run the full fan-level verification battery over the family's window.

    Failures are report entries with a counterexample index, never exceptions.
    The battery's shape follows the fan's axes: one shift and one deflection
    check per axis (suffixed with the axis name when there are several), and
    a fixing check for every generator after the shifts.  A type row stating
    another number of deflections than the fan has axes fails each of them.
    Each check is called through its module global, so whoever rebinds one
    sees every call.  A passing result depends on its name alone, so each is
    one record per process (``_passed``), shared by every report.
    """
    spec, walk, axes = FAMILIES[f.family], _Walk(f), f.kind.AXES
    for t in TYPES.values():  # a plain loop: cheaper than next() over a generator
        if t.family == f.family:
            expected = t.deflections(f.params.e)
            break
    else:
        expected = ((0,) * f.kind.AMBIENT_RANK,) * len(axes)  # a family no type names, as mumford
    expected = expected if len(expected) == len(axes) else (None,) * len(axes)
    fixing = zip(f.generator_names[len(axes) :], f.generators[len(axes) :])
    directions = [None] if len(axes) == 1 else axes
    checks = [
        ("cones_smooth", check_cones_smooth(walk)),
        ("adjacent_cones_share_facet", check_adjacent_cones_share_facet(walk)),
        ("generators_special_linear", check_generators_special_linear(walk.unproved)),
        ("generators_commute", check_generators_commute(walk.unproved)),
        *((f"shift{suffix}", check_shift(walk, axis)) for axis, suffix in enumerate(walk.suffixes)),
        *((f"{name}_fixes_fan", check_fixes_fan(walk, gen)) for name, gen in fixing),
        *((f"deflection{suffix}", check_deflection(walk, direction, want))
          for suffix, direction, want in zip(walk.suffixes, directions, expected)),
        ("freeness_proxy", check_freeness_proxy(walk)),
        ("shift_orbit_transitive", check_shift_orbit_transitive(walk)),
    ]
    checks = tuple([_passed(name) if failure is None else
                    _record(CheckResult, name=name, passed=False, counterexample=failure) for name, failure in checks])
    return _record(VerificationReport, family=f.family, checks=checks, untested=UNTESTED_COMMON + spec.untested)


def family_payload(f: SmoothingFamily) -> dict:
    """JSON-ready encoding of a smoothing family."""
    return {
        "family": f.family,
        "params": {
            "e": f.params.e,
            "w": f.params.w,
            "alpha_label": f.params.alpha_label,
            "zeta_label": f.params.zeta_label,
        },
        "fan": window_payload(f.fan),
        "generators": [
            {
                "name": name,
                "lattice": [list(row) for row in g.lattice_part.rows],
                "torus": list(g.torus_part),
            }
            for name, g in zip(f.generator_names, f.generators)
        ],
        "quotient": None
        if f.quotient_info is None
        else {
            "galois_order": f.quotient_info.galois_order,
            "generic_fiber_degree": f.quotient_info.generic_fiber_degree,
        },
    }


def report_payload(report: VerificationReport) -> dict:
    """JSON-ready encoding of a verification report."""
    return {
        "family": report.family,
        "all_pass": report.all_pass,
        "checks": [
            {"name": c.name, "passed": c.passed, "counterexample": c.counterexample}
            for c in report.checks
        ],
        "untested": list(report.untested),
    }

