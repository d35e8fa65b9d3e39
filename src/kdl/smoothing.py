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

``verify_family`` runs every fan-level claim over the materialized window:
smoothness of all cones, facet adjacency, index shifts, deflection values,
special-linearity and commutation of the generators, and a combinatorial
freeness proxy.  Analytic facts with no finite certificate in the fan data
are listed as untested metadata, never silently assumed.  Each shift image
of a window cone is computed once and shared by the shift, freeness and
transitivity checks, and each deflection once per coordinate along its axis.

The freeness proxy asks whether a power g^k (k >= 1) of a shift fixes a cone.
For a unipotent g, g^k fixing a cone permutes its rays, so a power of g fixes
each ray v; unipotence then gives v(g - I) = 0, so g fixes the cone already.
Every shift in ``FAMILIES`` is unipotent, so one power decides the check.

``FAMILIES`` is the one place per-family data lives: one ``FamilySpec`` row
per family holds its minimum degree, fan kind, named generators, parameter
labels, expected deflection per axis and untested notes.  ``build_family``
and ``verify_family`` read that row and derive everything else from the kind's ``AXES``.  Adding a
family takes one fan kind in ``kdl.fans`` (its ``AXES`` and one ``ray_<axis>``
formula per axis), the lattice parts of its generators, and one row here,
with one shift generator per axis listed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NotDivisible
from .fans import (
    Cone,
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
    elliptic_shift,
    elliptic_twist,
    fan_window,
    hopf_shift,
    mumford_shift,
    rational_shift_m,
    rational_shift_n,
    share_facet,
    window_payload,
)
from .lattice import IntVec, det, is_unipotent


@dataclass(frozen=True)
class FamilySpec:
    """Everything one smoothing family adds to the axis-generic fan machinery.

    ``min_degree`` is None for the curve family, which takes no degree or
    warp.  ``generators`` maps (e, w) to named group elements: the first
    ``len(kind.AXES)`` shift one step along each axis of the fan, and every
    later one must fix the fan.  The shifts are unipotent, which a test
    checks for every row; a shift that is not makes ``verify_family`` try
    every power in its freeness check.  ``deflections`` maps e to the expected
    deflection along each axis.
    """

    min_degree: int | None
    kind: Callable[[int | None], FanKind]
    generators: Callable[[int | None, int | None], tuple[tuple[str, GroupElement], ...]]
    labels: dict[str, str]
    deflections: Callable[[int | None], tuple[tuple[int, ...], ...]]
    untested: tuple[str, ...] = ()


FAMILIES = {
    "mumford": FamilySpec(
        min_degree=None,
        kind=lambda e: MumfordNeron(),
        generators=lambda e, w: (("polygon_shift", GroupElement.from_matrix(mumford_shift())),),
        labels={},
        deflections=lambda e: ((0, 0),),
    ),
    "hopf": FamilySpec(
        min_degree=1,
        kind=HopfSmoothing,
        generators=lambda e, w: (
            ("polygon_shift", GroupElement.from_matrix(hopf_shift(e))),
            ("fiber_gluing", GroupElement.translation(("1", "alpha", "1"))),
        ),
        labels={"alpha_label": "alpha"},
        deflections=lambda e: ((0, e, 0),),
        untested=(
            "the chosen fibre-gluing parameter is replaced by a compatible primitive "
            "w-th root when the covering group action is pushed down",
        ),
    ),
    "elliptic": FamilySpec(
        min_degree=0,
        kind=lambda e: EllipticSmoothing(),
        generators=lambda e, w: (
            ("polygon_shift", GroupElement.from_matrix(elliptic_shift())),
            ("base_twist", GroupElement(elliptic_twist(e, w), ("alpha", "1", "1"))),
        ),
        labels={"alpha_label": "alpha"},
        deflections=lambda e: ((0, 0, 0),),
    ),
    "rational": FamilySpec(
        min_degree=1,
        kind=RationalSmoothing,
        generators=lambda e, w: (
            ("shift_m", GroupElement.from_matrix(rational_shift_m(e))),
            ("shift_n", GroupElement.from_matrix(rational_shift_n())),
            ("horizontal_gluing", GroupElement.translation(("1", "1", "1", "1", "lambda"))),
        ),
        labels={"alpha_label": "lambda", "zeta_label": "zeta"},
        deflections=lambda e: ((0, e, 0, 0), (0, 0, 0, 0)),
        untested=(
            "the two birational modifications over the blown-up parameter plane "
            "(blowup along the non-normal-crossing locus, contraction of one quadric "
            "ruling) and the resulting honeycomb central fibre",
            "which horizontal parameter value realizes a prescribed gluing",
        ),
    ),
}

FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True, slots=True)
class FamilyParams:
    e: int | None = None
    w: int | None = None
    alpha_label: str | None = None
    zeta_label: str | None = None


@dataclass(frozen=True, slots=True)
class QuotientInfo:
    galois_order: int
    generic_fiber_degree: int


@dataclass(frozen=True)
class SmoothingFamily:
    """A fan window together with its group generators and quotient bookkeeping."""

    family: str
    kind: FanKind
    params: FamilyParams
    fan: FanWindow
    generators: tuple[GroupElement, ...]
    generator_names: tuple[str, ...]
    quotient_info: QuotientInfo | None


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    family: str
    checks: tuple[CheckResult, ...]
    untested: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def build_family(family: str, e: int | None = None, w: int | None = None, window: int = 16) -> SmoothingFamily:
    """Materialize one smoothing family over a window of the given half-width.

    e and w are required (with w >= 1 and w | e) for the three surface
    families and must be omitted for the mumford curve family.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    spec = FAMILIES[family]
    if spec.min_degree is None:
        if e is not None or w is not None:
            raise ValueError(f"the {family} family takes no degree or warp")
        params, quotient_info = FamilyParams(), None
    else:
        if e is None or w is None:
            raise ValueError(f"the {family} family needs both a degree e and a warp w")
        if w < 1 or e % w != 0:
            raise NotDivisible(f"warp {w} must be a positive divisor of degree {e}")
        if e < spec.min_degree:
            raise ValueError(
                f"the {family} family needs degree e >= {spec.min_degree}"
                if spec.min_degree
                else "degree must be nonnegative"
            )
        params = FamilyParams(e=e, w=w, **spec.labels)
        quotient_info = QuotientInfo(galois_order=w, generic_fiber_degree=e // w)
    kind = spec.kind(e)
    named = spec.generators(e, w)
    return SmoothingFamily(
        family=family,
        kind=kind,
        params=params,
        fan=fan_window(kind, window),
        generators=tuple(g for _, g in named),
        generator_names=tuple(name for name, _ in named),
        quotient_info=quotient_info,
    )


UNTESTED_COMMON = (
    "properness and freeness of the group action on the disk preimage (analytic; "
    "only combinatorial proxies are checked)",
    "smoothness of the quotient total space and flatness over the disk",
    "torus parameter labels are bookkeeping only and are never evaluated",
)


def verify_family(f: SmoothingFamily) -> VerificationReport:
    """Run the full fan-level verification battery over the family's window.

    Failures are report entries with a counterexample index, never exceptions.
    The battery's shape follows the fan's axes: one shift and one deflection
    check per axis (suffixed with the axis name when there are several), and
    a fixing check for every generator after the shifts.
    """
    checks: list[CheckResult] = []
    spec = FAMILIES[f.family]
    kind, cones = f.kind, f.fan.cones
    axes = kind.AXES
    indices = f.fan.indices()
    coords = {i: axis_indices(kind, i) for i in indices}
    index_of = {at: i for i, at in coords.items()}
    suffixes = [""] if len(axes) == 1 else [f"_{axis}" for axis in axes]
    shifts = [(f"shift{s}", g) for s, g in zip(suffixes, f.generators)]

    def along(i, axis: int, step: int = 1):
        """The window index `step` steps from i along an axis, or None outside the window."""
        at = coords[i]
        return index_of.get(at[:axis] + (at[axis] + step,) + at[axis + 1 :])

    images: dict = {}

    def image(axis: int, i) -> Cone:
        """The shift along an axis applied to the cone at i, computed on first use."""
        if (axis, i) not in images:
            images[axis, i] = apply(shifts[axis][1], cones[i])
        return images[axis, i]

    def run(name: str, failure_iter) -> None:
        failure = next(failure_iter, None)
        checks.append(CheckResult(name, failure is None, failure))

    run(
        "cones_smooth",
        (str(i) for i in indices if not cone_is_smooth(cones[i])),
    )

    def adjacency_failures():
        for i in indices:
            for axis in range(len(axes)):
                j = along(i, axis)
                if j is not None and not share_facet(cones[i], cones[j]):
                    yield f"{i}~{j}"

    run("adjacent_cones_share_facet", adjacency_failures())

    run(
        "generators_special_linear",
        (
            name
            for name, g in zip(f.generator_names, f.generators)
            if det(g.lattice_part) != 1
        ),
    )

    def commutation_failures():
        for a in range(len(f.generators)):
            for b in range(a + 1, len(f.generators)):
                ga, gb = f.generators[a].lattice_part, f.generators[b].lattice_part
                if ga @ gb != gb @ ga:
                    yield f"{f.generator_names[a]}*{f.generator_names[b]}"

    run("generators_commute", commutation_failures())

    for axis, (name, _) in enumerate(shifts):

        def shift_failures(axis=axis):
            for i in indices:
                j = along(i, axis)
                if j is not None and image(axis, i) != cones[j]:
                    yield str(i)

        run(name, shift_failures())

    for name, gen in zip(f.generator_names[len(axes) :], f.generators[len(axes) :]):

        def fixing_failures(gen=gen):
            for i in indices:
                if apply(gen, cones[i]) != cones[i]:
                    yield str(i)

        run(f"{name}_fixes_fan", fixing_failures())

    directions = [None] if len(axes) == 1 else axes
    deflections = zip(suffixes, directions, spec.deflections(f.params.e))
    for axis, (suffix, direction, expected) in enumerate(deflections):

        def deflection_failures(axis=axis, direction=direction, expected=IntVec(expected)):
            # A deflection depends on the index's coordinate along its axis
            # only, so each coordinate is evaluated once.
            wrong: dict[int, bool] = {}
            for i in indices:
                x = coords[i][axis]
                if x not in wrong:
                    wrong[x] = deflection(kind, i, direction) != expected
                if wrong[x]:
                    yield str(i)

        run(f"deflection{suffix}", deflection_failures())

    def freeness_failures():
        # No nonzero power of a shifting generator may fix a window cone.  If
        # g is unipotent and g^k fixes a cone, a power of g fixes each ray v,
        # so v(g - I) = 0 and g fixes the cone: k = 1 gives the first failure.
        # A generator that is not unipotent tries every k up to the span.
        span = max(hi - lo for lo, hi in f.fan.index_range)
        for axis, (name, gen) in enumerate(shifts):
            power = base = gen.lattice_part
            for k in range(1, (1 if is_unipotent(base) else span) + 1):
                gen_k = GroupElement.from_matrix(power)
                for i in indices:
                    if (image(axis, i) if k == 1 else apply(gen_k, cones[i])) == cones[i]:
                        yield f"{name}^{k} fixes {i}"
                power = power @ base

    run("freeness_proxy", freeness_failures())

    def transitivity_failures():
        # Shift powers started at the least index must reach every window
        # cone: each cone is reached from one step back along the last axis
        # that is above its lower bound.  Only the first failure is read, so
        # every cone before it equals the cone the walk reached there.
        lows = [lo for lo, _ in f.fan.index_range]
        for i in indices[1:]:
            axis = max(a for a, (x, lo) in enumerate(zip(coords[i], lows)) if x > lo)
            if image(axis, along(i, axis, -1)) != cones[i]:
                # "3" on one axis, "(m,n)" with no space on two.
                yield str(i).replace(" ", "")

    run("shift_orbit_transitive", transitivity_failures())

    return VerificationReport(
        family=f.family,
        checks=tuple(checks),
        untested=UNTESTED_COMMON + spec.untested,
    )


def family_payload(f: SmoothingFamily) -> dict:
    """JSON-ready encoding of a smoothing family."""
    payload = {
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
    return payload


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

