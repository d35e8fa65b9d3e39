"""Boundary strata of the completed moduli space and their adjacencies.

The boundary of the degree-d moduli space decomposes into three strata by
normalization type, and each stratum contributes one component per warp
w >= 1 with degree e = d*w (so that the nearby smooth surfaces have degree
e/w = d, as ``kdl.classify.quotient_degree``, the warp rule's one owner, checks;
``TypeSpec.family`` names the stratum's smoothing family).  Components carry
the parameter space of their continuous modulus:

* Hopf stratum          -- punctured disk (the contraction parameter),
* rational stratum      -- C* (the residual horizontal gluing),
* elliptic ruled stratum -- C (the j-invariant of the base).

Adjacencies between strata are witnessed by two explicit families through
surfaces with a quadrupel point (local ring cut out by T1*T2 = T3*T4 = 0):
the X1 family joins EllipticRuled(e, w) to Hopf(e, w); the X2 family joins
Rational(e, 1) to EllipticRuled(2e, 2).  No family joining the Hopf and
rational strata is known, and the edge list deliberately omits that pair.

Both records are ``kdl.lattice._Record`` tuples with named read-only fields,
built by one ``tuple.__new__`` call after their checks.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .classify import ELLIPTIC_RULED, HOPF, RATIONAL, TYPES, quotient_degree
from .lattice import _Record

# One stratum per surface type, in the order the boundary documents list them.
STRATA = (HOPF, RATIONAL, ELLIPTIC_RULED)


class StratumComponent(_Record, namedtuple("StratumComponent", "stratum degree warp")):
    """One irreducible boundary component, keyed by (stratum, degree, warp)."""

    __slots__ = ()

    def __new__(cls, stratum: str, degree: int, warp: int):
        if stratum not in STRATA:
            raise ValueError(f"unknown stratum {stratum!r}")
        if quotient_degree(degree, warp) < 1:
            raise ValueError("degree and warp must be positive")
        return tuple.__new__(cls, (stratum, degree, warp))

    @property
    def param_space(self) -> str:
        """The parameter space of the stratum's continuous modulus."""
        return TYPES[self.stratum].param_space

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.stratum, self.degree, self.warp)


class AdjacencyEdge(_Record, namedtuple("AdjacencyEdge", "endpoints witness witness_ref")):
    """An undirected adjacency between two boundary components, with the
    family of quadrupel-point surfaces witnessing it."""

    __slots__ = ()

    def __new__(cls, endpoints, witness: str, witness_ref: str):
        endpoints = tuple(tuple(k) for k in endpoints)
        if endpoints[0] == endpoints[1]:
            raise ValueError("edge endpoints must be distinct")
        if witness not in ("X1Family", "X2Family"):
            raise ValueError(f"unknown witness {witness!r}")
        return tuple.__new__(cls, (endpoints, witness, witness_ref))


def enumerate_components(d: int, w_max: int) -> list[StratumComponent]:
    """All boundary components of the degree-d moduli space with warp <= w_max."""
    if d < 1 or w_max < 1:
        raise ValueError("degree and maximal warp must be positive")
    return [
        StratumComponent(stratum, degree=d * w, warp=w)
        for stratum in STRATA
        for w in range(1, w_max + 1)
    ]


def adjacency_edges(components: Iterable[StratumComponent]) -> list[AdjacencyEdge]:
    """Adjacency edges among the given components.

    X1 joins elliptic-ruled and Hopf components of equal (degree, warp); X2
    joins Rational(e, 1) to EllipticRuled(2e, 2).  There is never a direct
    Hopf-rational edge.
    """
    present = {c.key for c in components}
    edges = []
    for stratum, e, w in sorted(present):
        if stratum == ELLIPTIC_RULED and (HOPF, e, w) in present:
            edges.append(
                AdjacencyEdge(
                    endpoints=((ELLIPTIC_RULED, e, w), (HOPF, e, w)),
                    witness="X1Family",
                    witness_ref=(
                        f"one quadrupel point; nearby fibres are d-semistable of degree {e} "
                        f"and warp {w} with elliptic ruled normalization in one parameter "
                        "direction and with nonalgebraic normalization in the other"
                    ),
                )
            )
        if stratum == RATIONAL and w == 1 and (ELLIPTIC_RULED, 2 * e, 2) in present:
            edges.append(
                AdjacencyEdge(
                    endpoints=((RATIONAL, e, 1), (ELLIPTIC_RULED, 2 * e, 2)),
                    witness="X2Family",
                    witness_ref=(
                        f"two quadrupel points; deforms to rational normalization of degree {e} "
                        f"and warp 1, and to elliptic ruled normalization of degree {2 * e} "
                        "and warp 2"
                    ),
                )
            )
    return edges


def local_model() -> dict:
    """Fixed descriptor of the boundary-normal local model of the completion."""
    return {
        "model": "blowup of (∞,0) in P¹×Δ",
        "removed": "two points on exceptional divisor",
        "normal_crossing_obstruction": "Thm: not of normal crossing type",
        "quadrupel_point_local_equations": "T1*T2, T3*T4",
        "hopf_rational_edge": "conjectural: no connecting family known",
        "lift_invariant_caveat": (
            "components are keyed by (stratum, degree, warp) only; possibly "
            "inequivalent lifts of the covering group action are not subdivided"
        ),
    }


def boundary_payload(d: int, w_max: int) -> dict:
    """JSON-ready document: components, edges, and the local model."""
    components = enumerate_components(d, w_max)
    return {
        "degree": d,
        "max_warp": w_max,
        "components": [
            {"stratum": c.stratum, "degree": c.degree, "warp": c.warp, "param_space": c.param_space}
            for c in components
        ],
        "edges": [
            {"endpoints": [list(k) for k in edge.endpoints], "witness": edge.witness, "witness_ref": edge.witness_ref}
            for edge in adjacency_edges(components)
        ],
        "local_model": local_model(),
    }


def _node_id(key: tuple[str, int, int]) -> str:
    stratum, e, w = key
    return f"{stratum}_e{e}_w{w}"


def render_dot(components: Iterable[StratumComponent], edges: Iterable[AdjacencyEdge]) -> str:
    """Graphviz source for the adjacency graph, with deterministic ordering."""
    lines = ["graph moduli_boundary {"]
    for c in components:
        label = f"{c.stratum} e={c.degree} w={c.warp}\\n{c.param_space}"
        lines.append(f'  "{_node_id(c.key)}" [label="{label}"];')
    for edge in edges:
        a, b = edge.endpoints
        lines.append(f'  "{_node_id(a)}" -- "{_node_id(b)}" [label="{edge.witness}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
