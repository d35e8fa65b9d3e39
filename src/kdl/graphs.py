"""Dual-graph machinery for seminormal curves.

A bicoloured graph records a seminormal curve combinatorially: white vertices
are irreducible components, black vertices are singular points, and each edge
is a branch of a component through a singular point.  H^1 of such a graph is
computed as 1-cochains modulo coboundaries over exact rationals (integer row
reduction, no floating point), because the twisted/untwisted dichotomy for
6-gon gluings is decided by the vanishing of a pullback on H^1.

The polygon-gluing analysis concerns one fixed situation: the Neron 6-gon C
(components C0..C5, nodes p_i = C_i meet C_{i+1}) mapping 2:1 onto the
triple-line curve D (components D0,D1,D2 all passing through two points
q0,q1).  Gluings are classified Untwisted / Twisted / Invalid rather than
rejected, so exhaustive sweeps can cover every identification.  C and D are
built once, at import, and a coboundary's rank is |V| - #components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedMorphism
from .lattice import rank_of


@dataclass(frozen=True)
class BicolouredGraph:
    """Bipartite multigraph: edges join a white vertex to a black vertex.

    Parallel edges are meaningful (a component can pass through a node with
    two branches), so edges are positional.
    """

    white: tuple[str, ...]
    black: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "white", tuple(self.white))
        object.__setattr__(self, "black", tuple(self.black))
        object.__setattr__(self, "edges", tuple((w, b) for w, b in self.edges))
        names = self.white + self.black
        if len(set(names)) != len(names):
            raise ValueError("vertex ids must be distinct across both colours")
        whites, blacks = set(self.white), set(self.black)
        for w, b in self.edges:
            if w not in whites or b not in blacks:
                raise ValueError(f"edge ({w}, {b}) references a missing vertex")

    def vertex_count(self) -> int:
        return len(self.white) + len(self.black)

    def component_count(self) -> int:
        parent = {v: v for v in self.white + self.black}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for w, b in self.edges:
            rw, rb = find(w), find(b)
            if rw != rb:
                parent[rw] = rb
        return len({find(v) for v in parent})


def betti1(g: BicolouredGraph) -> int:
    """dim H^1 of the graph: edges - vertices + connected components."""
    return len(g.edges) - g.vertex_count() + g.component_count()


@dataclass(frozen=True)
class GraphMorphism:
    """A colour- and incidence-preserving map between bicoloured graphs.

    ``edge_map`` sends edge positions of the source to edge positions of the
    target; the image edge must join the images of the endpoints.
    """

    source: BicolouredGraph
    target: BicolouredGraph
    white_map: dict
    black_map: dict
    edge_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_map", tuple(self.edge_map))
        for w in self.source.white:
            if self.white_map.get(w) not in self.target.white:
                raise MalformedMorphism(f"white vertex {w} has no valid image")
        for b in self.source.black:
            if self.black_map.get(b) not in self.target.black:
                raise MalformedMorphism(f"black vertex {b} has no valid image")
        if len(self.edge_map) != len(self.source.edges):
            raise MalformedMorphism("edge_map must cover every source edge")
        for pos, (w, b) in zip(self.edge_map, self.source.edges):
            if not 0 <= pos < len(self.target.edges):
                raise MalformedMorphism(f"edge image index {pos} out of range")
            if self.target.edges[pos] != (self.white_map[w], self.black_map[b]):
                raise MalformedMorphism(
                    f"edge ({w}, {b}) does not map compatibly with its endpoints"
                )


def _coboundary_rows(g: BicolouredGraph) -> list[list[int]]:
    # Row per edge, column per vertex (whites then blacks); edges oriented
    # white -> black, so the coboundary of a 0-cochain f is f(black) - f(white).
    index = {v: i for i, v in enumerate(g.white + g.black)}
    rows = []
    for w, b in g.edges:
        row = [0] * g.vertex_count()
        row[index[w]] -= 1
        row[index[b]] += 1
        rows.append(row)
    return rows


def pullback_rank(phi: GraphMorphism) -> int:
    """Rank over Q of the induced map H^1(target) -> H^1(source).

    Pulled-back coboundaries are coboundaries, so the rank equals
    rank[P | d_source] - rank[d_source], where P is the pullback on
    1-cochains and d_source the coboundary matrix of the source, of rank
    |V| - #components: its kernel is the locally constant 0-cochains.
    """
    source, n_target_edges = phi.source, len(phi.target.edges)
    aug = []
    for pos, d_row in zip(phi.edge_map, _coboundary_rows(source)):
        p_row = [0] * n_target_edges
        p_row[pos] = 1
        aug.append(p_row + d_row)
    return rank_of(aug) - (source.vertex_count() - source.component_count())


def neron_polygon_graph(k: int) -> BicolouredGraph:
    """Dual graph of the Neron k-gon: a 2k-cycle (doubled edge for k = 1)."""
    if k < 1:
        raise ValueError("a Neron polygon has at least one component")
    white = tuple(f"C{i}" for i in range(k))
    black = tuple(f"p{i}" for i in range(k))
    edges = []
    for i in range(k):
        edges.append((f"C{i}", f"p{i}"))
        edges.append((f"C{(i + 1) % k}", f"p{i}"))
    return BicolouredGraph(white, black, tuple(edges))


def triple_line_graph() -> BicolouredGraph:
    """Dual graph of the triple-line curve: three components through two points."""
    white = ("D0", "D1", "D2")
    black = ("q0", "q1")
    edges = tuple((w, b) for w in white for b in black)
    return BicolouredGraph(white, black, edges)


_HEXAGON = neron_polygon_graph(6)
_TRIPLE_LINE = triple_line_graph()
_TRIPLE_LINE_POSITION = {edge: pos for pos, edge in enumerate(_TRIPLE_LINE.edges)}


class GluingClass(Enum):
    UNTWISTED = "Untwisted"
    TWISTED = "Twisted"
    INVALID = "Invalid"


@dataclass(frozen=True)
class PolygonGluing:
    """Identification data for the 6-gon onto the triple-line curve.

    ``component_targets[i]`` is the index k with C_i mapping onto D_k;
    ``node_targets[i]`` is the index of the point q receiving the node
    p_i = C_i meet C_{i+1}.  Any shape-valid data is accepted; semantic
    defects are reported by ``classify_gluing`` as Invalid.
    """

    component_targets: tuple[int, ...]
    node_targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "component_targets", tuple(int(x) for x in self.component_targets))
        object.__setattr__(self, "node_targets", tuple(int(x) for x in self.node_targets))
        if len(self.component_targets) != 6 or any(not 0 <= x <= 2 for x in self.component_targets):
            raise ValueError("component_targets must be six values in 0..2")
        if len(self.node_targets) != 6 or any(not 0 <= x <= 1 for x in self.node_targets):
            raise ValueError("node_targets must be six values in 0..1")


def classify_gluing(p: PolygonGluing) -> GluingClass:
    """Decide Untwisted / Twisted / Invalid for a candidate 6-gon gluing.

    Validity requires: every D_k is hit by exactly two components; identified
    components are disjoint in the 6-gon (never adjacent); each point q
    receives exactly three nodes whose branches cover the six components once
    each (a node fibre of cardinality > 3, or two branches of one component
    over the same point, cannot occur on a surface that is locally a normal
    crossing along the double curve).
    """
    comp, node = p.component_targets, p.node_targets
    for k in range(3):
        if comp.count(k) != 2:
            return GluingClass.INVALID
    for i in range(6):
        if comp[i] == comp[(i + 1) % 6]:
            return GluingClass.INVALID
    for q in range(2):
        nodes_over_q = [i for i in range(6) if node[i] == q]
        if len(nodes_over_q) != 3:
            return GluingClass.INVALID
        slots = [j for i in nodes_over_q for j in (i, (i + 1) % 6)]
        if len(set(slots)) != 6:
            return GluingClass.INVALID
    untwisted = all(comp[i] == comp[(i + 3) % 6] for i in range(6)) and all(
        node[i] == node[(i + 2) % 6] for i in range(6)
    )
    if untwisted:
        return GluingClass.UNTWISTED
    for i in range(6):
        if (
            comp[i] == comp[(i + 3) % 6]
            and comp[(i + 1) % 6] == comp[(i - 1) % 6]
            and comp[(i + 2) % 6] == comp[(i - 2) % 6]
            and node[i] == node[(i - 2) % 6]
        ):
            return GluingClass.TWISTED
    return GluingClass.INVALID


def gluing_morphism(p: PolygonGluing) -> GraphMorphism:
    """The induced dual-graph morphism of a valid (untwisted or twisted) gluing."""
    if classify_gluing(p) is GluingClass.INVALID:
        raise MalformedMorphism("an invalid gluing induces no curve morphism")
    white_map = {f"C{i}": f"D{p.component_targets[i]}" for i in range(6)}
    black_map = {f"p{i}": f"q{p.node_targets[i]}" for i in range(6)}
    edge_map = tuple(_TRIPLE_LINE_POSITION[(white_map[w], black_map[b])] for w, b in _HEXAGON.edges)
    return GraphMorphism(_HEXAGON, _TRIPLE_LINE, white_map, black_map, edge_map)


def all_gluings():
    """Every candidate gluing: component maps with fibres of size two, all node maps."""
    pairings = sorted(set(itertools.permutations((0, 0, 1, 1, 2, 2))))
    for comp in pairings:
        for node in itertools.product((0, 1), repeat=6):
            yield PolygonGluing(comp, node)


def _dihedral_images(p: PolygonGluing):
    comp, node = p.component_targets, p.node_targets
    for r in range(6):
        yield (
            tuple(comp[(i - r) % 6] for i in range(6)),
            tuple(node[(i - r) % 6] for i in range(6)),
        )
        # reflection i -> r - i sends the node {j, j+1} to the node {r-j-1, r-j}
        yield (
            tuple(comp[(r - i) % 6] for i in range(6)),
            tuple(node[(r - 1 - i) % 6] for i in range(6)),
        )


def canonical_gluing(p: PolygonGluing) -> PolygonGluing:
    """Lexicographically least representative of the dihedral orbit of p."""
    comp, node = min(_dihedral_images(p))
    return PolygonGluing(comp, node)


@dataclass(frozen=True)
class GluingSurvey:
    """Outcome of sweeping all candidate gluings, with dihedral reduction stats."""

    total: int
    untwisted: int
    twisted: int
    invalid: int
    orbit_counts: dict
    results: tuple


def enumerate_gluings(up_to_symmetry: bool = False) -> GluingSurvey:
    """Classify every candidate gluing; optionally keep one gluing per dihedral orbit."""
    counts = {cls: 0 for cls in GluingClass}
    orbit_reps: dict = {}
    results = []
    total = 0
    for p in all_gluings():
        total += 1
        cls = classify_gluing(p)
        counts[cls] += 1
        rep = canonical_gluing(p)
        if rep not in orbit_reps:
            orbit_reps[rep] = cls
        if not up_to_symmetry:
            results.append((p, cls))
        elif rep == p:
            results.append((p, cls))
    orbit_counts = {cls.value: 0 for cls in GluingClass}
    for cls in orbit_reps.values():
        orbit_counts[cls.value] += 1
    return GluingSurvey(
        total=total,
        untwisted=counts[GluingClass.UNTWISTED],
        twisted=counts[GluingClass.TWISTED],
        invalid=counts[GluingClass.INVALID],
        orbit_counts=orbit_counts,
        results=tuple(results),
    )


@dataclass(frozen=True)
class RationalModel:
    """A minimal model compatible with an anticanonical polygon: the polygon
    length m and the number n of blowups needed."""

    minimal_model: str
    polygon_size: int
    blowup_count: int


def enumerate_rational_models() -> list[RationalModel]:
    """All solutions of K^2 = m with m a positive multiple of 6 and n >= 0 blowups.

    K^2 drops by one per blowup from 9 (plane) or 8 (Hirzebruch surface), and
    the polygon length m must be a multiple of 6.
    """
    out = []
    for name, ksq in (("ProjectivePlane", 9), ("Hirzebruch", 8)):
        for m in range(6, ksq + 1, 6):
            out.append(RationalModel(name, m, ksq - m))
    return out
