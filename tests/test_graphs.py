import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdl.errors import MalformedMorphism
from kdl.graphs import (
    BicolouredGraph,
    GluingClass,
    GraphMorphism,
    PolygonGluing,
    RationalModel,
    all_gluings,
    betti1,
    canonical_gluing,
    classify_gluing,
    enumerate_gluings,
    enumerate_rational_models,
    gluing_morphism,
    neron_polygon_graph,
    pullback_rank,
    triple_line_graph,
)
from kdl.graphs import _coboundary_rows
from kdl.lattice import rank_of

UNTWISTED = PolygonGluing((0, 1, 2, 0, 1, 2), (0, 1, 0, 1, 0, 1))
TWISTED = PolygonGluing((0, 1, 2, 0, 2, 1), (0, 1, 0, 1, 0, 1))


class TestBetti:
    def test_neron_6gon(self):
        g = neron_polygon_graph(6)
        assert (len(g.white), len(g.black), len(g.edges)) == (6, 6, 12)
        assert g.component_count() == 1
        assert betti1(g) == 1

    def test_triple_line_curve(self):
        g = triple_line_graph()
        assert (len(g.white), len(g.black), len(g.edges)) == (3, 2, 6)
        assert betti1(g) == 2

    def test_single_edge_tree(self):
        g = BicolouredGraph(("w",), ("b",), ((("w", "b")),))
        assert betti1(g) == 0

    def test_neron_1gon_is_nodal_cubic(self):
        g = neron_polygon_graph(1)
        assert len(g.edges) == 2
        assert betti1(g) == 1

    def test_polygon_cycle_structure(self):
        for k in (1, 2, 3, 6, 9):
            g = neron_polygon_graph(k)
            assert len(g.edges) == 2 * len(g.black) == 2 * len(g.white)
            assert betti1(g) == 1
            branches = {b: 0 for b in g.black}
            for _, b in g.edges:
                branches[b] += 1
            assert set(branches.values()) == {2}

    def test_additive_over_components(self):
        a = neron_polygon_graph(3)
        b = triple_line_graph()
        merged = BicolouredGraph(a.white + b.white, a.black + b.black, a.edges + b.edges)
        assert merged.component_count() == 2
        assert betti1(merged) == betti1(a) + betti1(b)


@st.composite
def bicoloured_graphs(draw):
    white = [f"w{i}" for i in range(draw(st.integers(0, 5)))]
    black = [f"b{i}" for i in range(draw(st.integers(0, 5)))]
    pairs = st.tuples(st.sampled_from(white), st.sampled_from(black))
    return BicolouredGraph(white, black, draw(st.lists(pairs, max_size=10)) if white and black else [])


class TestMorphism:
    @given(bicoloured_graphs())
    def test_coboundary_rank_is_vertices_minus_components(self, g):
        # pullback_rank takes rank(d) = |V| - #components in place of a
        # reduction of the coboundary matrix.
        assert g.vertex_count() - g.component_count() == rank_of(_coboundary_rows(g))
        identity = GraphMorphism(g, g, {w: w for w in g.white}, {b: b for b in g.black}, tuple(range(len(g.edges))))
        assert pullback_rank(identity) == betti1(g)

    def test_identity_pullback_rank_is_betti1(self):
        for g in (neron_polygon_graph(6), triple_line_graph(), neron_polygon_graph(2)):
            identity = GraphMorphism(
                g, g, {w: w for w in g.white}, {b: b for b in g.black}, tuple(range(len(g.edges)))
            )
            assert pullback_rank(identity) == betti1(g)

    def test_incidence_violation_rejected(self):
        g = neron_polygon_graph(2)
        with pytest.raises(MalformedMorphism):
            GraphMorphism(
                g,
                g,
                {w: w for w in g.white},
                {b: b for b in g.black},
                tuple((i + 1) % len(g.edges) for i in range(len(g.edges))),
            )

    def test_missing_vertex_image_rejected(self):
        g = neron_polygon_graph(2)
        with pytest.raises(MalformedMorphism):
            GraphMorphism(g, g, {"C0": "C0"}, {b: b for b in g.black}, tuple(range(len(g.edges))))


class TestClassifyGluing:
    def test_untwisted_pattern(self):
        assert classify_gluing(UNTWISTED) is GluingClass.UNTWISTED

    def test_twisted_pattern(self):
        assert classify_gluing(TWISTED) is GluingClass.TWISTED

    def test_adjacent_identification_invalid(self):
        p = PolygonGluing((0, 0, 1, 1, 2, 2), (0, 1, 0, 1, 0, 1))
        assert classify_gluing(p) is GluingClass.INVALID

    def test_unbalanced_node_fibres_invalid(self):
        p = PolygonGluing((0, 1, 2, 0, 1, 2), (0, 0, 0, 0, 1, 1))
        assert classify_gluing(p) is GluingClass.INVALID

    def test_node_fibre_through_one_component_twice_invalid(self):
        p = PolygonGluing((0, 1, 2, 0, 1, 2), (0, 0, 1, 0, 1, 1))
        assert classify_gluing(p) is GluingClass.INVALID

    def test_component_fibre_of_size_three_invalid(self):
        p = PolygonGluing((0, 1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1))
        assert classify_gluing(p) is GluingClass.INVALID


class TestPullbackRank:
    def test_untwisted_rank_zero(self):
        assert pullback_rank(gluing_morphism(UNTWISTED)) == 0

    def test_twisted_rank_one(self):
        assert pullback_rank(gluing_morphism(TWISTED)) == 1

    def test_invalid_gluing_has_no_morphism(self):
        with pytest.raises(MalformedMorphism):
            gluing_morphism(PolygonGluing((0, 0, 1, 1, 2, 2), (0, 1, 0, 1, 0, 1)))

    def test_rank_bounded_by_both_betti_numbers(self):
        bound = min(betti1(triple_line_graph()), betti1(neron_polygon_graph(6)))
        assert bound == 1
        for p, cls in enumerate_gluings().results:
            if cls is not GluingClass.INVALID:
                assert 0 <= pullback_rank(gluing_morphism(p)) <= bound


class TestExhaustiveTheoremCheck:
    def test_untwisted_iff_rank_zero(self):
        seen_twisted_rank_one = False
        for p, cls in enumerate_gluings().results:
            if cls is GluingClass.INVALID:
                continue
            rank = pullback_rank(gluing_morphism(p))
            assert (rank == 0) == (cls is GluingClass.UNTWISTED), p
            if cls is GluingClass.TWISTED:
                assert rank == 1
                seen_twisted_rank_one = True
        assert seen_twisted_rank_one

    def test_survey_counts(self):
        survey = enumerate_gluings()
        assert survey.total == 90 * 64
        assert survey.untwisted == 12
        assert survey.twisted == 36
        assert survey.invalid == survey.total - 48

    def test_dihedral_classification_invariance(self):
        from kdl.graphs import _dihedral_images

        for p, cls in enumerate_gluings(up_to_symmetry=True).results:
            for comp, node in _dihedral_images(p):
                assert classify_gluing(PolygonGluing(comp, node)) is cls

    def test_canonical_is_idempotent(self):
        for p, _ in enumerate_gluings(up_to_symmetry=True).results:
            assert canonical_gluing(p) == p


class TestRationalModels:
    def test_exact_enumeration(self):
        models = enumerate_rational_models()
        assert models == [
            RationalModel("ProjectivePlane", 6, 3),
            RationalModel("Hirzebruch", 6, 2),
        ]
