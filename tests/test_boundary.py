import math

import pytest

from kdl.boundary import (
    AdjacencyEdge,
    StratumComponent,
    adjacency_edges,
    boundary_payload,
    enumerate_components,
    local_model,
    render_dot,
)
from kdl.classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    TYPES,
    EllipticRuledDatum,
    HopfDatum,
    RationalDatum,
    Verdict,
    classify,
    quotient_degree,
    smoothing_verdict,
)
from kdl.errors import NotDivisible
from kdl.smoothing import build_family


def d_semistable_witnesses():
    """The first d-semistable datum of each (type, degree, warp) in a bounded exact
    search: every Hopf datum with unit residues n1, n2 and n <= 12, then every
    ruled datum with e, w <= 12 and either admissibility flag."""
    units = {n: [a for a in range(n) if math.gcd(a, n) == 1] for n in range(1, 13)}
    data = [HopfDatum(n, n1, n2, b) for n in units for n1 in units[n] for n2 in units[n] for b in range(n)]
    data += [
        datum(e, w, flag)
        for datum in (EllipticRuledDatum, RationalDatum) for e in range(13) for w in range(13) for flag in (True, False)
    ]
    found = {}
    for datum in data:
        sc = classify(datum)
        if sc.d_semistable:
            found.setdefault((sc.surface_type, sc.degree, sc.warp), datum)
    return found


class TestComponents:
    def test_degree_one_warp_two(self):
        components = enumerate_components(1, 2)
        assert len(components) == 6
        assert {(c.stratum, c.degree, c.warp) for c in components} == {
            (s, w, w) for s in (HOPF, RATIONAL, ELLIPTIC_RULED) for w in (1, 2)
        }

    def test_degree_two_warp_one(self):
        components = enumerate_components(2, 1)
        assert len(components) == 3
        assert all((c.degree, c.warp) == (2, 1) for c in components)

    def test_param_spaces(self):
        spaces = {c.stratum: c.param_space for c in enumerate_components(1, 1)}
        assert spaces == {
            HOPF: "PuncturedDisk",
            RATIONAL: "CStar",
            ELLIPTIC_RULED: "ComplexLine",
        }

    def test_count_is_three_per_warp(self):
        for d in (1, 2, 3):
            for w_max in (1, 2, 3, 4):
                assert len(enumerate_components(d, w_max)) == 3 * w_max

    def test_warp_divides_degree_always(self):
        for d in (1, 2, 3):
            for c in enumerate_components(d, 4):
                assert c.degree % c.warp == 0
                assert c.degree // c.warp == d

    def test_components_classify_to_the_right_degree(self):
        # Every component (stratum, d*w, w) with d <= 3 and w <= 4 joins three
        # answers: a d-semistable datum of its type with those invariants
        # smooths to degree d, its type's family at (d*w, w) has generic fibre
        # degree d, and every edge joins two components of the same e/w.
        witnesses = d_semistable_witnesses()
        for d in (1, 2, 3):
            components = enumerate_components(d, 4)
            for c in components:
                verdict = smoothing_verdict(c.degree, c.warp, True)
                assert verdict == Verdict.kodaira_surface(d)
                if c.stratum == RATIONAL:
                    sc = classify(RationalDatum(c.degree, c.warp, untwisted=True))
                    assert sc.verdict == Verdict.kodaira_surface(d)
                elif c.stratum == ELLIPTIC_RULED:
                    sc = classify(EllipticRuledDatum(c.degree, c.warp, translation=True))
                    assert sc.verdict == Verdict.kodaira_surface(d)
                assert c.key in witnesses, f"no d-semistable witness of {c.key} in the search range"
                assert classify(witnesses[c.key]).verdict == Verdict.kodaira_surface(d), c.key
                family = build_family(TYPES[c.stratum].family, c.degree, c.warp, window=1)
                assert family.quotient_info.generic_fiber_degree == d, c.key
            edges = adjacency_edges(components)
            assert {edge.witness for edge in edges} == {"X1Family", "X2Family"}
            for edge in edges:
                (_, e1, w1), (_, e2, w2) = edge.endpoints
                assert quotient_degree(e1, w1) == quotient_degree(e2, w2) == d, edge.endpoints

    def test_invalid_component_rejected(self):
        with pytest.raises(NotDivisible, match="warp 2 must be a positive divisor of degree 3"):
            StratumComponent(HOPF, degree=3, warp=2)


class TestEdges:
    def test_degree_one_warp_two_edges(self):
        edges = adjacency_edges(enumerate_components(1, 2))
        keys = {(e.witness, e.endpoints) for e in edges}
        assert (
            "X1Family",
            ((ELLIPTIC_RULED, 1, 1), (HOPF, 1, 1)),
        ) in keys
        assert (
            "X1Family",
            ((ELLIPTIC_RULED, 2, 2), (HOPF, 2, 2)),
        ) in keys
        assert (
            "X2Family",
            ((RATIONAL, 1, 1), (ELLIPTIC_RULED, 2, 2)),
        ) in keys
        assert len(edges) == 3

    def test_no_hopf_rational_edge(self):
        for d in (1, 2, 3):
            for w_max in (1, 2, 3, 4):
                for e in adjacency_edges(enumerate_components(d, w_max)):
                    strata = {e.endpoints[0][0], e.endpoints[1][0]}
                    assert strata != {HOPF, RATIONAL}
                    assert ELLIPTIC_RULED in strata

    def test_x1_edge_count(self):
        # every (e, w) pair contributes one X1 edge
        for w_max in (1, 2, 3, 4):
            edges = adjacency_edges(enumerate_components(2, w_max))
            assert sum(1 for e in edges if e.witness == "X1Family") == w_max

    def test_x2_requires_both_endpoints(self):
        # with w_max = 1 the elliptic (2e, 2) component is absent
        edges = adjacency_edges(enumerate_components(1, 1))
        assert all(e.witness != "X2Family" for e in edges)

    def test_x2_rational_endpoint_has_warp_one(self):
        # the witnessing family deforms to rational normalization of warp
        # exactly 1, so a warp-2 rational component gains no X2 edge even
        # when the matching elliptic component exists
        components = [
            StratumComponent(RATIONAL, degree=4, warp=2),
            StratumComponent(ELLIPTIC_RULED, degree=8, warp=2),
        ]
        assert adjacency_edges(components) == []

    def test_degenerate_edge_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyEdge(
                endpoints=((HOPF, 1, 1), (HOPF, 1, 1)),
                witness="X1Family",
                witness_ref="x",
            )


class TestLocalModel:
    def test_fixed_fields(self):
        record = local_model()
        assert record["model"] == "blowup of (∞,0) in P¹×Δ"
        assert record["removed"] == "two points on exceptional divisor"
        assert record["normal_crossing_obstruction"] == "Thm: not of normal crossing type"
        assert record["quadrupel_point_local_equations"] == "T1*T2, T3*T4"
        assert "conjectural" in record["hopf_rational_edge"]


class TestRendering:
    def test_payload_counts(self):
        payload = boundary_payload(1, 2)
        assert len(payload["components"]) == 6
        assert len(payload["edges"]) == 3
        assert payload["local_model"]["removed"] == "two points on exceptional divisor"

    def test_dot_output(self):
        components = enumerate_components(1, 2)
        dot = render_dot(components, adjacency_edges(components))
        assert dot.startswith("graph moduli_boundary {")
        assert '"elliptic_ruled_e1_w1" -- "hopf_e1_w1" [label="X1Family"];' in dot
        assert dot.count("--") == 3
        assert dot.endswith("}\n")
