from __future__ import annotations

from itertools import product

import pytest

from geodetic import (
    GraphError,
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    decompose_segments,
    from_edge_list,
    subdivided_k4,
    theorem1_check,
)
from geodetic.homeomorph import four_segment_cycles, three_segment_cycles
from oracles import brute_k


class TestDecomposeSegments:
    def test_complete4(self):
        dec = decompose_segments(complete_graph(4))
        assert dec.nodes == (0, 1, 2, 3)
        assert sorted(dec.segments) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_h1(self, h1):
        dec = decompose_segments(h1.graph)
        assert dec.nodes == (0, 1, 3, 5)
        assert sorted(len(s) - 1 for s in dec.segments) == [1, 1, 1, 2, 2, 2]

    def test_two_node_graph(self, c8_chord):
        dec = decompose_segments(c8_chord)
        assert dec.nodes == (0, 4)
        assert sorted(len(s) - 1 for s in dec.segments) == [1, 4, 4]

    @pytest.mark.parametrize(
        "edges, nodes, segments",
        [
            (
                complete_graph(4).edges(),
                (0, 1, 2, 3),
                ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
            ),
            (  # three length-3 paths between 0 and 1, plus the edge 0-1
                [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1), (0, 1)],
                (0, 1),
                ((0, 1), (0, 2, 3, 1), (0, 4, 5, 1), (0, 6, 7, 1)),
            ),
            (  # three triangles sharing vertex 0: loop segments
                [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)],
                (0,),
                ((0, 1, 2, 0), (0, 3, 4, 0), (0, 5, 6, 0)),
            ),
        ],
    )
    def test_exact_walk_order_and_direction(self, edges, nodes, segments):
        dec = decompose_segments(from_edge_list(edges))
        assert dec.nodes == nodes
        assert dec.segments == segments

    def test_every_edge_on_exactly_one_segment(self, h1, h2, petersen, c8_chord):
        for g in (h1.graph, h2.graph, petersen, c8_chord, complete_graph(5)):
            dec = decompose_segments(g)
            covered = sorted(
                tuple(sorted(pair)) for s in dec.segments for pair in zip(s, s[1:])
            )
            assert covered == sorted(g.edges())

    def test_cycle_has_no_nodes(self):
        with pytest.raises(GraphError, match="no vertex of degree >= 3"):
            decompose_segments(cycle_graph(6))

    def test_leaf_rejected(self):
        star = from_edge_list([(0, 1), (0, 2), (0, 3)])
        with pytest.raises(GraphError, match="vertex 1 has degree 1"):
            decompose_segments(star)

    def test_disconnected_rejected(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4)])
        with pytest.raises(GraphError, match="connected"):
            decompose_segments(g)


class TestIsHomeomorphicToK4:
    def test_positives(self, h1):
        assert theorem1_check(complete_graph(4)).is_k4_homeomorph
        assert theorem1_check(h1.graph).is_k4_homeomorph
        assert theorem1_check(subdivided_k4((3, 1, 2, 1, 1, 2))).is_k4_homeomorph

    def test_negatives(self, h2, petersen, c8_chord):
        assert not theorem1_check(h2.graph).is_k4_homeomorph
        assert not theorem1_check(petersen).is_k4_homeomorph
        assert not theorem1_check(c8_chord).is_k4_homeomorph
        assert not theorem1_check(cycle_graph(6)).is_k4_homeomorph
        assert not theorem1_check(complete_graph(5)).is_k4_homeomorph


class TestCycleTemplates:
    def test_counts(self):
        nodes = (0, 1, 3, 5)
        assert len(three_segment_cycles(nodes)) == 4
        assert len(four_segment_cycles(nodes)) == 3

    def test_each_pair_lies_on_two_cycles_of_each_kind(self):
        nodes = (0, 1, 3, 5)
        pairs = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1 :]]

        def ring_pairs(cycle):
            return {frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))}

        for x, y in pairs:
            key = frozenset((x, y))
            tri = sum(key in ring_pairs(c) for c in three_segment_cycles(nodes))
            quad = sum(key in ring_pairs(c) for c in four_segment_cycles(nodes))
            assert (tri, quad) == (2, 2)


class TestTheorem1Check:
    def test_complete4(self):
        report = theorem1_check(complete_graph(4))
        assert report.is_k4_homeomorph
        assert report.segments_are_geodesics
        assert report.three_segment_cycles_odd
        assert report.four_segment_cycles_equal
        assert report.verdict_geodetic

    def test_h1(self, h1):
        assert theorem1_check(h1.graph).verdict_geodetic

    def test_even_triangle_fails(self):
        report = theorem1_check(subdivided_k4((2, 1, 1, 1, 1, 1)))
        assert report.is_k4_homeomorph
        assert not report.three_segment_cycles_odd
        assert not report.verdict_geodetic
        assert brute_k(subdivided_k4((2, 1, 1, 1, 1, 1)))[0] >= 2

    def test_non_subdivision_reports_nothing(self, petersen):
        report = theorem1_check(petersen)
        assert not report.is_k4_homeomorph
        assert report.segments_are_geodesics is None
        assert report.three_segment_cycles_odd is None
        assert report.four_segment_cycles_equal is None
        assert report.verdict_geodetic is None

    def test_verdict_matches_oracle_on_short_subdivisions(self):
        # All 64 subdivisions with segment lengths 1 or 2, against the
        # exhaustive path-counting oracle.
        agreements = 0
        for lengths in product((1, 2), repeat=6):
            g = subdivided_k4(lengths)
            verdict = theorem1_check(g).verdict_geodetic
            assert verdict == (brute_k(g)[0] == 1)
            agreements += 1
        assert agreements == 64

    def test_one_connectivity_check_per_call(self, monkeypatch):
        from geodetic import homeomorph

        calls = 0
        real_is_connected = homeomorph.is_connected

        def counting_is_connected(g):
            nonlocal calls
            calls += 1
            return real_is_connected(g)

        monkeypatch.setattr(homeomorph, "is_connected", counting_is_connected)
        for g in (subdivided_k4((2, 1, 1, 1, 1, 1)), complete_graph(4)):
            calls = 0
            assert theorem1_check(g).is_k4_homeomorph
            assert calls == 1
