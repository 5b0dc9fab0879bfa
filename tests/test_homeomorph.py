from __future__ import annotations

import dataclasses
import random
from itertools import combinations, product

import pytest

from geodetic import (
    EmbeddedSpec,
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    decompose_segments,
    evaluate_spec,
    from_edge_list,
    petersen_graph,
    subdivided_k4,
    theorem1_check,
)
from corpus import relabel
from oracles import bfs_theorem1_check, brute_k


def disjoint_union(*parts: Graph) -> Graph:
    edges, shift = [], 0
    for part in parts:
        edges += [(u + shift, v + shift) for u, v in part.edges()]
        shift += part.vertex_count
    return from_edge_list(edges, vertex_count=shift)


K3 = complete_graph(3)
# Three paths, of lengths 2, 3 and 4, between vertices 0 and 1.
THETA = from_edge_list([(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)])


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
        # All 729 subdivisions with segment lengths 1 to 3, against the
        # exhaustive path-counting oracle.  Length 3 makes some segments
        # longer than a route through another node, so each condition
        # both holds and fails somewhere.
        seen = set()
        for lengths in product((1, 2, 3), repeat=6):
            g = subdivided_k4(lengths)
            report = theorem1_check(g)
            assert report.verdict_geodetic == (brute_k(g)[0] == 1), lengths
            seen.add(dataclasses.astuple(report)[1:4])
        for bit in range(3):
            assert {bits[bit] for bits in seen} == {True, False}

    def test_runs_no_breadth_first_search(self, monkeypatch):
        from geodetic import graphs, homeomorph

        def no_bfs(*args):
            raise AssertionError("theorem1_check ran a breadth-first search")

        assert not hasattr(homeomorph, "_bfs_counts")
        monkeypatch.setattr(graphs, "_bfs_counts", no_bfs)
        for g in (subdivided_k4((2, 1, 1, 1, 1, 1)), complete_graph(4)):
            assert theorem1_check(g).is_k4_homeomorph
        for g in (cycle_graph(6), complete_graph(5), disjoint_union(complete_graph(4), K3)):
            assert not theorem1_check(g).is_k4_homeomorph


class TestTheorem1MatchesBfsReferee:
    """The segment-length arithmetic of ``theorem1_check`` against
    ``bfs_theorem1_check``, which tests connectivity and condition 1 by
    breadth-first search: every report field must agree."""

    def test_short_subdivisions_and_relabellings(self):
        rng = random.Random(2023)
        checked = 0
        for lengths in product((1, 2, 3, 4), repeat=6):
            g = subdivided_k4(lengths)
            for h in (g, relabel(rng, g)):
                report = theorem1_check(h)
                assert report.is_k4_homeomorph
                assert dataclasses.astuple(report) == dataclasses.astuple(bfs_theorem1_check(h))
                checked += 1
        assert checked == 8192

    @pytest.mark.parametrize(
        "g",
        [
            from_edge_list([(0, i) for i in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (4, 1)]),
            disjoint_union(complete_graph(4), K3),
            from_edge_list([*complete_graph(4).edges(), (0, 4)]),
            THETA,
            disjoint_union(THETA, THETA),
            complete_graph(5),
            petersen_graph(),
            cycle_graph(6),
            cycle_with_chord(8, 0, 4),
        ],
        ids=["W4", "K4+K3", "K4+pendant", "theta", "2theta", "K5", "petersen", "C6", "C8+chord"],
    )
    def test_other_shapes(self, g):
        report = theorem1_check(g)
        assert not report.is_k4_homeomorph
        assert dataclasses.astuple(report) == dataclasses.astuple(bfs_theorem1_check(g))


class TestTheorem1IsTheTwoChordCase:
    """A measured consequence of the paper's claim, not a new claim: a K4
    subdivision is an even cycle (any ring of four segments) carrying the
    two segments left out as an interleaved two-chord system, so the K4
    test agrees with conditions 1 and 2 on each of its three rings."""

    # The rings through nodes 0..3 of subdivided_k4, as (p, q, r, s).
    RINGS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))

    def test_every_ring_of_short_subdivisions(self):
        checked = geodetic = 0
        for lengths in product((1, 2, 3, 4), repeat=6):
            verdict = theorem1_check(subdivided_k4(lengths)).verdict_geodetic
            geodetic += verdict
            span = {}
            for (x, y), length in zip(combinations(range(4), 2), lengths):
                span[x, y] = span[y, x] = length
            for p, q, r, s in self.RINGS:
                arcs = (span[p, q], span[q, r], span[r, s], span[s, p])
                ring = sum(arcs)
                holds = ring % 2 == 0 and evaluate_spec(
                    EmbeddedSpec(ring // 2, 2, arcs, (span[p, r], span[q, s]))
                ).all_conditions_hold
                assert verdict == holds, (lengths, (p, q, r, s))
                checked += 1
        assert checked == 3 * 4096
        assert 0 < geodetic < 4096
