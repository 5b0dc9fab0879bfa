from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic import (
    CycleView,
    GraphError,
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    from_edge_list,
    lemma1_scan,
    minimal_even_cycles,
    path_graph,
    validate_cycle_in,
)
from oracles import brute_lemma1, brute_minimal_even_cycles, brute_shortest_paths

edge_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1])
edge_lists = st.lists(edge_pairs, min_size=1, max_size=12)


class TestCycleView:
    def test_canonical_under_rotation_and_reversal(self):
        base = CycleView.from_sequence((0, 1, 2, 3, 4, 5))
        for rot in range(6):
            seq = tuple((i + rot) % 6 for i in range(6))
            assert CycleView.from_sequence(seq) == base
            assert CycleView.from_sequence(tuple(reversed(seq))) == base
        assert base.vertices == (0, 1, 2, 3, 4, 5)

    def test_edges_wrap_around(self):
        c = CycleView.from_sequence((0, 1, 2))
        assert c.edges() == [(0, 1), (1, 2), (2, 0)]
        assert c.length == 3

    def test_short_sequence_rejected(self):
        with pytest.raises(GraphError, match="at least 3"):
            CycleView.from_sequence((0, 1))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GraphError, match="repeats"):
            CycleView.from_sequence((0, 1, 2, 1))

    def test_validate_cycle_in(self):
        g = cycle_graph(6)
        validate_cycle_in(g, CycleView.from_sequence((0, 1, 2, 3, 4, 5)))
        with pytest.raises(GraphError, match="not an edge"):
            validate_cycle_in(g, CycleView.from_sequence((0, 1, 3)))

    def test_cycle_outside_the_graph_rejected(self):
        # The least vertex is looked up first, so it must not index past
        # the adjacency list.
        with pytest.raises(GraphError, match=r"\(7, 8\) is not an edge"):
            validate_cycle_in(cycle_graph(6), CycleView((7, 8, 9)))


class TestMinimalEvenCycles:
    def test_chorded_c8(self, c8_chord):
        length, cycles = minimal_even_cycles(c8_chord, 8)
        assert length == 8
        assert [c.vertices for c in cycles] == [(0, 1, 2, 3, 4, 5, 6, 7)]

    def test_odd_cycle_has_none(self):
        assert minimal_even_cycles(cycle_graph(7), 7) == (None, [])

    def test_complete4(self):
        length, cycles = minimal_even_cycles(complete_graph(4), 4)
        assert length == 4
        assert [c.vertices for c in cycles] == [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]

    def test_cycle6(self):
        assert minimal_even_cycles(cycle_graph(6), 6) == (6, [CycleView((0, 1, 2, 3, 4, 5))])

    def test_tree_has_none(self):
        assert minimal_even_cycles(path_graph(5), 5) == (None, [])

    def test_max_len_below_even_girth(self):
        assert minimal_even_cycles(cycle_graph(10), 9) == (None, [])
        assert minimal_even_cycles(cycle_graph(10), 10)[0] == 10

    def test_long_cycle(self):
        # A recursive search would exceed the interpreter's recursion limit.
        assert minimal_even_cycles(cycle_graph(1200), 1200) == (
            1200,
            [CycleView(tuple(range(1200)))],
        )

    def test_bad_max_len_rejected(self):
        with pytest.raises(GraphError, match="max_len"):
            minimal_even_cycles(cycle_graph(4), 3)

    def test_matches_brute_force_referee_on_corpus(self, corpus):
        for g in corpus:
            for max_len in range(4, max(g.vertex_count, 4) + 1):
                length, cycles = minimal_even_cycles(g, max_len)
                assert (length, [c.vertices for c in cycles]) == brute_minimal_even_cycles(
                    g, max_len
                )

    @settings(max_examples=50)
    @given(edge_lists, st.integers(4, 8))
    def test_matches_brute_force(self, edges, max_len):
        g = from_edge_list(edges)
        length, cycles = minimal_even_cycles(g, max_len)
        assert (length, [c.vertices for c in cycles]) == brute_minimal_even_cycles(g, max_len)

    @settings(max_examples=30)
    @given(edge_lists)
    def test_every_cycle_is_valid_and_canonical(self, edges):
        g = from_edge_list(edges)
        length, cycles = minimal_even_cycles(g, max(4, g.vertex_count))
        for c in cycles:
            validate_cycle_in(g, c)
            assert CycleView.from_sequence(c.vertices) == c
            assert c.length == length and length % 2 == 0


class TestLemma1Scan:
    def test_even_cycle_is_its_own_witness(self):
        verdict = lemma1_scan(cycle_graph(6))
        assert verdict.witness is not None
        assert verdict.witness.vertices == (0, 1, 2, 3, 4, 5)
        assert verdict.witness_pair == (0, 3)
        assert verdict.exhaustive

    def test_petersen_has_no_witness(self, petersen):
        verdict = lemma1_scan(petersen)
        assert verdict.witness is None
        assert verdict.exhaustive
        assert verdict.scanned_max_length == 10

    def test_h1_has_no_witness(self, h1):
        assert lemma1_scan(h1.graph).witness is None

    def test_complete4_has_no_witness(self):
        # Its 4-cycles all carry a diagonal, so no opposite pair realises
        # distance 2.
        assert lemma1_scan(complete_graph(4)).witness is None

    def test_witness_found_through_external_shortcut(self):
        # The cycle's own opposite pair (0, 3) is shortcut by the length-2
        # chord, but the pair (1, 4) still realises distance 3, so the
        # 6-cycle witnesses two distinct geodesics.
        g = cycle_with_chord(6, 0, 3, chord_length=2)
        verdict = lemma1_scan(g)
        assert verdict.witness is not None
        assert verdict.witness.vertices == (0, 1, 2, 3, 4, 5)
        assert verdict.witness_pair == (1, 4)

    def test_chorded_c8_witness(self, c8_chord):
        verdict = lemma1_scan(c8_chord)
        assert verdict.witness is not None
        assert verdict.witness.length == 8
        assert verdict.witness_pair == (2, 6)

    def test_long_cycle_witness(self):
        verdict = lemma1_scan(cycle_graph(1200))
        assert verdict.witness is not None
        assert verdict.witness.length == 1200
        assert verdict.witness_pair == (0, 600)

    def test_matches_brute_force_referee_on_corpus(self, corpus):
        for g in corpus:
            n = g.vertex_count
            for max_len in [None, *range(4, n + 1)]:
                verdict = lemma1_scan(g, max_len)
                scanned, exhaustive, expected = brute_lemma1(g, max_len)
                assert (verdict.scanned_max_length, verdict.exhaustive) == (scanned, exhaustive)
                assert (verdict.witness is None) == (expected is None)
                if expected is None:
                    continue
                c, (u, v) = verdict.witness, verdict.witness_pair
                assert c.length == len(expected[0])
                validate_cycle_in(g, c)
                half = c.length // 2
                i = c.vertices.index(u)
                assert u < v and c.vertices[(i + half) % c.length] == v
                assert brute_shortest_paths(g, u, v)[0] == half

    def test_short_max_len_is_inconclusive(self):
        verdict = lemma1_scan(cycle_graph(8), max_len=6)
        assert verdict.witness is None
        assert verdict.scanned_max_length == 6
        assert not verdict.exhaustive

    def test_tiny_graph_short_circuits(self):
        verdict = lemma1_scan(complete_graph(3))
        assert verdict.witness is None
        assert verdict.scanned_max_length == 3
        assert verdict.exhaustive

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            lemma1_scan(from_edge_list([(0, 1), (2, 3)]))

    def test_bad_max_len_rejected(self):
        with pytest.raises(GraphError, match="max_len"):
            lemma1_scan(cycle_graph(6), max_len=3)
