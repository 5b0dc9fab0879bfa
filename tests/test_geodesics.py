from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic import (
    GeodeticClass,
    GraphError,
    complete_graph,
    count_geodesics,
    cycle_graph,
    enumerate_geodesics,
    from_edge_list,
    is_connected,
    petersen_graph,
)
from conftest import engine_rows
from oracles import brute_k, brute_shortest_paths

edge_pairs = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1])
edge_lists = st.lists(edge_pairs, min_size=1, max_size=18)


class TestCountGeodesics:
    def test_cycle4_counts(self):
        _, count = engine_rows(cycle_graph(4))
        assert count[0][2] == 2
        assert count[1][3] == 2
        assert count[0][1] == 1
        p = count_geodesics(cycle_graph(4))
        assert p.k_value == 2
        assert p.witness_pair == (0, 2)
        assert p.witness_distance == 2

    def test_complete4_unique(self):
        p = count_geodesics(complete_graph(4))
        assert p.k_value == 1
        assert (p.witness_pair, p.witness_distance) == ((0, 0), 0)
        _, count = engine_rows(complete_graph(4))
        assert all(count[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_petersen_unique(self, petersen):
        assert count_geodesics(petersen).k_value == 1

    def test_diagonal(self):
        dist, count = engine_rows(cycle_graph(5))
        for v in range(5):
            assert dist[v][v] == 0
            assert count[v][v] == 1

    def test_disconnected_rejected(self):
        g = from_edge_list([(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="no path between 0 and"):
            count_geodesics(g)

    def test_empty_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            count_geodesics(from_edge_list([]))

    def test_memory_stays_linear(self):
        # The summary keeps one BFS row at a time; an n x n table of the
        # 600-cycle would take several megabytes.
        g = cycle_graph(600)
        tracemalloc.start()
        try:
            p = count_geodesics(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert (p.k_value, p.witness_pair, p.witness_distance) == (2, (0, 300), 300)

    @settings(max_examples=60)
    @given(edge_lists)
    def test_symmetry_on_random_graphs(self, edges):
        g = from_edge_list(edges)
        if not is_connected(g):
            return
        dist, count = engine_rows(g)
        for u in g.vertices():
            for v in g.vertices():
                assert dist[u][v] == dist[v][u]
                assert count[u][v] == count[v][u]

    @settings(max_examples=40)
    @given(edge_lists)
    def test_matches_brute_force(self, edges):
        g = from_edge_list(edges)
        if not is_connected(g):
            return
        dist, count = engine_rows(g)
        for u in g.vertices():
            for v in range(u, g.vertex_count):
                d, paths = brute_shortest_paths(g, u, v)
                assert dist[u][v] == d
                assert count[u][v] == len(paths)
        p = count_geodesics(g)
        assert (p.k_value, p.witness_pair) == brute_k(g)
        assert p.witness_distance == dist[p.witness_pair[0]][p.witness_pair[1]]


class TestClassifyK:
    def test_labels(self):
        assert str(GeodeticClass(1)) == "GEODETIC (K=1)"
        assert str(GeodeticClass(2)) == "BIGEODETIC (K=2)"
        assert str(GeodeticClass(3)) == "TRIGEODETIC (K=3)"
        assert str(GeodeticClass(5)) == "KGEODETIC (K=5)"

    def test_cycle6_is_bigeodetic(self):
        assert GeodeticClass(count_geodesics(cycle_graph(6)).k_value) == GeodeticClass(2)


class TestEnumerateGeodesics:
    def test_cycle4_opposite(self):
        r = enumerate_geodesics(cycle_graph(4), 0, 2, cap=10)
        assert r.paths == ((0, 1, 2), (0, 3, 2))
        assert not r.truncated

    def test_complete4_edge(self):
        r = enumerate_geodesics(complete_graph(4), 1, 3, cap=10)
        assert r.paths == ((1, 3),)

    def test_petersen_non_adjacent(self, petersen):
        r = enumerate_geodesics(petersen, 0, 2)
        assert len(r.paths) == 1 and len(r.paths[0]) == 3

    def test_truncation_is_flagged(self):
        r = enumerate_geodesics(cycle_graph(4), 0, 2, cap=1)
        assert len(r.paths) == 1 and r.truncated

    def test_trivial_pair(self):
        r = enumerate_geodesics(cycle_graph(4), 3, 3)
        assert r.paths == ((3,),)

    def test_bad_cap_rejected(self):
        with pytest.raises(GraphError, match="cap"):
            enumerate_geodesics(cycle_graph(4), 0, 2, cap=0)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            enumerate_geodesics(cycle_graph(4), 0, 7)

    def test_disconnected_rejected(self):
        g = from_edge_list([(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="no path"):
            enumerate_geodesics(g, 0, 3)

    def test_long_paths_in_order(self):
        # Each path has 1,201 vertices, deeper than the interpreter's
        # default recursion limit.
        r = enumerate_geodesics(cycle_graph(2400), 0, 1200)
        assert r.paths == (tuple(range(1201)), (0,) + tuple(range(2399, 1199, -1)))
        assert not r.truncated

    def test_counts_match_profile_on_petersen(self, petersen):
        dist, count = engine_rows(petersen)
        for u in petersen.vertices():
            for v in petersen.vertices():
                r = enumerate_geodesics(petersen, u, v)
                assert len(r.paths) == count[u][v]
                assert not r.truncated
                for path in r.paths:
                    assert len(path) - 1 == dist[u][v]

    @settings(max_examples=40)
    @given(edge_lists)
    def test_paths_are_geodesics(self, edges):
        g = from_edge_list(edges)
        if not is_connected(g) or g.vertex_count < 2:
            return
        dist, count = engine_rows(g)
        u, v = 0, g.vertex_count - 1
        r = enumerate_geodesics(g, u, v, cap=200)
        if not r.truncated:
            assert len(r.paths) == count[u][v]
        for path in r.paths:
            assert path[0] == u and path[-1] == v
            assert len(set(path)) == len(path)
            assert len(path) - 1 == dist[u][v]
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)
                assert dist[u][b] == dist[u][a] + 1

    @settings(max_examples=40)
    @given(edge_lists, st.integers(1, 4))
    def test_first_paths_match_brute_force(self, edges, cap):
        g = from_edge_list(edges)
        if not is_connected(g) or g.vertex_count < 2:
            return
        u, v = 0, g.vertex_count - 1
        _, brute = brute_shortest_paths(g, u, v)
        r = enumerate_geodesics(g, u, v, cap=cap)
        assert list(r.paths) == sorted(brute)[:cap]
        assert r.truncated == (len(brute) > cap)
