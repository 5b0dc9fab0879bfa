from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
    path_graph,
    petersen_graph,
)
from geodetic.graphs import _bfs_counts, load_edge_list

edge_pairs = st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1])
edge_lists = st.lists(edge_pairs, max_size=26)


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        assert (g.vertex_count, g.edge_count) == (3, 3)
        assert g.has_edge(2, 0) and g.has_edge(0, 2)

    def test_empty(self):
        g = from_edge_list([])
        assert (g.vertex_count, g.edge_count) == (0, 0)

    def test_duplicates_collapse(self):
        g = from_edge_list([(0, 1), (0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"self-loop \(3, 3\)"):
            from_edge_list([(0, 1), (3, 3)])

    def test_negative_rejected(self):
        with pytest.raises(GraphError, match="negative"):
            from_edge_list([(-1, 2)])

    def test_explicit_vertex_count_allows_isolated(self):
        g = from_edge_list([(0, 1)], vertex_count=4)
        assert g.vertex_count == 4
        assert g.degree(3) == 0

    def test_vertex_count_below_max_endpoint_rejected(self):
        with pytest.raises(GraphError, match="vertex_count=2"):
            from_edge_list([(0, 5)], vertex_count=2)

    @given(edge_lists)
    def test_adjacency_invariants(self, edges):
        g = from_edge_list(edges)
        g.validate()
        assert g.edge_count == sum(g.degree(v) for v in g.vertices()) // 2

    @given(edge_lists)
    def test_neighbours_are_ascending_tuples(self, edges):
        expected: dict[int, set[int]] = {}
        for u, v in edges:
            expected.setdefault(u, set()).add(v)
            expected.setdefault(v, set()).add(u)
        text = "".join(f"{u} {v}\n" for u, v in edges)
        for g in (from_edge_list(edges), parse_edge_list(text)):
            assert isinstance(g.adjacency, tuple)
            for v in g.vertices():
                nbrs = g.neighbors(v)
                assert isinstance(nbrs, tuple)
                assert nbrs == tuple(sorted(expected.get(v, ())))

    def test_validate_rejects_unordered_neighbours(self):
        with pytest.raises(GraphError, match="vertex 0 are not strictly ascending"):
            Graph(((2, 1), (0,), (0,))).validate()
        with pytest.raises(GraphError, match="vertex 0 are not strictly ascending"):
            Graph(((1, 1), (0,))).validate()


class TestEdgeListFormat:
    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a triangle\n\n0 1\n 1 2 \n# done\n2 0\n")
        assert (g.vertex_count, g.edge_count) == (3, 3)

    def test_bad_field_count_reports_line(self):
        with pytest.raises(GraphError, match="line 3"):
            parse_edge_list("0 1\n1 2\n2 3 4\n")

    def test_non_integer_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\nx 2\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("5 5\n")

    def test_negative_reports_line(self):
        with pytest.raises(GraphError, match="line 2: negative"):
            parse_edge_list("0 1\n-1 2\n")

    def test_file_with_vertex_id_beyond_the_edges_rejected(self, tmp_path):
        # One edge touches two vertices, so id 999999999 leaves almost all
        # of them isolated; the check fires before any allocation.
        path = tmp_path / "huge.edges"
        path.write_text("0 999999999\n")
        with pytest.raises(GraphError, match="vertex id 999999999 implies 1000000000 vertices"):
            load_edge_list(path)
        path.write_text("0 2\n")
        with pytest.raises(GraphError, match="some vertex lies on no edge"):
            load_edge_list(path)

    def test_file_bound_admits_every_vertex_on_an_edge(self, tmp_path):
        # Two disjoint edges reach the bound: 4 vertices from 2 lines.
        path = tmp_path / "matching.edges"
        path.write_text("0 1\n2 3\n")
        assert load_edge_list(path).vertex_count == 4
        path.write_text("# nothing\n")
        with pytest.raises(GraphError, match="no edge lines"):
            load_edge_list(path)
        # Parsing text keeps isolated vertices below the highest id.
        assert parse_edge_list("0 2\n").vertex_count == 3

    def test_header_lines_become_comments(self):
        text = format_edge_list(cycle_graph(4), header="four cycle\nsecond line")
        assert text.startswith("# four cycle\n# second line\n")
        assert parse_edge_list(text).edge_count == 4

    def test_petersen_round_trip(self):
        g = petersen_graph()
        assert parse_edge_list(format_edge_list(g)).adjacency == g.adjacency

    def test_trailing_isolated_vertices_are_lost(self):
        # The text names no vertex count, so parsing stops at the highest
        # vertex on an edge.
        g = from_edge_list([(0, 1)], vertex_count=3)
        assert parse_edge_list(format_edge_list(g)).vertex_count == 2
        assert parse_edge_list(format_edge_list(path_graph(1))).vertex_count == 0

    @given(edge_lists)
    def test_round_trip_random(self, edges):
        g = from_edge_list(edges)
        assert parse_edge_list(format_edge_list(g)).adjacency == g.adjacency


def bfs_dist(g, s):
    return _bfs_counts(g, s, g.vertex_count)[0]


class TestBfsDistances:
    def test_cycle6(self):
        dist = bfs_dist(cycle_graph(6), 0)
        assert dist[3] == 3 and dist[1] == 1 and dist[5] == 1
        assert dist[0] == 0

    def test_complete4(self):
        assert sorted(bfs_dist(complete_graph(4), 2)) == [0, 1, 1, 1]

    def test_petersen_levels(self):
        g = petersen_graph()
        for s in g.vertices():
            assert sorted(bfs_dist(g, s)) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]

    def test_unreachable_is_none(self):
        g = from_edge_list([(0, 1)], vertex_count=3)
        assert _bfs_counts(g, 0, 3) == ([0, 1, None], [1, 1, 0])

    def test_depth_bound_stops_the_search(self):
        dist, count = _bfs_counts(cycle_graph(8), 0, 2)
        assert dist == [0, 1, 2, None, None, None, 2, 1]
        assert count == [1, 1, 1, 0, 0, 0, 1, 1]
        assert _bfs_counts(cycle_graph(8), 0, 4)[1][4] == 2

    @given(edge_lists)
    def test_edge_lipschitz_and_symmetry(self, edges):
        g = from_edge_list(edges)
        if g.vertex_count == 0:
            return
        tables = [bfs_dist(g, s) for s in g.vertices()]
        for u, v in g.edges():
            assert tables[u][v] == 1
        for u in g.vertices():
            assert tables[u][u] == 0
            for v in g.vertices():
                assert tables[u][v] == tables[v][u]
                if tables[u][v] is not None:
                    for w in g.neighbors(v):
                        assert abs(tables[u][v] - tables[u][w]) <= 1


class TestConnectivityAndDiameter:
    def test_cycle_connected(self):
        assert is_connected(cycle_graph(6))

    def test_two_triangles_disconnected(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_connected(g)

    def test_single_vertex_connected(self):
        assert is_connected(from_edge_list([], vertex_count=1))
        assert is_connected(from_edge_list([]))

    @settings(max_examples=40)
    @given(edge_lists)
    def test_triangle_inequality(self, edges):
        g = from_edge_list(edges)
        if g.vertex_count == 0 or not is_connected(g):
            return
        d = [bfs_dist(g, s) for s in g.vertices()]
        for u in g.vertices():
            for v in g.vertices():
                for w in g.vertices():
                    assert d[u][w] <= d[u][v] + d[v][w]
