from __future__ import annotations

import random
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
    lemma1_scan,
    path_graph,
    petersen_graph,
    subdivided_k4,
)
from geodetic.cycles import _least_repeat
from geodetic.geodesics import _row_max, _source_rows
from conftest import engine_rows
from corpus import hoffman_singleton_graph, one_point_union, relabel, seeded_samples, standard_corpus
from oracles import bfs_count_geodesics, bfs_lemma1, brute_k, brute_shortest_paths

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


def _with_trees(rng: random.Random, g, count: int):
    """``g`` with ``count`` new vertices, each hung from an earlier vertex."""
    n = g.vertex_count
    return from_edge_list([*g.edges(), *((rng.randrange(v), v) for v in range(n, n + count))])


def _joined(first_new: int, ends):
    """Each ``(u, v, length)`` of ``ends`` joined by a path of ``length``
    edges, with new inner vertices numbered from ``first_new``."""
    edges = []
    for u, v, length in ends:
        prev = u
        for _ in range(length - 1):
            edges.append((prev, first_new))
            prev, first_new = first_new, first_new + 1
        edges.append((prev, v))
    return from_edge_list(edges)


def _grid(rows: int, cols: int):
    return from_edge_list(
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    )


def _sparse(rng: random.Random, n: int):
    """A random recursive tree on n vertices plus up to n/4 random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = len(edges) + rng.randint(0, n // 4)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edge_list(sorted(edges))


def _random_trees(rng: random.Random):
    return [from_edge_list([(rng.randrange(v), v) for v in range(1, n)]) for n in range(2, 40)]


def _cycles_with_trees(rng: random.Random):
    return [
        relabel(rng, _with_trees(rng, cycle_graph(n), rng.randint(1, 2 * n)))
        for n in range(3, 30)
        for _ in range(3)
    ]


def _subdivided_bases(rng: random.Random):
    """Random bases with each edge made a chain of length 1 to 5, theta
    graphs (parallel chains between 0 and 1) and K4 subdivisions."""
    bases = [g for n in range(2, 8) for g in seeded_samples(n, 12, seed=900 + n)]
    graphs = [
        _joined(g.vertex_count, [(u, v, rng.randint(1, 5)) for u, v in g.edges()]) for g in bases
    ]
    graphs += [relabel(rng, _with_trees(rng, g, rng.randint(0, 6))) for g in graphs]
    graphs += [_joined(2, [(0, 1, length) for length in lengths]) for lengths in (
        (3, 3, 3), (4, 4, 4), (4, 4, 6), (5, 5), (5, 5, 5, 5), (3, 5, 7), (2, 4, 4), (6, 6, 2),
    )]
    return graphs + [
        subdivided_k4(tuple(rng.randint(1, 5) for _ in range(6))) for _ in range(30)
    ]


def _loop_chains(rng: random.Random):
    return [
        one_point_union(cycle_graph(a), cycle_graph(b)) for a in range(3, 10) for b in range(3, 10)
    ] + [one_point_union(complete_graph(4), cycle_graph(m)) for m in range(3, 12)]


def _grids_with_trees(rng: random.Random):
    """Relabelled grids of 3 to 12 vertices a side carrying pendant trees.
    Every grid vertex is in the kernel, so the plain-BFS branch searches a
    core whose labels are not 0 .. core_size - 1, and vertex 0 is often a
    tree vertex, which no search starts from."""
    return [
        relabel(rng, _with_trees(rng, _grid(rows, cols), rng.randint(1, rows * cols // 2)))
        for rows in range(3, 13)
        for cols in (rows, rng.randint(3, 12))
    ]


REFEREE_FAMILIES = {
    "standard corpus and Hoffman-Singleton": lambda rng: [
        *standard_corpus(),
        hoffman_singleton_graph(),
    ],
    "C3 to C40": lambda rng: [cycle_graph(n) for n in range(3, 41)],
    "paths and random trees": lambda rng: [path_graph(n) for n in range(2, 30)]
    + _random_trees(rng),
    "relabelled cycles with pendant trees": _cycles_with_trees,
    "subdivided bases and theta graphs": _subdivided_bases,
    "loop chains at a branch vertex": _loop_chains,
    "sparse graphs of 50 to 250 vertices": lambda rng: [
        _sparse(rng, rng.randint(50, 250)) for _ in range(60)
    ],
    "C400, C401 and a 15x15 grid": lambda rng: [cycle_graph(400), cycle_graph(401), _grid(15, 15)],
    "relabelled grids with pendant trees": _grids_with_trees,
}


def _two_core(g):
    """The vertices left after peeling vertices of degree <= 1 until none is
    left."""
    deg = [len(nbrs) for nbrs in g.adjacency]
    peeled = [v for v in g.vertices() if deg[v] < 2]
    for x in peeled:
        for y in g.adjacency[x]:
            deg[y] -= 1
            if deg[y] == 1:
                peeled.append(y)
    return sorted(set(g.vertices()) - set(peeled))


class TestAgainstBfsReferee:
    """``count_geodesics`` searches the 2-core and crosses chains in one
    step; the referee runs a plain BFS from every vertex.  Besides the
    profile, every vertex's row maximum is compared, since the profile
    alone shows only the row maxima that reach K first."""

    @pytest.mark.parametrize("family", sorted(REFEREE_FAMILIES))
    def test_matches_referee(self, family):
        for g in REFEREE_FAMILIES[family](random.Random(family)):
            assert count_geodesics(g) == bfs_count_geodesics(g), g.edges()
            if g.vertex_count <= 250:
                n = g.vertex_count
                dist, count = engine_rows(g)
                row_max = _source_rows(g, _row_max, lambda: n)
                assert row_max == [max(row) for row in count], g.edges()
                # lemma1's reading at each core source: its least level
                # with two or more geodesics, and the source.
                readings = _source_rows(g, _least_repeat, lambda: n)
                for v in _two_core(g):
                    levels = [d for d, c in zip(dist[v], count[v]) if c >= 2]
                    assert readings[v] == ((min(levels), v) if levels else None), g.edges()

    def test_pendant_edges_on_a_four_cycle(self):
        # The 4-cycle 2-3-4-5 with 0 hung from 2 and 1 from 4: the pair
        # (0, 1) has two geodesics, one around each side of the cycle.
        g = from_edge_list([(2, 3), (3, 4), (4, 5), (5, 2), (0, 2), (1, 4)])
        p = count_geodesics(g)
        assert (p.k_value, p.witness_pair, p.witness_distance) == (2, (0, 1), 4)

    def test_two_odd_cycles_at_one_vertex(self):
        p = count_geodesics(one_point_union(cycle_graph(7), cycle_graph(9)))
        assert (p.k_value, p.witness_pair, p.witness_distance) == (1, (0, 0), 0)

    @pytest.mark.parametrize("g", [
        from_edge_list([(0, 1), (1, 2), (1, 3), (3, 4)]),
        from_edge_list([], vertex_count=1),
    ], ids=["tree", "single vertex"])
    def test_tree_is_geodetic(self, g):
        p = count_geodesics(g)
        assert (p.k_value, p.witness_pair, p.witness_distance) == (1, (0, 0), 0)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], "no path between 0 and 3"),
        ([(0, 1), (1, 2), (2, 0), (3, 4)], "no path between 0 and 3"),
        ([(0, 3), (1, 2), (2, 4), (4, 1)], "no path between 0 and 1"),
        ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], "no path between 0 and 3"),
    ], ids=["tree and cycle", "cycle and tree", "edge and cycle", "two cycles"])
    def test_disconnected_message_names_vertex_zero(self, edges, message):
        g = from_edge_list(edges)
        with pytest.raises(GraphError) as want:
            bfs_count_geodesics(g)
        with pytest.raises(GraphError) as got:
            count_geodesics(g)
        assert str(got.value) == str(want.value) == f"graph is disconnected: {message}"

    def test_long_even_cycle(self):
        # One chain of 19,999 vertices; a search that walks it vertex by
        # vertex from every source takes minutes.
        p = count_geodesics(cycle_graph(20000))
        assert (p.k_value, p.witness_pair, p.witness_distance) == (2, (0, 10000), 10000)


LEMMA1_CAPS = (None, 4, 5, 6, 7, 8, 10, 13)


class TestLemma1AgainstBfsReferee:
    """``lemma1_scan`` reads the witness off the 2-core search of
    ``count_geodesics``; the referee runs one bounded BFS from every
    vertex.  The caps cover both sides of half a cycle's length, so the
    chain branch's filter on a full search is exercised."""

    @pytest.mark.parametrize("family", sorted(REFEREE_FAMILIES))
    def test_matches_referee(self, family):
        for g in REFEREE_FAMILIES[family](random.Random(family)):
            for max_len in LEMMA1_CAPS:
                assert lemma1_scan(g, max_len) == bfs_lemma1(g, max_len), (g.edges(), max_len)

    def test_families_cover_the_plain_branch(self, monkeypatch):
        # The cases of the plain-BFS branch that the referee must see: a
        # relabelled core; a running bound that first falls after a search
        # from a later core source than the first, so earlier sources were
        # searched at the full bound; and, on the grids, every cap.  A
        # search's bound is the depth it is started with.
        from geodetic import geodesics

        bounds: list[int] = []
        real = geodesics._bfs_levels

        def recording(adjacency, s, depth, *rows):
            bounds.append(depth)
            return real(adjacency, s, depth, *rows)

        monkeypatch.setattr(geodesics, "_bfs_levels", recording)
        relabelled, falls_later, grid_caps = 0, 0, set()
        for family in sorted(REFEREE_FAMILIES):
            for g in REFEREE_FAMILIES[family](random.Random(family)):
                core = _two_core(g)
                for max_len in LEMMA1_CAPS:
                    bounds.clear()
                    lemma1_scan(g, max_len)
                    if not bounds:
                        continue  # the chain branch, or a tree
                    assert len(bounds) == len(core)
                    relabelled += core != list(range(len(core)))
                    falls_later += bounds[0] == bounds[1] > min(bounds)
                    if family == "relabelled grids with pendant trees":
                        grid_caps.add(max_len)
        assert relabelled and falls_later
        assert grid_caps == set(LEMMA1_CAPS)


class TestPlainBranchRows:
    """The plain-BFS branch of ``_source_rows`` shares one pair of rows
    among its sources and runs each search only as far as its reader
    reads; afterwards only the entries the search wrote are reset."""

    def test_rows_reset_and_readings_match_full_rows(self):
        rng = random.Random(7)
        for trial in range(150):
            core_size = rng.randint(4, 16)
            # Every core vertex gets degree >= 3, so the kernel is the whole
            # core and the plain branch runs.
            edges = {(rng.randrange(v), v) for v in range(1, core_size)}
            while True:
                deg = [0] * core_size
                for u, v in edges:
                    deg[u] += 1
                    deg[v] += 1
                low = [v for v in range(core_size) if deg[v] < 3]
                if not low:
                    break
                w = rng.choice([x for x in range(core_size) if x != low[0]])
                edges.add((min(low[0], w), max(low[0], w)))
            g = relabel(rng, _with_trees(rng, from_edge_list(sorted(edges)), rng.randint(0, 6)))
            core = _two_core(g)
            in_core = set(core)
            dist_full, count_full = engine_rows(g)
            bounds: list[int] = []
            shared: list[tuple[list, list]] = []

            def depth():
                bounds.append(rng.randint(0, core_size))
                return bounds[-1]

            def read(v, dist, sigma, ends, levels):
                assert ends == ()
                assert dist == [None] * core_size and sigma == [0] * core_size
                shared.append((dist, sigma))
                bound, kind = bounds[-1], rng.randrange(3)
                within = {w: d for w, d in enumerate(dist_full[v]) if w in in_core and d <= bound}
                if kind == 0:
                    # Read a random number of levels; each is the set of
                    # core vertices at that distance, with their counts.
                    stop, reached = rng.randint(0, bound), [v]
                    for d, level in enumerate(levels, 1):
                        assert d <= bound
                        assert sorted(core[i] for i in level) == sorted(
                            w for w, dw in within.items() if dw == d
                        )
                        assert all(dist[i] == d for i in level)
                        assert all(sigma[i] == count_full[v][core[i]] for i in level)
                        reached += [core[i] for i in level]
                        if d == stop:
                            break
                    else:
                        assert sorted(reached) == sorted(within)
                    return None
                if kind == 1:
                    repeats = [d for w, d in within.items() if count_full[v][w] >= 2]
                    want = (min(repeats), v) if repeats else None
                    assert _least_repeat(v, dist, sigma, ends, levels) == want
                    # The search stopped at the first level with a repeat.
                    last = want[0] if want else bound
                    assert all(d is None or d <= last for d in dist)
                    return want
                want_max = max(count_full[v][w] for w in within)
                assert _row_max(v, dist, sigma, ends, levels) == want_max
                return want_max

            _source_rows(g, read, depth)
            assert len(shared) == core_size, trial
            assert all(pair[0] is shared[0][0] and pair[1] is shared[0][1] for pair in shared)
            dist, sigma = shared[0]
            assert dist == [None] * core_size and sigma == [0] * core_size, trial


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
