"""Cross-checks against networkx on seeded graphs past the brute-force range.

The oracles in ``oracles.py`` stop at 7 vertices; networkx's cycle and
shortest-path routines referee the fast algorithms on 30-60 vertex graphs.
networkx is a test-only dependency, so the module is skipped without it.
"""

from __future__ import annotations

import random

import pytest

from conftest import engine_rows
from geodetic import CycleView, count_geodesics, from_edge_list, minimal_even_cycles

nx = pytest.importorskip("networkx")

SEEDS = range(20)


def sparse_connected_graph(seed: int):
    """A random spanning tree on 30-60 vertices plus 3-8 extra edges."""
    rng = random.Random(seed)
    n = rng.randint(30, 60)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + rng.randint(3, 8):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = from_edge_list(sorted(edges), vertex_count=n)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return g, h


@pytest.mark.parametrize("seed", SEEDS)
def test_minimal_even_cycles_match_networkx(seed):
    g, h = sparse_connected_graph(seed)
    length, cycles = minimal_even_cycles(g, g.vertex_count)
    bound = length if length is not None else g.vertex_count
    even = [c for c in nx.simple_cycles(h, length_bound=bound) if len(c) % 2 == 0]
    if length is None:
        assert even == []
        return
    assert min(len(c) for c in even) == length
    expected = sorted(CycleView.from_sequence(c).vertices for c in even if len(c) == length)
    assert [c.vertices for c in cycles] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_count_geodesics_matches_networkx(seed):
    g, h = sparse_connected_graph(seed)
    dist, count = engine_rows(g)
    n = g.vertex_count
    for u in range(n):
        lengths = nx.single_source_shortest_path_length(h, u)
        assert dist[u] == [lengths[v] for v in range(n)]
    for u in random.Random(seed).sample(range(n), 3):
        for v in range(n):
            expected = len(list(nx.all_shortest_paths(h, u, v)))
            assert count[u][v] == expected
    profile = count_geodesics(g)
    k = max(max(row) for row in count)
    assert profile.k_value == k
    first = next((u, v) for u in range(n) for v in range(u + 1, n) if count[u][v] == k)
    assert profile.witness_pair == (first if k > 1 else (0, 0))
