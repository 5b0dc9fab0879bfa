"""Deterministic graph corpus for the cross-validation suites.

``standard_corpus`` holds every connected labelled graph on up to five
vertices (772 graphs) plus seeded random connected samples on six and
seven vertices, for 872 graphs total, all with at most 7 vertices.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from geodetic import Graph, from_edge_list, is_connected


@lru_cache(maxsize=None)
def all_connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected labelled graph on exactly ``n`` vertices."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = from_edge_list(edges, vertex_count=n)
        if is_connected(g):
            out.append(g)
    return tuple(out)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus a random number of extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    all_pairs = list(combinations(range(n), 2))
    extra = rng.randrange(len(all_pairs) - n + 2)
    edges.update(rng.sample(all_pairs, extra))
    return from_edge_list(sorted(edges), vertex_count=n)


def seeded_samples(n: int, count: int, seed: int) -> tuple[Graph, ...]:
    rng = random.Random(seed)
    return tuple(random_connected_graph(rng, n) for _ in range(count))


@lru_cache(maxsize=None)
def standard_corpus() -> tuple[Graph, ...]:
    exhaustive = tuple(g for n in range(1, 6) for g in all_connected_graphs(n))
    return exhaustive + seeded_samples(6, 60, seed=601) + seeded_samples(7, 40, seed=701)


def relabel(rng: random.Random, g: Graph) -> Graph:
    """``g`` under a random permutation of its vertices."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in g.edges()])


def hoffman_singleton_graph() -> Graph:
    """The Hoffman-Singleton graph (50 vertices, 175 edges, girth 5,
    diameter 2): pentagons ``P_h[i] = 5h + i`` with i ~ i+1, pentagrams
    ``Q_j[i] = 25 + 5j + i`` with i ~ i+2, and ``P_h[i] ~ Q_j[(h*j + i) mod 5]``.
    A Moore graph, so geodetic."""
    edges = []
    for h in range(5):
        for i in range(5):
            edges.append((5 * h + i, 5 * h + (i + 1) % 5))
            edges.append((25 + 5 * h + i, 25 + 5 * h + (i + 2) % 5))
            for j in range(5):
                edges.append((5 * h + i, 25 + 5 * j + (h * j + i) % 5))
    return from_edge_list(edges)


def one_point_union(a: Graph, b: Graph) -> Graph:
    """``a`` and ``b`` glued at one vertex: ``b``'s vertex 0 becomes ``a``'s
    last vertex, and ``b``'s vertex v becomes ``v + a.vertex_count - 1``.
    A graph is geodetic exactly when each of its blocks is."""
    shift = a.vertex_count - 1
    return from_edge_list([*a.edges(), *((u + shift, v + shift) for u, v in b.edges())])
