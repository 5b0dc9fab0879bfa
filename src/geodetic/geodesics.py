"""Shortest-path multiplicity: counting, classification, and enumeration.

A graph is *geodetic* when every vertex pair is joined by exactly one
shortest path, and *K-geodetic* when no pair is joined by more than K.
Counts are exact Python integers, so multiplicities cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, _bfs_counts


@dataclass(frozen=True)
class GeodeticClass:
    """Classification by the largest geodesic multiplicity ``k``."""

    k: int

    @property
    def label(self) -> str:
        return {1: "GEODETIC", 2: "BIGEODETIC", 3: "TRIGEODETIC"}.get(self.k, "KGEODETIC")

    def __str__(self) -> str:
        return f"{self.label} (K={self.k})"


@dataclass(frozen=True)
class GeodesicProfile:
    """The largest shortest-path count of a connected graph and where it is
    first reached.

    ``witness_pair`` is the lexicographically first pair attaining
    ``k_value``, so repeated runs report the same witness; it is joined by
    ``k_value`` geodesics of length ``witness_distance``.  A geodetic graph
    reports the pair (0, 0) at distance 0.
    """

    vertex_count: int
    k_value: int
    witness_pair: tuple[int, int]
    witness_distance: int


def count_geodesics(g: Graph) -> GeodesicProfile:
    """Count shortest paths between all pairs by BFS multiplicity accumulation.

    Runs one unbounded BFS per source and keeps only the running maximum,
    so memory stays linear in the graph.  Raises GraphError on the empty
    graph or when some pair is unreachable.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("cannot profile the empty graph")
    k_value, witness, witness_distance = 1, (0, 0), 0
    for u in range(n):
        dist, sigma = _bfs_counts(g, u, n)
        if None in dist:
            raise GraphError(f"graph is disconnected: no path between {u} and {dist.index(None)}")
        top = max(sigma[u + 1 :], default=0)
        if top > k_value:
            v = sigma.index(top, u + 1)
            k_value, witness, witness_distance = top, (u, v), dist[v]
    return GeodesicProfile(n, k_value, witness, witness_distance)  # type: ignore[arg-type]


@dataclass(frozen=True)
class GeodesicPaths:
    """Shortest paths between one pair; ``truncated`` marks a hit cap."""

    paths: tuple[tuple[int, ...], ...]
    truncated: bool


def enumerate_geodesics(g: Graph, u: int, v: int, cap: int = 1000) -> GeodesicPaths:
    """List the distinct shortest u-v paths in lexicographic vertex order.

    Walks the BFS level structure from ``u`` toward ``v``, so every emitted
    path has strictly increasing levels.  At most ``cap`` paths are
    returned; if more exist the result is flagged truncated, never silently
    cut short.
    """
    if cap < 1:
        raise GraphError("cap must be >= 1")
    n = g.vertex_count
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"({u}, {v}) is not a vertex pair of this graph")
    to_v = _bfs_counts(g, v, n)[0]
    if to_v[u] is None:
        raise GraphError(f"graph is disconnected: no path between {u} and {v}")
    paths: list[tuple[int, ...]] = []
    truncated = False
    # Depth-first over the BFS levels with an explicit stack, so paths of any
    # length fit; children are pushed in descending order, so they pop in
    # ascending order and paths come out lexicographically.
    acc: list[int] = []
    stack = [(u, 0)]
    while stack:
        vertex, level = stack.pop()
        del acc[level:]
        acc.append(vertex)
        if vertex == v:
            if len(paths) >= cap:
                truncated = True
                break
            paths.append(tuple(acc))
            continue
        here = to_v[vertex]
        stack.extend(
            (w, level + 1)
            for w in reversed(g.adjacency[vertex])
            if to_v[w] == here - 1  # type: ignore[operator]
        )
    return GeodesicPaths(tuple(paths), truncated)
