"""Shortest-path multiplicity: counting, classification, and enumeration.

A graph is *geodetic* when every vertex pair is joined by exactly one
shortest path, and *K-geodetic* when no pair is joined by more than K.
Counts are exact Python integers, so multiplicities cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, bfs_distances


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
    """Per-pair distances and shortest-path counts for a connected graph.

    ``witness_pair`` is the lexicographically first pair attaining
    ``k_value``, so repeated runs report the same witness.
    """

    dist: tuple[tuple[int, ...], ...]
    count: tuple[tuple[int, ...], ...]
    k_value: int
    witness_pair: tuple[int, int]

    @property
    def vertex_count(self) -> int:
        return len(self.dist)

    def distance(self, u: int, v: int) -> int:
        return self.dist[u][v]

    def geodesic_count(self, u: int, v: int) -> int:
        return self.count[u][v]


def _bfs_counts(g: Graph, s: int, depth: int) -> tuple[list[int | None], list[int]]:
    """Distances and shortest-path counts from ``s`` to every vertex within
    ``depth`` of it; farther vertices keep distance None and count 0.

    Breadth-first, one level at a time: a vertex first reached at level d
    accumulates the path counts of all its level d-1 neighbours.
    """
    adjacency = g.adjacency
    dist: list[int | None] = [None] * g.vertex_count
    sigma = [0] * g.vertex_count
    dist[s] = 0
    sigma[s] = 1
    frontier = [s]
    level = 0
    while frontier and level < depth:
        level += 1
        reached = []
        for v in frontier:
            sv = sigma[v]
            for w in adjacency[v]:
                dw = dist[w]
                if dw is None:
                    dist[w] = level
                    sigma[w] = sv
                    reached.append(w)
                elif dw == level:
                    sigma[w] += sv
        frontier = reached
    return dist, sigma


def count_geodesics(g: Graph) -> GeodesicProfile:
    """Count shortest paths between all pairs by BFS multiplicity accumulation.

    Runs one unbounded :func:`_bfs_counts` per source.  Raises GraphError on
    the empty graph or when some pair is unreachable.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("cannot profile the empty graph")
    dist_rows: list[tuple[int, ...]] = []
    count_rows: list[tuple[int, ...]] = []
    for s in range(n):
        dist, sigma = _bfs_counts(g, s, n)
        for v, d in enumerate(dist):
            if d is None:
                raise GraphError(f"graph is disconnected: no path between {s} and {v}")
        dist_rows.append(tuple(dist))  # type: ignore[arg-type]
        count_rows.append(tuple(sigma))
    k_value, witness = 1, (0, 0)
    for u in range(n):
        for v in range(u + 1, n):
            if count_rows[u][v] > k_value:
                k_value, witness = count_rows[u][v], (u, v)
    return GeodesicProfile(tuple(dist_rows), tuple(count_rows), k_value, witness)


def classify_k(profile: GeodesicProfile) -> GeodeticClass:
    """Map a profile's maximum multiplicity to its class."""
    if profile.k_value < 1:
        raise GraphError(f"profile has impossible k_value {profile.k_value}")
    return GeodeticClass(profile.k_value)


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
    to_v = bfs_distances(g, v).dist
    if to_v[u] is None:
        raise GraphError(f"graph is disconnected: no path between {u} and {v}")
    paths: list[tuple[int, ...]] = []
    truncated = False
    # Depth-first over the BFS levels with an explicit stack, so paths of any
    # length fit; children are pushed in reverse sorted order, so they pop
    # in sorted order and paths come out lexicographically.
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
            for w in sorted(g.adjacency[vertex], reverse=True)
            if to_v[w] == here - 1  # type: ignore[operator]
        )
    return GeodesicPaths(tuple(paths), truncated)
