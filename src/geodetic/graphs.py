"""Immutable simple undirected graphs with BFS distances and edge-list I/O.

Vertices are the integers ``0 .. vertex_count-1``.  The interchange format is
a plain text edge list: one edge per line as two whitespace-separated
non-negative integers, with blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


class GraphError(ValueError):
    """Raised for malformed input or operations outside a function's domain."""


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph, immutable after construction.

    ``adjacency[v]`` is the neighbour set of vertex ``v``.  Use
    :func:`from_edge_list` or :func:`parse_edge_list` rather than building
    the adjacency tuple by hand.
    """

    adjacency: tuple[frozenset[int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def vertices(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [(u, v) for u in self.vertices() for v in sorted(self.adjacency[u]) if u < v]

    def validate(self) -> None:
        """Check the simple-undirected invariants; raise GraphError on failure."""
        n = self.vertex_count
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if not 0 <= v < n:
                    raise GraphError(f"vertex {u} lists out-of-range neighbour {v}")
                if v == u:
                    raise GraphError(f"vertex {u} has a self-loop")
                if u not in self.adjacency[v]:
                    raise GraphError(f"edge ({u}, {v}) is not symmetric")


def from_edge_list(edges: Iterable[tuple[int, int]], *, vertex_count: int | None = None) -> Graph:
    """Build a graph from ``(u, v)`` pairs.

    Duplicate edges collapse.  The vertex count is ``1 + max endpoint``
    (0 for no edges) unless a larger ``vertex_count`` is given explicitly,
    which allows trailing isolated vertices.
    """
    pairs = []
    top = -1
    for u, v in edges:
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        pairs.append((u, v))
        top = max(top, u, v)
    n = top + 1
    if vertex_count is not None:
        if vertex_count < n:
            raise GraphError(f"vertex_count={vertex_count} is below max endpoint {top}")
        n = vertex_count
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(frozenset(s) for s in nbrs))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Each non-blank, non-comment line must hold exactly two non-negative
    integers.  Errors report the offending line and its 1-based number.
    """
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex in {raw!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop in {raw!r}")
        edges.append((u, v))
    return from_edge_list(edges)


def format_edge_list(g: Graph, *, header: str | None = None) -> str:
    """Render a graph in the edge-list text format (round-trips with parse)."""
    lines = [] if header is None else [f"# {line}" for line in header.splitlines()]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


@dataclass(frozen=True)
class DistanceTable:
    """BFS distances from ``source``; ``None`` marks an unreachable vertex."""

    source: int
    dist: tuple[int | None, ...]

    def __getitem__(self, v: int) -> int | None:
        return self.dist[v]


def bfs_distances(g: Graph, source: int) -> DistanceTable:
    """Breadth-first distances from ``source`` to every vertex."""
    if not 0 <= source < g.vertex_count:
        raise GraphError(f"source {source} is not a vertex")
    dist: list[int | None] = [None] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return DistanceTable(source, tuple(dist))


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0.

    The empty graph and the one-vertex graph count as connected.
    """
    if g.vertex_count <= 1:
        return True
    table = bfs_distances(g, 0)
    return all(d is not None for d in table.dist)


def diameter(g: Graph) -> int:
    """Largest distance between any two vertices; error if disconnected."""
    if g.vertex_count == 0:
        raise GraphError("diameter of the empty graph is undefined")
    best = 0
    for s in g.vertices():
        table = bfs_distances(g, s)
        for v, d in enumerate(table.dist):
            if d is None:
                raise GraphError(f"graph is disconnected: no path between {s} and {v}")
            best = max(best, d)
    return best
