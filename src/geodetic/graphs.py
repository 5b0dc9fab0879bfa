"""Immutable simple undirected graphs, breadth-first path counting, and
edge-list I/O.

Vertices are the integers ``0 .. vertex_count-1``.  The interchange format is
a plain text edge list: one edge per line as two whitespace-separated
non-negative integers, with blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for malformed input or operations outside a function's domain."""


# The vertex ceiling.  A short input can name a graph of any size, so a
# graph with more vertices than this, and more than two per edge, is
# refused before its adjacency is allocated; so is a larger spec in
# ``embedding.build``.
MAX_VERTICES = 10**6


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph, immutable after construction.

    ``adjacency[v]`` is the tuple of the neighbours of vertex ``v`` in
    ascending order, so every walk over it visits neighbours in a fixed
    order.  Use :func:`from_edge_list` or :func:`parse_edge_list` rather
    than building the adjacency tuple by hand.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def vertices(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [(u, v) for u in self.vertices() for v in self.adjacency[u] if u < v]

    def validate(self) -> None:
        """Check the simple-undirected invariants; raise GraphError on failure."""
        n = self.vertex_count
        for u, nbrs in enumerate(self.adjacency):
            if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
                raise GraphError(f"neighbours of vertex {u} are not strictly ascending")
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
    which allows trailing isolated vertices.  A vertex count above both
    ``MAX_VERTICES`` and twice the number of edges is refused before any
    adjacency set is allocated.
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
    if n > max(MAX_VERTICES, 2 * len(pairs)):
        raise GraphError(
            f"{n} vertices exceed both MAX_VERTICES = {MAX_VERTICES} "
            f"and twice the edge count {len(pairs)}"
        )
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(tuple(sorted(s)) for s in nbrs))


def _edge_lines(text: str) -> list[tuple[int, int]]:
    """The edges of the edge-list text format, one per non-blank,
    non-comment line, with errors naming the offending line."""
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
    return edges


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Each non-blank, non-comment line must hold exactly two non-negative
    integers.  Errors report the offending line and its 1-based number.
    """
    return from_edge_list(_edge_lines(text))


def format_edge_list(g: Graph, *, header: str | None = None) -> str:
    """Render a graph in the edge-list text format, one line per edge.

    ``parse_edge_list`` gives the graph back when its highest vertex lies on
    an edge (or it has no vertex).  The text names no vertex count, so
    trailing isolated vertices are lost: ``path_graph(1)`` comes back with
    no vertex.
    """
    lines = [] if header is None else [f"# {line}" for line in header.splitlines()]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_edge_list(path: str | Path) -> Graph:
    """Read an edge-list file whose every vertex lies on an edge.

    A file with no edge line is refused: it names no vertex at all.  k edge
    lines touch at most 2k vertices, so a larger vertex id leaves a vertex
    on no edge and the graph disconnected.  Such a file is refused before
    an adjacency set is allocated per id, so one huge id cannot exhaust
    memory.  A file that is not UTF-8 text is refused too.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise GraphError(f"{path} is not UTF-8 text") from None
    edges = _edge_lines(text)
    if not edges:
        raise GraphError("no edge lines, so the graph has no vertex")
    top = max(map(max, edges))
    if top + 1 > 2 * len(edges):
        raise GraphError(
            f"vertex id {top} implies {top + 1} vertices, more than twice the "
            f"number of edge lines ({len(edges)}), so some vertex lies on no edge"
        )
    return from_edge_list(edges)


def _bfs_counts(g: Graph, s: int, depth: int) -> tuple[list[int | None], list[int]]:
    """Distances and shortest-path counts from ``s`` to every vertex within
    ``depth`` of it; farther vertices keep distance None and count 0.

    Breadth-first, one level at a time: a vertex first reached at level d
    accumulates the path counts of all its level d-1 neighbours.  Every
    distance and geodesic count outside ``geodesics._source_rows`` is read
    off its rows: connectivity, witness pairs and paths, and the sweep's
    pair property.  The per-source rows of ``count_geodesics`` and
    ``lemma1_scan`` come from ``_source_rows`` instead.  It walks the chains
    of a 2-core with ``_chains`` and searches the kernel between them as a
    weighted graph, or, on a core with few chain vertices, runs this same
    level loop as ``geodesics._bfs_levels`` on one pair of rows shared by
    every source, so that a pruned search costs only the ball it reaches.
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


def _chains(
    adjacency: Sequence[tuple[int, ...]], ends: Sequence[int]
) -> list[tuple[int, int, list[int]]]:
    """Every path between two vertices of ``ends`` whose inner vertices all
    have degree 2, once each, as ``(a, b, inner)`` with ``inner`` listed
    from a to b.

    Paths come in the order they are first reached, scanning ``ends`` in
    order and each end's neighbours in order, each listed from the end it
    was reached from.  An edge between two ends has no inner vertex and is
    listed from its lower end; a path from an end back to itself has a = b.
    A vertex on no listed path cannot be reached from ``ends`` through
    degree-2 vertices.
    """
    is_end = [False] * len(adjacency)
    for v in ends:
        is_end[v] = True
    walked = is_end[:]
    chains = []
    for a in ends:
        for w in adjacency[a]:
            if is_end[w]:
                if a < w:
                    chains.append((a, w, []))
            elif not walked[w]:
                prev, cur, inner = a, w, []
                while not walked[cur]:
                    walked[cur] = True
                    inner.append(cur)
                    x, y = adjacency[cur]
                    prev, cur = cur, (y if x == prev else x)
                chains.append((a, cur, inner))
    return chains


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0.

    The empty graph and the one-vertex graph count as connected.
    """
    if g.vertex_count <= 1:
        return True
    return None not in _bfs_counts(g, 0, g.vertex_count)[0]
