"""Shortest-path multiplicity: counting, classification, and enumeration.

A graph is *geodetic* when every vertex pair is joined by exactly one
shortest path, and *K-geodetic* when no pair is joined by more than K.
Counts are exact Python integers, so multiplicities cannot overflow.

``count_geodesics`` reads a graph the way the paper describes geodetic
graphs, through the paths and cycles it contains: it searches only the
2-core, with each pendant tree folded onto the core vertex it hangs from,
and crosses each chain of degree-2 core vertices in one step.  A cycle
then costs linear time instead of quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, GraphError, _bfs_counts, _chains


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
    """The largest shortest-path count K of a connected graph, the
    lexicographically first pair joined by K geodesics, and its distance.

    Terms: sigma(x, y) is the number of shortest x-y paths; a vertex's row
    maximum is the largest sigma from it to another vertex; r(x) is the
    core vertex that x's pendant tree hangs from (r(x) = x on the core).

    Pendant trees: peeling vertices of degree <= 1 until none is left
    leaves the 2-core.  No shortest path between core vertices enters a
    pendant tree, so sigma(x, y) = sigma(r(x), r(y)) when the roots differ
    and 1 when they are equal.  K is the largest row maximum over the core
    sources, and a tree has K = 1.

    Chains: the kernel is the core vertices of degree >= 3 and each
    degree-2 vertex whose two neighbours both have degree >= 3; a bare
    cycle keeps only its least vertex.  Every other core vertex lies in a
    chain (a, b, L) between kernel vertices, a = b allowed.  Its interior
    vertex i is at d = min(d_a + i, d_b + L - i) with sigma_a or sigma_b,
    whichever side is shorter, or sigma_a + sigma_b on a tie.  So a chain
    raises the row maximum only by that meeting value, when d_b + L - d_a
    is even and strictly between 0 and 2L.

    Search: ``graphs._chains`` walks each chain once, and the kernel
    becomes one weighted graph in which a direct edge is a chain of length
    1.  Each source searches it with a bucket queue, settling levels in
    increasing order; every length is at least 1, so a vertex's count is
    final when its level comes up.  A source inside a chain reaches its
    two ends at distances j and L - j, and the two halves of its own chain
    are chains with the source as one end.  Chains are crossed only when
    they hold more core vertices than the kernel; otherwise each source
    runs ``_bfs_counts`` on the whole core, as on a grid or a complete
    graph.

    Witness: u is the least vertex whose row maximum (its root's, for a
    tree vertex) is K.  Any vertex reaching K with u is larger, so (u, v)
    is the first such pair, with v the first vertex above u at sigma = K
    in one BFS from u.  When K = 1 the witness is (0, 0) at distance 0.

    Cost: n sources x (kernel vertices + chains) at most, plus the peel
    and the witness BFS; memory stays linear.  One BFS from 0 checks
    connectivity up front, and raises GraphError naming 0 and the first
    vertex it cannot reach; so does the empty graph.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("cannot profile the empty graph")
    dist = _bfs_counts(g, 0, n)[0]
    if None in dist:
        raise GraphError(f"graph is disconnected: no path between 0 and {dist.index(None)}")
    row_max = _source_rows(g, _row_max, lambda: n)
    k_value = max(row_max)
    if k_value == 1:
        return GeodesicProfile(n, 1, (0, 0), 0)
    u = row_max.index(k_value)
    dist, sigma = _bfs_counts(g, u, n)
    v = sigma.index(k_value)
    return GeodesicProfile(n, k_value, (u, v), dist[v])  # type: ignore[arg-type]


def _source_rows(g: Graph, read: Callable, depth: Callable[[], int]) -> list:
    """``read(v, dist, sigma, ends)`` at each core source v of a connected
    graph, searched as ``count_geodesics`` describes, and its root's at
    each tree vertex; a tree takes the reading of one vertex alone.  The
    row is over the kernel, with each chain (a, b, L) in ``ends``.  The
    plain-BFS branch reads the whole core, sources ascending, ``depth()``
    levels deep, asked anew for each source, and ``ends`` is empty.
    """
    adjacency = g.adjacency
    n = len(adjacency)
    deg = [len(nbrs) for nbrs in adjacency]
    # The peel: parent[x] stays None while x is in the core, and becomes the
    # neighbour x hung from when it was peeled, or -1 when none was left.
    parent: list[int | None] = [None] * n
    order = [v for v in range(n) if deg[v] < 2]
    for x in order:
        parent[x] = -1
        for y in adjacency[x]:
            if parent[y] is None:
                parent[x] = y
                deg[y] -= 1
                if deg[y] == 1:
                    order.append(y)
    core_size = n - len(order)
    if not core_size:
        return [read(0, [0], [1], ())] * n
    if order:
        core = [v for v in range(n) if parent[v] is None]
        core_nbrs = [
            nbrs if deg[v] == len(nbrs) else tuple([w for w in nbrs if parent[w] is None])
            for v, nbrs in enumerate(adjacency)
        ]
    else:
        core, core_nbrs = range(n), adjacency
    kernel = []
    for v in core:
        if deg[v] > 2:
            kernel.append(v)
        else:
            x, y = core_nbrs[v]
            if deg[x] > 2 < deg[y]:
                kernel.append(v)
    rows: list = [None] * n
    if 2 * len(kernel) < core_size:
        # Walk each chain once from its kernel ends, then search from every
        # kernel vertex and every chain vertex.
        kernel = kernel or [core[0]]
        index = [-1] * n
        for i, v in enumerate(kernel):
            index[v] = i
        size = len(kernel)
        nbrs: list[list[tuple[int, int]]] = [[] for _ in kernel]
        chains = []  # (a, b, L, inner vertices from a to b), a and b kernel indices
        for a, b, inner in _chains(core_nbrs, kernel):
            a, b, length = index[a], index[b], len(inner) + 1
            if a != b:  # a loop chain never shortens a path
                nbrs[a].append((b, length))
                nbrs[b].append((a, length))
            if inner:
                chains.append((a, b, length, inner))
        ends = [chain[:3] for chain in chains]
        for i, v in enumerate(kernel):
            dist, sigma = _kernel_search(nbrs, ((i, 0),))
            rows[v] = read(v, dist, sigma, ends)
        for c, (a, b, length, inner) in enumerate(chains):
            others = ends[:c] + ends[c + 1 :]
            for j, v in enumerate(inner, 1):
                dist, sigma = _kernel_search(nbrs, ((a, j), (b, length - j)))
                # The source is vertex ``size``, and the two halves of its
                # own chain are chains with it as one end.
                dist.append(0)
                sigma.append(1)
                rows[v] = read(v, dist, sigma, others + [(a, size, j), (size, b, length - j)])
    else:
        # The chains hold no more core vertices than the kernel, so run
        # the plain BFS on the whole core, relabelled 0 .. core_size - 1
        # when trees were peeled off.
        core_graph = g
        if order:
            index = [-1] * n
            for i, v in enumerate(core):
                index[v] = i
            core_graph = Graph(tuple(tuple([index[w] for w in core_nbrs[v]]) for v in core))
        for i, v in enumerate(core):
            dist, sigma = _bfs_counts(core_graph, i, depth())
            rows[v] = read(v, dist, sigma, ())
    for x in reversed(order):
        rows[x] = rows[parent[x]]  # type: ignore[index]
    return rows


def _kernel_search(
    nbrs: list[list[tuple[int, int]]], seeds: tuple[tuple[int, int], ...]
) -> tuple[list[int | None], list[int]]:
    """Distances and geodesic counts to the kernel vertices from a source
    that reaches each seed ``(w, d)`` by one path of length d, over the
    weighted edges ``nbrs[v] = [(w, L), ...]``.

    ``level[d]`` lists the vertices reached at distance d.  Levels are
    settled in increasing order; every L is at least 1, so a vertex's count
    is final when its level comes up.  A vertex listed at one level and
    then reached sooner stays listed there; relaxing it again lowers no
    distance, so it changes no count.
    """
    dist: list[int | None] = [None] * len(nbrs)
    sigma = [0] * len(nbrs)
    level: dict[int, list[int]] = {}
    for w, at in seeds:
        dw = dist[w]
        if dw is None or at < dw:
            dist[w] = at
            sigma[w] = 1
            level.setdefault(at, []).append(w)
        elif at == dw:
            sigma[w] += 1
    d = -1
    while level:
        # The next level is most often d + 1, found without a scan.
        d = d + 1 if d + 1 in level else min(level)
        for v in level.pop(d):
            sv = sigma[v]
            for w, length in nbrs[v]:
                at = d + length
                dw = dist[w]
                if dw is None or at < dw:
                    dist[w] = at
                    sigma[w] = sv
                    if at in level:
                        level[at].append(w)
                    else:
                        level[at] = [w]
                elif at == dw:
                    sigma[w] += sv
    return dist, sigma


def _meetings(dist, ends):
    """(a, b, level) for each chain (a, b, L) of ``ends`` whose shortest routes
    meet inside it, at level (d_a + d_b + L) / 2 with sigma_a + sigma_b."""
    for a, b, length in ends:
        t = dist[b] + length - dist[a]
        if 0 < t < 2 * length and not t & 1:
            yield a, b, dist[a] + t // 2


def _row_max(v, dist, sigma, ends) -> int:
    """The row maximum of source v, at a kernel vertex or a chain's meeting."""
    return max([max(sigma)] + [sigma[a] + sigma[b] for a, b, _ in _meetings(dist, ends)])


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
