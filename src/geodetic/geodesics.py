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
from typing import Sequence

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

    Search: level by level over the direct kernel edges, as
    ``graphs._bfs_counts`` does over all edges; a vertex settled at level d
    sends an arrival through each chain to level d + L, settled when that
    level comes up.  A source inside a chain starts from its two ends, at
    distances j and L - j, and the two halves of its own chain are chains
    with the source as one end.  Chains are crossed only when they hold
    more core vertices than the kernel; otherwise each source runs
    ``_bfs_counts`` on the whole core, as on a grid or a complete graph.

    Witness: u is the least vertex whose row maximum (its root's, for a
    tree vertex) is K.  Any vertex reaching K with u is larger, so (u, v)
    is the first such pair, with v the first vertex above u at sigma = K
    in one BFS from u.  When K = 1 the witness is (0, 0) at distance 0.

    Cost: n sources x (kernel vertices + chains) at most, plus the peel
    and the witness BFS; memory stays linear.  Raises GraphError on the
    empty graph or a disconnected one, naming 0 and the first vertex
    unreachable from it, found by one BFS from 0 on that path only.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("cannot profile the empty graph")
    row_max = _row_maxima(g)
    k_value = max(row_max)
    if k_value == 1:
        return GeodesicProfile(n, 1, (0, 0), 0)
    u = row_max.index(k_value)
    dist, sigma = _bfs_counts(g, u, n)
    v = sigma.index(k_value)
    return GeodesicProfile(n, k_value, (u, v), dist[v])  # type: ignore[arg-type]


def _row_maxima(g: Graph) -> list[int]:
    """The row maximum of every vertex of a non-empty graph, at least 1;
    GraphError when the graph is disconnected."""
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
    # A connected graph leaves no vertex without a neighbour to hang from,
    # except the last vertex of a tree.
    if parent.count(-1) != (0 if core_size else 1):
        raise _disconnected(g)
    if not core_size:
        return [1] * n
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
    row_max = [0] * n
    if 2 * len(kernel) < core_size:
        _chain_row_maxima(kernel or [core[0]], core_nbrs, core_size, row_max, g)
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
            dist, sigma = _bfs_counts(core_graph, i, core_size)
            if not i and None in dist:
                raise _disconnected(g)
            row_max[v] = max(sigma)
    for x in reversed(order):
        row_max[x] = row_max[parent[x]]  # type: ignore[index]
    return row_max


def _disconnected(g: Graph) -> GraphError:
    """The error for a disconnected graph, naming 0 and the first vertex
    that cannot be reached from it."""
    dist = _bfs_counts(g, 0, g.vertex_count)[0]
    return GraphError(f"graph is disconnected: no path between 0 and {dist.index(None)}")


def _chain_row_maxima(
    kernel: list[int],
    core_nbrs: Sequence[tuple[int, ...]],
    core_size: int,
    row_max: list[int],
    g: Graph,
) -> None:
    """Fill ``row_max`` for every core vertex: walk each chain once from
    its kernel ends, then search from every kernel vertex and every chain
    vertex (see ``count_geodesics``)."""
    index = [-1] * len(core_nbrs)
    for i, v in enumerate(kernel):
        index[v] = i
    chains = []  # (a, b, interior vertices from a to b), a and b kernel indices
    covered = len(kernel)
    for a in kernel:
        for w in core_nbrs[a]:
            if index[w] != -1:
                continue
            prev, cur, interior = a, w, []
            while index[cur] == -1:
                index[cur] = -2
                interior.append(cur)
                x, y = core_nbrs[cur]
                prev, cur = cur, (y if x == prev else x)
            chains.append((index[a], index[cur], interior))
            covered += len(interior)
    if covered != core_size:
        raise _disconnected(g)
    size = len(kernel)
    kernel_nbrs = [tuple([index[w] for w in core_nbrs[v] if index[w] >= 0]) for v in kernel]
    chain_ends: list[tuple[tuple[int, int], ...]] = [()] * size
    ends = [(a, b, len(interior) + 1) for a, b, interior in chains]
    for a, b, length in ends:
        if a != b:  # a loop chain never shortens a path
            chain_ends[a] += ((b, length),)
            chain_ends[b] += ((a, length),)
    for i, v in enumerate(kernel):
        dist, sigma = _kernel_search(kernel_nbrs, chain_ends, ((i, 0),))
        if not i and None in dist:
            raise _disconnected(g)
        row_max[v] = _meeting_max(dist, sigma, ends, max(sigma))
    for c, (a, b, interior) in enumerate(chains):
        others = ends[:c] + ends[c + 1 :]
        length = len(interior) + 1
        for j, v in enumerate(interior, 1):
            rest = length - j
            dist, sigma = _kernel_search(kernel_nbrs, chain_ends, ((a, j), (b, rest)))
            top = _meeting_max(dist, sigma, others, max(sigma))
            # The two halves of the source's own chain, each with the
            # source (distance 0, count 1) as one end.
            da, db = dist[a], dist[b]
            if da < j and not (da + j) & 1 and sigma[a] >= top:  # type: ignore[operator]
                top = sigma[a] + 1
            if db < rest and not (db + rest) & 1 and sigma[b] >= top:  # type: ignore[operator]
                top = sigma[b] + 1
            row_max[v] = top


def _kernel_search(
    kernel_nbrs: list[tuple[int, ...]],
    chain_ends: list[tuple[tuple[int, int], ...]],
    seeds: tuple[tuple[int, int], ...],
) -> tuple[list[int | None], list[int]]:
    """Distances and geodesic counts to the kernel vertices from a source
    that reaches each seed ``(w, d)`` by one path of length d.

    A chain arrival due at a later level is held in ``dist`` and ``sigma``
    as if w were already reached then, and ``pending[level]`` lists the
    vertices due at that level.  A shorter arrival or direct edge
    overwrites it, and a stale entry of ``pending`` is skipped.
    """
    size = len(kernel_nbrs)
    dist: list[int | None] = [None] * size
    sigma = [0] * size
    pending: dict[int, list[int]] = {}
    for w, at in seeds:
        dw = dist[w]
        if dw is None or at < dw:
            dist[w] = at
            sigma[w] = 1
            pending.setdefault(at, []).append(w)
        elif at == dw:
            sigma[w] += 1
    level = 0
    reached: list[int] = []
    while True:
        if reached:
            # The counts of the vertices settled at this level are final,
            # so their chain arrivals can be scheduled.
            for v in reached:
                ends = chain_ends[v]
                if ends:
                    sv = sigma[v]
                    for w, length in ends:
                        at = level + length
                        dw = dist[w]
                        if dw is None or at < dw:
                            dist[w] = at
                            sigma[w] = sv
                            if at in pending:
                                pending[at].append(w)
                            else:
                                pending[at] = [w]
                        elif at == dw:
                            sigma[w] += sv
            frontier = reached
            level += 1
            reached = []
            for v in frontier:
                sv = sigma[v]
                for w in kernel_nbrs[v]:
                    dw = dist[w]
                    if dw is None or dw > level:
                        dist[w] = level
                        sigma[w] = sv
                        reached.append(w)
                    elif dw == level:
                        sigma[w] += sv
        elif pending:
            level = min(pending)
        else:
            return dist, sigma
        due = pending.pop(level, None)
        if due:
            for w in due:
                if dist[w] == level:
                    reached.append(w)


def _meeting_max(dist, sigma, ends, top: int) -> int:
    """``top`` raised to the meeting value sigma_a + sigma_b of every chain
    (a, b, L) whose two shortest routes meet at an interior vertex."""
    for a, b, length in ends:
        t = dist[b] + length - dist[a]
        if 0 < t < 2 * length and not t & 1:
            meet = sigma[a] + sigma[b]
            if meet > top:
                top = meet
    return top


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
