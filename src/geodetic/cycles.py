"""Minimal even cycles and the even-cycle witness test for geodeticity.

A connected graph fails to be geodetic exactly when it contains an even
cycle C with a diametrically opposite vertex pair (u, v) whose distance in
the whole graph equals |C|/2: both arcs of C are then shortest u-v paths.
Conversely, any two geodesics of a closest pair joined by more than one
share no inner vertex and close up into such a cycle, so the shortest
witness has length 2·min{d(u, v) : σ(u, v) >= 2}, where σ counts shortest
paths.  ``lemma1_scan`` reads it off the 2-core search of
``count_geodesics``, linear on a cycle.  The chord-system certifier needs
only the shortest even cycles; ``minimal_even_cycles`` finds them by a
canonical depth-first search whose length bound doubles from 4, so no
round searches past twice the even girth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geodesics import _meetings, _source_rows, enumerate_geodesics
from .graphs import Graph, GraphError, _bfs_counts, is_connected


@dataclass(frozen=True)
class CycleView:
    """A simple cycle in canonical vertex order.

    Canonical form starts at the smallest vertex and proceeds toward the
    smaller of its two cycle neighbours, so each cycle has exactly one
    representation.
    """

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    @classmethod
    def from_sequence(cls, seq: tuple[int, ...] | list[int]) -> "CycleView":
        """Canonicalise any rotation/direction of a simple cycle sequence."""
        vs = tuple(seq)
        if len(vs) < 3:
            raise GraphError("a simple cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise GraphError(f"cycle sequence repeats a vertex: {vs}")
        start = vs.index(min(vs))
        rot = vs[start:] + vs[:start]
        if rot[-1] < rot[1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        return cls(rot)


def validate_cycle_in(g: Graph, c: CycleView) -> None:
    """Raise unless every consecutive pair of ``c`` is an edge of ``g``.
    Each vertex of ``c`` starts one pair, so a vertex outside ``g`` fails."""
    for u, v in c.edges():
        if not (0 <= u < g.vertex_count and g.has_edge(u, v)):
            raise GraphError(f"({u}, {v}) is not an edge of the graph")


@dataclass(frozen=True)
class Lemma1Verdict:
    """Outcome of the witness scan.

    ``witness`` is a shortest even cycle with an opposite pair realising
    distance |C|/2 in the host graph, and ``witness_pair`` is that pair
    (u, v), u < v: the least in (distance, u, v) order among the pairs
    joined by two or more geodesics.  Its two arcs are the pair's two
    lexicographically first geodesics, so the graph is not geodetic.
    ``exhaustive`` is True when every cycle length up to the vertex count
    was covered, so absence is conclusive.
    """

    witness: CycleView | None
    scanned_max_length: int
    exhaustive: bool
    witness_pair: tuple[int, int] | None = None


def minimal_even_cycles(g: Graph, max_len: int) -> tuple[int | None, list[CycleView]]:
    """Shortest even cycle length within ``max_len`` and all cycles of that
    length, sorted by vertex sequence; ``(None, [])`` when there is none.

    Rooted depth-first search in canonical form: a path grows from the
    smallest vertex of its cycle through larger ones only, and a closure is
    recorded only in the direction whose second vertex is smaller than its
    last.  The search runs with length bounds 4, 8, 16, ..., each capped at
    ``max_len``, and stops at the first bound that yields an even cycle;
    within a round the bound drops to the shortest even cycle found.  The
    last round's bound is below twice the even girth, and the bounds of all
    rounds sum to less than twice the last, so the cost is about that of
    listing the canonical paths up to twice the even girth, not every cycle
    of ``g``: on a bare n-cycle O(n²) steps, where raising the bound by 2
    per round would take O(n³).
    """
    if max_len < 4:
        raise GraphError("max_len must be >= 4")
    adjacency = g.adjacency
    on_path = [False] * g.vertex_count
    bound = 4
    while True:
        limit = min(bound, max_len)
        found: list[tuple[int, ...]] = []
        for root in g.vertices():
            path = [root]
            stack = [iter(adjacency[root])]
            while stack:
                for w in stack[-1]:
                    if w == root:
                        k = len(path)
                        if k >= 4 and k % 2 == 0 and path[1] < path[-1]:
                            if k < limit:
                                limit, found = k, []
                            found.append(tuple(path))
                    elif w > root and not on_path[w] and len(path) < limit:
                        path.append(w)
                        on_path[w] = True
                        stack.append(iter(adjacency[w]))
                        break
                else:
                    stack.pop()
                    on_path[path.pop()] = False
        if found:
            return limit, [CycleView(c) for c in sorted(found)]
        if bound >= max_len or bound >= g.vertex_count:
            return None, []
        bound *= 2


def _scan_scope(n: int, max_len: int | None) -> tuple[int, bool]:
    """The cycle lengths a scan capped at ``max_len`` covers on ``n``
    vertices: the longest, ``min(max_len, n)``, and whether that is every
    length a cycle can have.  ``max_len`` of None means no cap."""
    if max_len is None:
        return n, True
    if max_len < 4:
        raise GraphError("max_len must be >= 4")
    return min(max_len, n), max_len >= n


def lemma1_scan(g: Graph, max_len: int | None = None) -> Lemma1Verdict:
    """Search for a nongeodeticity witness of length at most ``max_len``
    (by default the vertex count, which makes the scan exhaustive).

    The witness pair (u, v), u < v, is least in (distance, u, v) order
    among the pairs joined by two or more geodesics; these share no inner
    vertex, or it would split off a closer such pair, so two of them close
    into the witness cycle.  The search of ``count_geodesics`` reads (d, u)
    at each source u, d its least level with two or more geodesics, and
    the least reading names u:
    - a tree vertex x never holds the pair, as sigma(x, y) = sigma(r(x), y)
      and d(r(x), y) < d(x, y); it copies its root's reading and label;
    - a partner v < u would read (d, v) < (d, u);
    - under the cap the pair is the global least one if d <= scanned / 2,
      and there is none otherwise, so a full chain search is filtered here.
    One BFS from u then gives v.  On the plain-BFS branch each search stops
    short of the least level read so far: a later source, being larger,
    wins only at a smaller level.
    """
    n = g.vertex_count
    if not is_connected(g):
        raise GraphError("witness scan requires a connected graph")
    scanned, exhaustive = _scan_scope(n, max_len)
    depth = scanned // 2

    def read(u, dist, sigma, ends):
        nonlocal depth
        row = _least_repeat(u, dist, sigma, ends)
        if row:
            depth = min(depth, row[0] - 1)
        return row

    best = min(filter(None, _source_rows(g, read, lambda: depth)), default=None)
    if best is None or best[0] > scanned // 2:
        return Lemma1Verdict(None, scanned, exhaustive)
    d, u = best
    dist, sigma = _bfs_counts(g, u, d)
    v = next(v for v in range(u + 1, n) if dist[v] == d and sigma[v] >= 2)
    first, second = enumerate_geodesics(g, u, v, cap=2).paths
    witness = CycleView.from_sequence(first + second[-2:0:-1])
    return Lemma1Verdict(witness, scanned, exhaustive, (u, v))


def _least_repeat(u, dist, sigma, ends) -> tuple[int, int] | None:
    """(d, u), d the least level at which source u has two geodesics, or None."""
    levels = [level for _, _, level in _meetings(dist, ends)]
    if max(sigma) > 1:
        levels.append(min(d for d, s in zip(dist, sigma) if s > 1))
    return (min(levels), u) if levels else None
