"""Segment decomposition and the geodeticity test for K4 subdivisions.

A *node* is a vertex of degree >= 3; a *segment* is a path between nodes
whose interior vertices all have degree 2.  A graph homeomorphic to K4
(four degree-3 nodes joined pairwise by six segments) is geodetic exactly
when

1. each segment is a shortest path between its endpoints,
2. the four cycles made of three segments all have odd length, and
3. the three cycles made of four segments all have equal length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, _bfs_counts, _chains, is_connected


@dataclass(frozen=True)
class SegmentDecomposition:
    """The nodes of a graph and its node-to-node segments.

    Every edge lies on exactly one segment.  A segment is stored as its
    full vertex path; closed segments (a degree-2 loop returning to the
    same node) keep that node at both ends.
    """

    nodes: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]


def _walk_segments(g: Graph, degs: list[int]) -> SegmentDecomposition:
    """The nodes and every segment, each walked from its first node."""
    nodes = tuple(v for v, d in enumerate(degs) if d >= 3)
    segments = tuple((a, *inner, b) for a, b, inner in _chains(g.adjacency, nodes))
    return SegmentDecomposition(nodes, segments)


def decompose_segments(g: Graph) -> SegmentDecomposition:
    """Split a connected graph with minimum degree 2 into segments."""
    if not is_connected(g):
        raise GraphError("segment decomposition requires a connected graph")
    degs = [g.degree(v) for v in g.vertices()]
    if all(d < 3 for d in degs):
        raise GraphError("graph has no vertex of degree >= 3")
    for v, d in enumerate(degs):
        if d < 2:
            raise GraphError(f"vertex {v} has degree {d}; it lies on no node-to-node segment")
    return _walk_segments(g, degs)


def _k4_segments(g: Graph) -> SegmentDecomposition | None:
    """The segments of ``g`` if it is a K4 subdivision, else None."""
    degs = [g.degree(v) for v in g.vertices()]
    if degs.count(3) != 4 or any(d not in (2, 3) for d in degs) or not is_connected(g):
        return None
    dec = _walk_segments(g, degs)
    # Four degree-3 nodes have 12 segment ends, so there are six segments;
    # K4's six node pairs must each be joined by one of them.
    if len({frozenset((s[0], s[-1])) for s in dec.segments if s[0] != s[-1]}) != 6:
        return None
    return dec


@dataclass(frozen=True)
class Theorem1Report:
    """The three conditions and their conjunction; all None when the graph
    is not a K4 subdivision and the test does not apply."""

    is_k4_homeomorph: bool
    segments_are_geodesics: bool | None
    three_segment_cycles_odd: bool | None
    four_segment_cycles_equal: bool | None
    verdict_geodetic: bool | None


def three_segment_cycles(nodes: tuple[int, ...]) -> list[tuple[int, int, int]]:
    a, b, c, d = nodes
    return [(a, b, c), (a, b, d), (a, c, d), (b, c, d)]


def four_segment_cycles(nodes: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    a, b, c, d = nodes
    return [(a, b, c, d), (a, b, d, c), (a, c, b, d)]


def theorem1_check(g: Graph) -> Theorem1Report:
    """Evaluate the K4-subdivision geodeticity conditions."""
    dec = _k4_segments(g)
    if dec is None:
        return Theorem1Report(False, None, None, None, None)
    seg_len = {frozenset((s[0], s[-1])): len(s) - 1 for s in dec.segments}
    dist = {v: _bfs_counts(g, v, g.vertex_count)[0] for v in dec.nodes}
    cond1 = all(len(s) - 1 == dist[s[0]][s[-1]] for s in dec.segments)

    def span(x: int, y: int) -> int:
        return seg_len[frozenset((x, y))]

    cond2 = all(
        (span(x, y) + span(y, z) + span(x, z)) % 2 == 1
        for x, y, z in three_segment_cycles(dec.nodes)
    )
    ring_lengths = {
        span(p, q) + span(q, r) + span(r, s) + span(s, p)
        for p, q, r, s in four_segment_cycles(dec.nodes)
    }
    cond3 = len(ring_lengths) == 1
    return Theorem1Report(True, cond1, cond2, cond3, cond1 and cond2 and cond3)
