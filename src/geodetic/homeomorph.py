"""Segment decomposition and the geodeticity test for K4 subdivisions.

A *node* is a vertex of degree >= 3; a *segment* is a path between nodes
whose interior vertices all have degree 2.  A graph homeomorphic to K4
(four degree-3 nodes a < b < c < d joined pairwise by six segments, of
lengths ab, ac, ad, bc, bd, cd) is geodetic exactly when

1. each segment is a shortest path between its endpoints: on each of the
   four triangles abc, abd, acd, bcd the longest side is at most the sum of
   the other two (a route through two other nodes is then no shorter
   either),
2. the four cycles made of three segments all have odd length: each
   triangle's sum is odd, and
3. the three cycles made of four segments all have equal length: each
   leaves out one opposite pair of segments from the fixed total, so
   ab + cd == ac + bd == ad + bc.

Each condition is arithmetic on the six lengths; no graph search runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, _chains, is_connected


@dataclass(frozen=True)
class SegmentDecomposition:
    """The nodes of a graph and its node-to-node segments.

    Every edge lies on exactly one segment.  A segment is stored as its
    full vertex path; closed segments (a degree-2 loop returning to the
    same node) keep that node at both ends.
    """

    nodes: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]


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
    nodes = tuple(v for v, d in enumerate(degs) if d >= 3)
    segments = tuple((a, *inner, b) for a, b, inner in _chains(g.adjacency, nodes))
    return SegmentDecomposition(nodes, segments)


@dataclass(frozen=True)
class Theorem1Report:
    """The three conditions and their conjunction; all None when the graph
    is not a K4 subdivision and the test does not apply."""

    is_k4_homeomorph: bool
    segments_are_geodesics: bool | None
    three_segment_cycles_odd: bool | None
    four_segment_cycles_equal: bool | None
    verdict_geodetic: bool | None


def theorem1_check(g: Graph) -> Theorem1Report:
    """Evaluate the K4-subdivision geodeticity conditions.

    The graph is a K4 subdivision when four vertices have degree 3, the
    rest degree 2, and the chains between the four join all six pairs and
    cover every vertex.  Each component holds an even number of odd-degree
    vertices, so six pairs put the four in one component."""
    degs = [g.degree(v) for v in g.vertices()]
    nodes = [v for v, d in enumerate(degs) if d == 3]
    if len(nodes) != 4 or degs.count(2) != len(degs) - 4:
        return Theorem1Report(False, None, None, None, None)
    chains = _chains(g.adjacency, nodes)
    span = {frozenset((a, b)): len(inner) + 1 for a, b, inner in chains if a != b}
    if len(span) != 6 or 4 + sum(len(inner) for *_, inner in chains) != len(degs):
        return Theorem1Report(False, None, None, None, None)
    ab, ac, ad, bc, bd, cd = (span[frozenset(pair)] for pair in combinations(nodes, 2))
    triangles = ((ab, bc, ac), (ab, bd, ad), (ac, cd, ad), (bc, cd, bd))
    cond1 = all(2 * max(t) <= sum(t) for t in triangles)
    cond2 = all(sum(t) % 2 == 1 for t in triangles)
    cond3 = ab + cd == ac + bd == ad + bc
    return Theorem1Report(True, cond1, cond2, cond3, cond1 and cond2 and cond3)
