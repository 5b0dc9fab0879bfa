"""Even cycles with interleaved chord systems: build and check them.

An *embedded even graph* is an even cycle C of length 2L together with
n pairwise vertex-disjoint chords, where the 2n chord endpoints (the
degree-3 vertices) are labelled consecutively around C and chord i joins
endpoint i to endpoint n+i - so the chords pairwise interleave.  A chord
is a path, internally disjoint from C, strictly shorter than both arcs
between its endpoints.

Two arithmetic conditions on such a graph govern shortest-path uniqueness:

1. every cycle made of one chord plus one of its arcs has odd length;
2. every cycle made of two neighbouring chords plus the two arcs between
   their nearer endpoints has length exactly 2L.

When both hold on a chord-valid spec, the graph is geodetic for n = 2 and
bigeodetic for 3 <= n <= L.  Embeddedness, that no such cycle is even and
shorter than 2L, then holds too and needs no check of its own: an odd
cycle is never even, and a cycle of length 2L is never shorter than 2L.
It is still reported, since it decides what a spec failing a condition
says about the converse.

Parameterisation: ``arcs[k]`` is the arc length from endpoint k to
endpoint k+1 (cyclically, 0-based), ``chords[i]`` the length of chord i.
``evaluate_spec`` computes the problems and the cycle lengths in one pass,
and every verdict is read off those lengths.  They are pure arithmetic on
the tuples, so they exist even for specs whose chords are invalid (e.g.
too long).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .cycles import CycleView
from .geodesics import GeodeticClass
from .graphs import MAX_VERTICES, Graph, GraphError, from_edge_list


@dataclass(frozen=True)
class EmbeddedSpec:
    """Parameters of an embedded even graph: half-length L, chord count n,
    the 2n arc lengths and the n chord lengths."""

    L: int
    n: int
    arcs: tuple[int, ...]
    chords: tuple[int, ...]

    @property
    def cycle_length(self) -> int:
        return 2 * self.L

    def node_positions(self) -> tuple[int, ...]:
        """Cycle positions of the 2n chord endpoints (endpoint 0 at 0)."""
        pos = [0]
        for a in self.arcs[:-1]:
            pos.append(pos[-1] + a)
        return tuple(pos)

    def clockwise_span(self, i: int) -> int:
        """Arc length from endpoint i clockwise to its partner n+i."""
        return sum(self.arcs[i : self.n + i])


def _problems_and_spans(spec: EmbeddedSpec) -> tuple[tuple[str, ...], list[int] | None]:
    """Every problem of the spec (shape, positivity, n range, arc sum, then
    strict chord validity) and each chord's clockwise span, or None for the
    spans when the cycle arithmetic would mean nothing."""
    problems: list[str] = []
    if len(spec.arcs) != 2 * spec.n:
        problems.append(f"expected {2 * spec.n} arcs, got {len(spec.arcs)}")
    if len(spec.chords) != spec.n:
        problems.append(f"expected {spec.n} chords, got {len(spec.chords)}")
    shape_ok = not problems
    positivity_ok = all(a >= 1 for a in spec.arcs) and all(c >= 1 for c in spec.chords)
    if not positivity_ok:
        problems.append("arc and chord lengths must be positive")
    if not (spec.L >= 2 and 2 <= spec.n <= spec.L):
        problems.append(f"need L >= 2 and 2 <= n <= L, got L={spec.L} n={spec.n}")
    if shape_ok and positivity_ok and sum(spec.arcs) != 2 * spec.L:
        problems.append(f"arcs sum to {sum(spec.arcs)}, expected 2L = {2 * spec.L}")
    if problems:
        return tuple(problems), None
    spans = [spec.clockwise_span(i) for i in range(spec.n)]
    for i, (c, cw) in enumerate(zip(spec.chords, spans)):
        ccw = 2 * spec.L - cw
        if not (c < cw and c < ccw):
            problems.append(
                f"chord A{i + 1} has length {c}, not strictly shorter than "
                f"both arcs ({cw} and {ccw}) between its endpoints"
            )
    return tuple(problems), spans


@dataclass(frozen=True)
class EmbeddedGraph:
    """A built embedded even graph.

    Cycle vertices are 0..2L-1 in clockwise order (endpoint 0 at vertex 0);
    internal chord vertices are appended chord by chord, each path running
    from the lower-indexed endpoint to its partner.
    """

    spec: EmbeddedSpec
    graph: Graph
    cycle: CycleView
    node_positions: tuple[int, ...]
    chord_paths: tuple[tuple[int, ...], ...]


def build(spec: EmbeddedSpec) -> EmbeddedGraph:
    """Construct the graph for a fully valid spec.

    Vertex count is 2L + sum(c_i - 1) and edge count 2L + sum(c_i); the
    chord endpoints are exactly the degree-3 vertices.  A spec with more
    than ``graphs.MAX_VERTICES`` vertices is refused before anything is
    allocated: a short spec line can name a graph of any size.
    """
    problems, _ = _problems_and_spans(spec)
    if problems:
        raise GraphError("invalid spec: " + "; ".join(problems))
    vertices = spec.cycle_length + sum(spec.chords) - spec.n
    if vertices > MAX_VERTICES:
        raise GraphError(f"spec has {vertices} vertices, more than MAX_VERTICES = {MAX_VERTICES}")
    m = spec.cycle_length
    edges = [(k, (k + 1) % m) for k in range(m)]
    positions = spec.node_positions()
    nxt = m
    chord_paths: list[tuple[int, ...]] = []
    for i, c in enumerate(spec.chords):
        a, b = positions[i], positions[spec.n + i]
        path = [a]
        for _ in range(c - 1):
            path.append(nxt)
            nxt += 1
        path.append(b)
        edges.extend(zip(path, path[1:]))
        chord_paths.append(tuple(path))
    return EmbeddedGraph(
        spec,
        from_edge_list(edges),
        CycleView(tuple(range(m))),
        positions,
        tuple(chord_paths),
    )


@dataclass(frozen=True)
class ForbiddenCycle:
    """An even cycle shorter than 2L that disqualifies the embedding.

    ``kind`` is "chord_arc" (one chord plus one arc; ``arc_side`` tells
    which) or "adjacent_chords" (two neighbouring chords plus near arcs).
    """

    kind: str
    chord_indices: tuple[int, ...]
    length: int
    arc_side: str | None = None


@dataclass(frozen=True)
class ConditionReport:
    """One spec's problems and cycle lengths; every verdict is read off them.

    ``chord_arc_lengths[i]`` holds chord i's two chord-plus-arc cycles, with
    its clockwise arc and then its counterclockwise one; ``adjacent_lengths``
    the n neighbouring-chord cycles in chord order, the last pairing the
    final chord with the first.  Both are None, and so is every verdict but
    ``chord_valid``, when the shape, positivity, n range or arc sum is broken.
    The sweep reads each verdict several times, so each is cached.
    """

    spec: EmbeddedSpec
    problems: tuple[str, ...]
    chord_arc_lengths: tuple[tuple[int, int], ...] | None
    adjacent_lengths: tuple[int, ...] | None

    @property
    def chord_valid(self) -> bool:
        return not self.problems

    @cached_property
    def condition1(self) -> bool | None:
        """Every chord-plus-arc cycle is odd."""
        if self.chord_arc_lengths is None:
            return None
        return all(cw % 2 and ccw % 2 for cw, ccw in self.chord_arc_lengths)

    @cached_property
    def condition2(self) -> bool | None:
        """Every neighbouring-chord cycle has length exactly 2L."""
        if self.adjacent_lengths is None:
            return None
        m = self.spec.cycle_length
        return all(ln == m for ln in self.adjacent_lengths)

    @cached_property
    def embedded(self) -> bool | None:
        """No chord-plus-arc or neighbouring-chord cycle is even and < 2L."""
        if self.chord_arc_lengths is None:
            return None
        m = self.spec.cycle_length
        lengths = chain(self.adjacent_lengths, *self.chord_arc_lengths)
        return all(ln % 2 or ln >= m for ln in lengths)

    @property
    def violations(self) -> tuple[ForbiddenCycle, ...] | None:
        """The cycles that break ``embedded``, chord-plus-arc ones first."""
        if self.chord_arc_lengths is None:
            return None
        m, n = self.spec.cycle_length, self.spec.n
        cycles = [
            ForbiddenCycle("chord_arc", (i,), ln, side)
            for i, pair in enumerate(self.chord_arc_lengths)
            for side, ln in zip(("cw", "ccw"), pair)
        ] + [
            ForbiddenCycle("adjacent_chords", (i, (i + 1) % n), ln)
            for i, ln in enumerate(self.adjacent_lengths)
        ]
        return tuple(c for c in cycles if c.length % 2 == 0 and c.length < m)

    @cached_property
    def all_conditions_hold(self) -> bool:
        """Chord-valid and both cycle conditions hold.  Embeddedness follows:
        an odd cycle is never even, and a cycle of length 2L is never
        shorter than 2L."""
        return bool(self.chord_valid and self.condition1 and self.condition2)

    @property
    def predicted_class(self) -> GeodeticClass | None:
        """Geodetic for n = 2, bigeodetic for n >= 3, when all conditions hold."""
        return GeodeticClass(1 if self.spec.n == 2 else 2) if self.all_conditions_hold else None


def evaluate_spec(spec: EmbeddedSpec) -> ConditionReport:
    """Validate the spec and compute its cycle lengths in one pass: the spans
    that decide chord validity give the chord-plus-arc cycles, and chords i
    and i+1 close a cycle with the two arcs between their nearer endpoints."""
    problems, spans = _problems_and_spans(spec)
    if spans is None:
        return ConditionReport(spec, problems, None, None)
    n, m, arcs, chords = spec.n, spec.cycle_length, spec.arcs, spec.chords
    chord_arc = tuple((c + cw, c + m - cw) for c, cw in zip(chords, spans))
    adjacent = tuple(arcs[i] + chords[i] + chords[(i + 1) % n] + arcs[n + i] for i in range(n))
    return ConditionReport(spec, problems, chord_arc, adjacent)


_SPEC_KEYS = ("L", "n", "arcs", "chords")


def parse_spec_line(line: str) -> EmbeddedSpec:
    """Parse ``L=<int> n=<int> arcs=<csv ints> chords=<csv ints>``."""
    fields: dict[str, str] = {}
    for token in line.split():
        m = re.fullmatch(r"([A-Za-z]+)=([-\d,]+)", token)
        if not m or m.group(1) not in _SPEC_KEYS:
            raise GraphError(f"unrecognised token {token!r} in spec line")
        key = m.group(1)
        if key in fields:
            raise GraphError(f"duplicate key {key!r} in spec line")
        fields[key] = m.group(2)
    missing = [k for k in _SPEC_KEYS if k not in fields]
    if missing:
        raise GraphError(f"spec line is missing {', '.join(missing)}")

    def ints(text: str, key: str) -> tuple[int, ...]:
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError:
            raise GraphError(f"non-integer value in {key}={text!r}") from None

    def single(key: str) -> int:
        values = ints(fields[key], key)
        if len(values) != 1:
            raise GraphError(f"{key} must be a single integer, got {fields[key]!r}")
        return values[0]

    return EmbeddedSpec(
        single("L"), single("n"), ints(fields["arcs"], "arcs"), ints(fields["chords"], "chords")
    )


def format_spec_line(spec: EmbeddedSpec) -> str:
    arcs = ",".join(str(a) for a in spec.arcs)
    chords = ",".join(str(c) for c in spec.chords)
    return f"L={spec.L} n={spec.n} arcs={arcs} chords={chords}"
