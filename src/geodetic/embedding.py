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

When both hold (together with the defining constraint that no such cycle
is even and shorter than 2L), the graph is geodetic for n = 2 and
bigeodetic for 3 <= n <= L.

Parameterisation: ``arcs[k]`` is the arc length from endpoint k to
endpoint k+1 (cyclically, 0-based), ``chords[i]`` the length of chord i.
All condition checks are pure arithmetic on these tuples, so they can be
evaluated even for specs whose chords are invalid (e.g. too long).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cycles import CycleView
from .geodesics import GeodeticClass
from .graphs import Graph, GraphError, from_edge_list


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


@dataclass(frozen=True)
class SpecValidation:
    """All violations found in a spec, not just the first.

    ``structure_ok`` is True when the tuple shapes and arc arithmetic are
    coherent, so the condition checks are well defined (chords may still be
    invalid)."""

    structure_ok: bool
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_spec(spec: EmbeddedSpec) -> SpecValidation:
    """Check shape, positivity, arc sum, n range, and strict chord validity."""
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
    structure_ok = not problems
    if structure_ok:
        for i, c in enumerate(spec.chords):
            cw = spec.clockwise_span(i)
            ccw = 2 * spec.L - cw
            if not (c < cw and c < ccw):
                problems.append(
                    f"chord A{i + 1} has length {c}, not strictly shorter than "
                    f"both arcs ({cw} and {ccw}) between its endpoints"
                )
    return SpecValidation(structure_ok, tuple(problems))


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
    chord endpoints are exactly the degree-3 vertices.
    """
    validation = validate_spec(spec)
    if not validation.ok:
        raise GraphError("invalid spec: " + "; ".join(validation.problems))
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
class Condition1Report:
    """Every chord-plus-arc cycle must have odd length.  ``cycle_lengths[i]``
    holds chord i's two: with its clockwise arc, then its counterclockwise."""

    cycle_lengths: tuple[tuple[int, int], ...]
    ok: bool


@dataclass(frozen=True)
class Condition2Report:
    """Lengths of the n neighbouring-chord cycles, in chord order (the last
    entry pairs the final chord with the first); each must be exactly 2L."""

    lengths: tuple[int, ...]
    ok: bool


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
class EmbeddednessReport:
    """No chord+arc or neighbouring-chord cycle may be even with length < 2L."""

    ok: bool
    violations: tuple[ForbiddenCycle, ...]


@dataclass(frozen=True)
class ConditionReport:
    """Everything known about one spec: validation, the three structural
    checks, and the class they predict (None unless all checks pass)."""

    spec: EmbeddedSpec
    validation: SpecValidation
    condition1: Condition1Report | None
    condition2: Condition2Report | None
    embeddedness: EmbeddednessReport | None
    predicted_class: GeodeticClass | None

    @property
    def all_conditions_hold(self) -> bool:
        return self.predicted_class is not None


def evaluate_spec(spec: EmbeddedSpec) -> ConditionReport:
    """Validate once and run all structural checks from one pass of arithmetic.

    The checks read the same numbers: the two chord-plus-arc cycle lengths
    of each chord and the n neighbouring-chord cycle lengths (chord i, chord
    i+1 and the two arcs between their nearer endpoints, the arcs that carry
    no other chord endpoint).  When all checks pass the class is geodetic for
    n=2 and bigeodetic (K <= 2) for n >= 3.  The check fields stay None when
    the spec's shape is too broken for the arithmetic to mean anything.
    """
    validation = validate_spec(spec)
    if not validation.structure_ok:
        return ConditionReport(spec, validation, None, None, None, None)
    n, target, arcs, chords = spec.n, spec.cycle_length, spec.arcs, spec.chords
    spans = [spec.clockwise_span(i) for i in range(n)]
    chord_arc = tuple((c + cw, c + (target - cw)) for c, cw in zip(chords, spans))
    violations: list[ForbiddenCycle] = []
    for i, lengths in enumerate(chord_arc):
        for side, ln in zip(("cw", "ccw"), lengths):
            if ln % 2 == 0 and ln < target:
                violations.append(ForbiddenCycle("chord_arc", (i,), ln, side))
    adjacent = tuple(
        arcs[i] + chords[i] + chords[(i + 1) % n] + arcs[n + i] for i in range(n)
    )
    for i, ln in enumerate(adjacent):
        if ln % 2 == 0 and ln < target:
            violations.append(ForbiddenCycle("adjacent_chords", (i, (i + 1) % n), ln))
    c1 = Condition1Report(chord_arc, all(ln % 2 for pair in chord_arc for ln in pair))
    c2 = Condition2Report(adjacent, all(ln == target for ln in adjacent))
    emb = EmbeddednessReport(not violations, tuple(violations))
    predicted = None
    if validation.ok and c1.ok and c2.ok and emb.ok:
        predicted = GeodeticClass(1 if n == 2 else 2)
    return ConditionReport(spec, validation, c1, c2, emb, predicted)


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
