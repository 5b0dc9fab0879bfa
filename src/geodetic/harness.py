"""Desk-scale validation harness: sweep parameter spaces, compare the
structural predictions against the brute-force shortest-path oracle, and
search arbitrary graphs for chord systems on their minimal even cycles.

The sweep runs the oracle once per orbit of specs under rotation and
reflection of the chord endpoints, since those specs build isomorphic
graphs, and relabels its reading for the rest of the orbit.

The chord-system search drives the nongeodeticity certifier: a minimal
even cycle of a geodetic graph always carries an interleaved chord system
satisfying the two cycle conditions, so an exhausted search that finds
none certifies the graph is not geodetic.  An interrupted (capped) search
reports ``exhausted=False`` and never certifies anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterator

from .cycles import CycleView, _scan_scope, minimal_even_cycles, validate_cycle_in
from .embedding import (
    ConditionReport,
    EmbeddedGraph,
    EmbeddedSpec,
    build,
    evaluate_spec,
    format_spec_line,
)
from .geodesics import GeodeticClass, count_geodesics
from .graphs import Graph, GraphError, _bfs_counts, is_connected


# ---------------------------------------------------------------------------
# spec enumeration and the oracle sweep


@dataclass(frozen=True)
class SweepBounds:
    """Sweep all specs with 2 <= L <= L_max.  By default only specs whose
    structural checks all pass are yielded; ``include_invalid`` adds every
    chord-valid spec that fails condition 1 or 2, for converse testing."""

    L_max: int
    include_invalid: bool = False

    def __post_init__(self) -> None:
        if self.L_max < 2:
            raise GraphError("L_max must be >= 2")


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive
    integers, in lexicographic order.

    A composition is fixed by its ``parts - 1`` cut points in
    ``1 .. total-1``, and cut points in lexicographic order give the parts
    in lexicographic order."""
    if total < 1:
        return
    for cuts in combinations(range(1, total), parts - 1):
        ends = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def _condition_specs(big_l: int, n: int) -> Iterator[EmbeddedSpec]:
    """The condition-satisfying specs of cell (L, n), one per composition
    of L + n into 2n parts, in composition rank order."""
    for w in compositions(big_l + n, 2 * n):
        arcs = tuple(w[k] + w[(k + n + 1) % (2 * n)] - 1 for k in range(2 * n))
        chords = tuple(big_l + 1 - w[i] - w[n + i] for i in range(n))
        yield EmbeddedSpec(big_l, n, arcs, chords)


def _valid_specs(big_l: int, n: int) -> Iterator[EmbeddedSpec]:
    """Every chord-valid spec of cell (L, n), arcs then chords in
    lexicographic order."""
    for arcs in compositions(2 * big_l, 2 * n):
        spans = [sum(arcs[i : n + i]) for i in range(n)]
        for chords in product(*(range(1, min(s, 2 * big_l - s)) for s in spans)):
            yield EmbeddedSpec(big_l, n, arcs, chords)


def enumerate_specs(bounds: SweepBounds) -> Iterator[ConditionReport]:
    """Deterministic enumeration: L ascending, then n, then the cell's
    specs, each built only if the sweep keeps it and evaluated once.

    With ``include_invalid`` a cell holds every chord-valid spec: chord i
    runs over ``range(1, min(s_i, 2L - s_i))``, where ``s_i`` is its
    clockwise span.  By default it holds the specs that pass every check,
    and these are in bijection with the weak compositions of L - n into 2n
    parts, so a cell holds C(L+n-1, 2n-1) of them.  Condition 1 makes
    ``x_i = (s_i - c_i - 1)/2`` and ``y_i = (2L - s_i - c_i - 1)/2``
    integers, chord validity makes them >= 0, and summing condition 2's n
    cycles gives ``sum c_i = (n-1)L``, so the 2n values sum to L - n.
    Conversely ``c_i = L - 1 - x_i - y_i``, and each arc lies between two
    neighbouring chords: ``arcs[i] = 1 + x_i + y_{i+1}`` and
    ``arcs[n+i] = 1 + y_i + x_{i+1}`` for i < n-1, while the wrap-around
    arcs meet chord 0 from its other side, ``arcs[n-1] = 1 + x_{n-1} + x_0``
    and ``arcs[2n-1] = 1 + y_{n-1} + y_0``.  In the cyclic sequence
    ``w = (x_0 + 1, ..., x_{n-1} + 1, y_0 + 1, ..., y_{n-1} + 1)``, a
    composition of L + n, that is ``arcs[k] = w_k + w_{k+n+1 mod 2n} - 1``.
    Every image is chord-valid and meets both conditions, so it is also
    embedded: its chord-plus-arc cycles are odd and its neighbouring-chord
    cycles have length exactly 2L.
    """
    cell_specs = _valid_specs if bounds.include_invalid else _condition_specs
    for big_l in range(2, bounds.L_max + 1):
        for n in range(2, big_l + 1):
            for spec in cell_specs(big_l, n):
                yield evaluate_spec(spec)


@dataclass(frozen=True)
class PairViolation:
    """A cycle-vertex pair that breaks the uniqueness/shortcut property."""

    u: int
    v: int
    distance: int
    count: int
    opposite: bool


@dataclass(frozen=True)
class PairPropertyReport:
    """The on-cycle pair check and ``oracle_k``, the largest geodesic count
    over all pairs of the built graph, read off the same BFS pass."""

    violations: tuple[PairViolation, ...]
    oracle_k: int

    @property
    def holds(self) -> bool:
        return not self.violations


def theorem2_pair_property(h: EmbeddedGraph) -> PairPropertyReport:
    """Check the pair behaviour the two cycle conditions are meant to buy:
    every opposite pair of the base cycle has a unique geodesic shorter
    than L, and every other pair on the cycle has a unique geodesic.

    This is the sweep's oracle: one BFS per vertex of ``h.graph`` yields
    both the violations, from the rows of the 2L cycle vertices, and the
    largest geodesic count over all pairs.
    """
    g = h.graph
    n = g.vertex_count
    big_l = h.spec.L
    m = 2 * big_l
    oracle_k = 1
    violations = []
    for u in range(n):
        dist, sigma = _bfs_counts(g, u, n)
        oracle_k = max(oracle_k, max(sigma))
        for v in range(u + 1, m):
            opposite = (v - u) == big_l
            d, k = dist[v], sigma[v]
            if k > 1 or (opposite and d >= big_l):  # type: ignore[operator]
                violations.append(PairViolation(u, v, d, k, opposite))  # type: ignore[arg-type]
    return PairPropertyReport(tuple(violations), oracle_k)


@dataclass(frozen=True)
class SweepFinding:
    """One spec's structural checks versus the oracle.  The sweep reads
    each derived field several times, so each is cached."""

    report: ConditionReport
    pair_property: PairPropertyReport

    @cached_property
    def spec(self) -> EmbeddedSpec:
        return self.report.spec

    @cached_property
    def oracle(self) -> GeodeticClass:
        return GeodeticClass(self.pair_property.oracle_k)

    @cached_property
    def consistent(self) -> bool:
        """Compare the spec's structural checks against its oracle reading:
        when all conditions hold, the pair property holds and the oracle K
        is at most the predicted class's K, and when a cycle condition fails
        on an otherwise embedded system, some pair violates the property."""
        predicted = self.report.predicted_class
        if predicted is not None:
            return self.pair_property.holds and self.oracle.k <= predicted.k
        if self.report.embedded:
            # An embedded chord system failing a cycle condition must break
            # the on-cycle pair property; that is the converse direction.
            return not self.pair_property.holds
        # No structural claim covers chord layouts with short even cycles;
        # the record survives in the findings for inspection.
        return True


def _orbit_key(spec: EmbeddedSpec) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int, int]:
    """The least ``(arcs, chords)`` image of ``spec`` over the 4n rotations
    and reflections of its 2n chord endpoints, and the map
    ``x -> (sign * x + shift) mod 2L`` from the image's cycle vertices to
    the spec's, as ``(image, sign, shift)``.

    Rotating by k endpoints starts the arcs at endpoint k and the chords at
    chord k mod n, so the image's vertex x is the spec's
    ``x + arcs[0] + ... + arcs[k-1]``;
    reflecting that rotation reverses the arcs and keeps chord 0 while
    reversing the rest, and negates x.  The first minimal image is kept, so
    a spec that is its own least image maps to itself by the identity.
    """
    arcs, chords, n = spec.arcs, spec.chords, spec.n
    best = (arcs, chords), 1, 0
    shift = 0
    for k in range(2 * n):
        a = arcs[k:] + arcs[:k]
        c = chords[k % n :] + chords[: k % n]
        for image, sign in (((a, c), 1), ((a[::-1], c[:1] + c[:0:-1]), -1)):
            if image < best[0]:
                best = image, sign, shift
        shift += arcs[k]
    return best


def _relabel(pairs: PairPropertyReport, sign: int, shift: int, m: int) -> PairPropertyReport:
    """``pairs`` carried along the cycle map ``x -> (sign * x + shift) mod m``:
    each violation's pair is mapped and ordered, and the violations sorted
    as ``theorem2_pair_property`` lists them.  Distances, counts, opposition
    and ``oracle_k`` are isomorphism invariants."""
    moved = []
    for p in pairs.violations:
        u, v = (sign * p.u + shift) % m, (sign * p.v + shift) % m
        moved.append((u, v, p) if u < v else (v, u, p))
    moved.sort()  # the mapped pairs are distinct, so no violation is compared
    return PairPropertyReport(
        tuple(PairViolation(u, v, p.distance, p.count, p.opposite) for u, v, p in moved),
        pairs.oracle_k,
    )


def sweep_validate(bounds: SweepBounds) -> Iterator[SweepFinding]:
    """Run the oracle on every enumerated spec and compare.

    Rotating or reflecting a spec's chord endpoints gives an isomorphic
    graph, and isomorphic graphs have the same geodesic counts, so the
    oracle is built and run once per such orbit, on its least image (see
    ``_orbit_key``), and every other spec of the orbit gets that reading
    with its cycle vertices relabelled.  The readings are cached per
    (L, n) cell, so memory is bounded by one cell's orbits.
    """
    cell = None
    readings: dict[tuple[tuple[int, ...], tuple[int, ...]], PairPropertyReport] = {}
    for report in enumerate_specs(bounds):
        spec = report.spec
        if (spec.L, spec.n) != cell:
            cell, readings = (spec.L, spec.n), {}
        image, sign, shift = _orbit_key(spec)
        pairs = readings.get(image)
        if pairs is None:
            pairs = readings[image] = theorem2_pair_property(
                build(EmbeddedSpec(spec.L, spec.n, *image))
            )
        if (sign, shift) != (1, 0):
            pairs = _relabel(pairs, sign, shift, spec.cycle_length)
        yield SweepFinding(report, pairs)


def finding_record(f: SweepFinding) -> dict:
    """Flatten a finding for the findings file."""
    return {
        "spec": format_spec_line(f.spec),
        "L": f.spec.L,
        "n": f.spec.n,
        "arcs": list(f.spec.arcs),
        "chords": list(f.spec.chords),
        "chord_valid": f.report.chord_valid,
        "condition1": f.report.condition1,
        "condition2": f.report.condition2,
        "embeddedness": f.report.embedded,
        "predicted": f.report.predicted_class.label if f.report.predicted_class else None,
        "oracle_k": f.oracle.k,
        "oracle_class": f.oracle.label,
        "pair_property_holds": f.pair_property.holds,
        "violations": [
            {"u": v.u, "v": v.v, "distance": v.distance, "count": v.count, "opposite": v.opposite}
            for v in f.pair_property.violations
        ],
        "consistent": f.consistent,
    }


# ---------------------------------------------------------------------------
# chord-system search and nongeodeticity certification


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the chord-system search.  ``max_cycle_length`` of None means
    scan up to the vertex count when hunting minimal even cycles."""

    max_paths_per_pair: int = 64
    max_combinations: int = 250_000
    max_cycle_length: int | None = None

    def __post_init__(self) -> None:
        if self.max_cycle_length is not None and self.max_cycle_length < 4:
            raise GraphError("max_cycle_length must be >= 4")
        if self.max_paths_per_pair < 1:
            raise GraphError("max_paths_per_pair must be >= 1")
        if self.max_combinations < 0:
            raise GraphError("max_combinations must be >= 0")


@dataclass(frozen=True)
class ChordSystemMatch:
    """A chord system found inside a host graph: the abstract spec plus its
    realisation (host vertices of the endpoints, host paths of the chords)."""

    spec: EmbeddedSpec
    node_vertices: tuple[int, ...]
    chord_paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ChordSystemSearch:
    """``system`` when found; ``exhausted`` True only if the whole candidate
    space was covered, so an empty result is conclusive."""

    system: ChordSystemMatch | None
    exhausted: bool
    combinations_tried: int


def _candidate_chords(
    g: Graph, c: CycleView, per_pair_cap: int
) -> tuple[dict[tuple[int, int], list[tuple[int, ...]]], bool]:
    """All paths in ``g`` between two cycle vertices, internally off the
    cycle, strictly shorter than both arcs between their endpoints.

    Keyed by (position, position) with the lower position first; values
    sorted by (length, path).  The flag reports a hit per-pair cap.  A path
    is kept only from its lower-position end, where the depth-first search
    meets it once, so a bucket holds no duplicate and the cap counts each
    path once, in search order.
    """
    m = c.length
    pos = {v: i for i, v in enumerate(c.vertices)}
    adjacency = g.adjacency
    depth_cap = m // 2 - 1  # a chord is shorter than the smaller arc, which is <= m/2
    found: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    capped = False
    for pa, a in enumerate(c.vertices):
        stack: list[tuple[int, tuple[int, ...]]] = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for w in adjacency[v]:
                if w in path:
                    continue
                pb = pos.get(w)
                if pb is None:
                    if len(path) < depth_cap:  # deeper paths are too long to be chords
                        stack.append((w, path + (w,)))
                elif pa < pb and len(path) < pb - pa and len(path) < m - pb + pa:
                    bucket = found.setdefault((pa, pb), [])
                    if len(bucket) >= per_pair_cap:
                        capped = True
                    else:
                        bucket.append(path + (w,))
    for bucket in found.values():
        bucket.sort(key=lambda p: (len(p), p))
    return found, capped


def find_chord_system(
    g: Graph, c: CycleView, limits: SearchLimits = SearchLimits()
) -> ChordSystemSearch:
    """Search ``g`` for an interleaved chord system on the even cycle ``c``.

    Tries every choice of 2n endpoint positions (n ascending, positions in
    lexicographic order) with the forced interleaved pairing (each endpoint
    pairs with the one n places along), every assignment of candidate chord
    paths, pairwise vertex-disjoint, and accepts the first whose spec
    passes all structural checks.  The positions are drawn only from the
    endpoints of candidate chords: a choice whose n pairs are all candidate
    keys uses no other position, and the choices within a sorted subset
    keep their lexicographic order, so the tries, their order, the match and
    the ``max_combinations`` cut-off are those of a search over all m.

    Each assignment is judged by the two cycle conditions alone, which
    gives ``evaluate_spec(spec).all_conditions_hold``: every candidate chord
    is shorter than both arcs, so the system is chord-valid; n, the arcs'
    positivity and their sum 2L hold by construction; and odd chord-plus-arc
    cycles and neighbouring-chord cycles of length 2L are never even and
    shorter than 2L, so the system is embedded.  Only a match is built as
    an ``EmbeddedSpec``.

    This public entry point first checks that ``c`` is an even cycle of
    ``g``; ``corollary4_check`` searches cycles it found in ``g`` itself and
    skips that check.
    """
    validate_cycle_in(g, c)
    if c.length % 2:
        raise GraphError(f"cycle has odd length {c.length}; chord systems live on even cycles")
    return _search(g, c, limits)


def _search(g: Graph, c: CycleView, limits: SearchLimits) -> ChordSystemSearch:
    """``find_chord_system`` on an even cycle ``c`` already known to lie in ``g``."""
    m = c.length
    big_l = m // 2
    candidates, capped = _candidate_chords(g, c, limits.max_paths_per_pair)
    ends = sorted({p for key in candidates for p in key})
    tried = 0
    for n in range(2, big_l + 1):
        for subset in combinations(ends, 2 * n):
            pools = []
            for i in range(n):
                pool = candidates.get((subset[i], subset[i + n]))
                if not pool:
                    break
                pools.append(pool)
            else:
                arcs = tuple([(subset[(k + 1) % (2 * n)] - subset[k]) % m for k in range(2 * n)])
                for assignment in product(*pools):
                    tried += 1
                    if tried > limits.max_combinations:
                        return ChordSystemSearch(None, False, tried - 1)
                    if len(set().union(*assignment)) != sum(map(len, assignment)):
                        continue  # two chords share a vertex
                    chords = [len(p) - 1 for p in assignment]
                    # Condition 1: chord i closes an odd cycle with either arc.
                    # Condition 2: chords i and i+1 close a cycle of length 2L.
                    for i in range(n):
                        if not (chords[i] + subset[n + i] - subset[i]) % 2 or (
                            arcs[i] + chords[i] + chords[(i + 1) % n] + arcs[n + i] != m
                        ):
                            break
                    else:
                        match = ChordSystemMatch(
                            EmbeddedSpec(big_l, n, arcs, tuple(chords)),
                            tuple([c.vertices[p] for p in subset]),
                            assignment,
                        )
                        return ChordSystemSearch(match, not capped, tried)
    return ChordSystemSearch(None, not capped, tried)


@dataclass(frozen=True)
class Corollary4Verdict:
    """Outcome for one minimal even cycle."""

    cycle: CycleView
    match: ChordSystemMatch | None
    search_exhausted: bool

    @property
    def certified_nongeodetic(self) -> bool:
        """Only an exhausted search that found nothing certifies."""
        return self.match is None and self.search_exhausted


@dataclass(frozen=True)
class Corollary4Report:
    """The verdicts on every minimal even cycle and the scope of the scan.

    ``oracle_k`` cross-checks that certification never contradicts the
    shortest-path counts; it is None when no even cycle was found.  The
    cycle scan covered lengths up to ``scanned_max_length``, at most the
    vertex count; it is ``exhaustive`` when that reaches the vertex count,
    and only then does an empty ``verdicts`` mean the graph has no even
    cycle.
    """

    verdicts: tuple[Corollary4Verdict, ...]
    oracle_k: int | None
    scanned_max_length: int
    exhaustive: bool


def corollary4_check(g: Graph, limits: SearchLimits = SearchLimits()) -> Corollary4Report:
    """Run the chord-system search on every minimal even cycle of ``g``.

    A graph with no even cycle yields no verdicts.  Any certified verdict
    means the graph is not geodetic.  ``limits.max_cycle_length`` caps the
    cycle scan; below the vertex count it may miss every even cycle.  The
    cycles come from ``minimal_even_cycles(g)``, so they are even cycles
    of ``g`` and are searched without the check ``find_chord_system``
    makes on a cycle given from outside.
    """
    if not is_connected(g):
        raise GraphError("certification requires a connected graph")
    scanned, exhaustive = _scan_scope(g.vertex_count, limits.max_cycle_length)
    length, cycles = minimal_even_cycles(g, max(scanned, 4))
    if length is None:
        return Corollary4Report((), None, scanned, exhaustive)
    verdicts = []
    for c in cycles:
        result = _search(g, c, limits)
        verdicts.append(Corollary4Verdict(c, result.system, result.exhausted))
    return Corollary4Report(tuple(verdicts), count_geodesics(g).k_value, scanned, exhaustive)
