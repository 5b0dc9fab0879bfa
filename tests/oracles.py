"""Independent reference implementations the suite cross-validates against.

Everything here favours transparent exhaustive search over the algorithms
under test: shortest paths come from enumerating simple paths with a
best-length bound, never from BFS multiplicity accumulation, cycles
from testing every cyclic vertex arrangement, sweep specs from
evaluating every chord tuple, or at larger L from solving condition 2 on
every arc composition, never from the composition bijection, and chord
systems from trying every 2n-subset of a cycle's positions, and candidate
chords from a depth-first search with no depth bound.  Agreement between
these and the fast implementations is therefore meaningful evidence.
Three exceptions use breadth-first search.  ``bfs_count_geodesics`` and
``bfs_lemma1`` run a plain BFS from every vertex, without the 2-core and
chain reductions that ``count_geodesics`` and ``lemma1_scan`` share, and
referee those on graphs too large for path enumeration;
``bfs_theorem1_check`` reads the K4 criterion's condition 1 off BFS
distances, not off the segment-length arithmetic of ``theorem1_check``.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator

from geodetic import (
    ConditionReport,
    CycleView,
    EmbeddedSpec,
    Graph,
    GraphError,
    SearchLimits,
    SweepBounds,
    build,
    enumerate_geodesics,
    enumerate_specs,
    evaluate_spec,
    is_connected,
    theorem2_pair_property,
    validate_cycle_in,
)
from geodetic.harness import (
    ChordSystemMatch,
    ChordSystemSearch,
    SweepFinding,
    _candidate_chords,
    _finding,
    compositions,
)
from geodetic.cycles import Lemma1Verdict
from geodetic.geodesics import GeodesicProfile
from geodetic.graphs import _bfs_counts, _chains
from geodetic.homeomorph import Theorem1Report


def brute_shortest_paths(g: Graph, u: int, v: int) -> tuple[int | None, list[tuple[int, ...]]]:
    """Every minimum-length simple u-v path, by bounded depth-first search."""
    best: int | None = None
    found: list[tuple[int, ...]] = []

    def extend(path: list[int], seen: set[int]) -> None:
        nonlocal best
        here = path[-1]
        length = len(path) - 1
        if here == v:
            if best is None or length < best:
                best = length
                found.clear()
            if length == best:
                found.append(tuple(path))
            return
        if best is not None and length + 1 > best:
            return
        for w in sorted(g.neighbors(here)):
            if w not in seen:
                path.append(w)
                seen.add(w)
                extend(path, seen)
                path.pop()
                seen.remove(w)

    extend([u], {u})
    return best, found


def brute_profile(g: Graph) -> dict[tuple[int, int], tuple[int | None, int]]:
    """(distance, geodesic count) for every pair u <= v."""
    table: dict[tuple[int, int], tuple[int | None, int]] = {}
    for u in g.vertices():
        for v in range(u, g.vertex_count):
            d, paths = brute_shortest_paths(g, u, v)
            table[(u, v)] = (d, len(paths))
    return table


def bfs_count_geodesics(g: Graph) -> GeodesicProfile:
    """``count_geodesics`` by one unbounded BFS from every vertex, keeping
    only the running maximum: no 2-core, no chains.  Raises GraphError on
    the empty graph or when some pair is unreachable."""
    n = g.vertex_count
    if n == 0:
        raise GraphError("cannot profile the empty graph")
    k_value, witness, witness_distance = 1, (0, 0), 0
    for u in range(n):
        dist, sigma = _bfs_counts(g, u, n)
        if None in dist:
            raise GraphError(f"graph is disconnected: no path between {u} and {dist.index(None)}")
        top = max(sigma[u + 1 :], default=0)
        if top > k_value:
            v = sigma.index(top, u + 1)
            k_value, witness, witness_distance = top, (u, v), dist[v]
    return GeodesicProfile(n, k_value, witness, witness_distance)  # type: ignore[arg-type]


def brute_k(g: Graph) -> tuple[int, tuple[int, int]]:
    """Largest geodesic count over all pairs and the first pair attaining it."""
    k, witness = 1, (0, 0)
    for (u, v), (_, count) in sorted(brute_profile(g).items()):
        if count > k:
            k, witness = count, (u, v)
    return k, witness


def brute_cycles(g: Graph) -> set[tuple[int, ...]]:
    """Canonical vertex tuples of every simple cycle, found by testing all
    cyclic arrangements of every vertex subset.  Exponential; keep the
    graphs small."""
    cycles: set[tuple[int, ...]] = set()
    verts = list(g.vertices())
    for size in range(3, g.vertex_count + 1):
        for subset in combinations(verts, size):
            first = subset[0]
            for perm in permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # keep one direction of each arrangement
                seq = (first,) + perm
                if all(g.has_edge(seq[i], seq[(i + 1) % size]) for i in range(size)):
                    cycles.add(seq)
    return cycles


def brute_minimal_even_cycles(
    g: Graph, max_len: int
) -> tuple[int | None, list[tuple[int, ...]]]:
    """The least even cycle length up to ``max_len`` and the canonical
    vertex tuples of every cycle of that length, sorted; ``(None, [])``
    when there is none."""
    even = [c for c in brute_cycles(g) if len(c) % 2 == 0 and len(c) <= max_len]
    if not even:
        return None, []
    best = min(len(c) for c in even)
    return best, sorted(c for c in even if len(c) == best)


def brute_lemma1(
    g: Graph, max_len: int | None = None
) -> tuple[int, bool, tuple[tuple[int, ...], tuple[int, int]] | None]:
    """The even-cycle witness scan by exhaustive search.

    Returns the scanned length bound (``max_len``, by default the vertex
    count, at most the vertex count), whether it covered every length, and
    the first even cycle in (length, vertex sequence) order within it that
    has an opposite pair at distance |C|/2, with that pair; or None."""
    n = g.vertex_count
    cap = n if max_len is None else max_len
    scanned = min(cap, n)
    dist: dict[tuple[int, int], int | None] = {}
    for c in sorted(brute_cycles(g), key=lambda c: (len(c), c)):
        m = len(c)
        if m % 2 or m > scanned:
            continue
        for i in range(m // 2):
            pair = (c[i], c[i + m // 2])
            if pair not in dist:
                dist[pair] = brute_shortest_paths(g, *pair)[0]
            if dist[pair] == m // 2:
                return scanned, cap >= n, (c, pair)
    return scanned, cap >= n, None


def bfs_lemma1(g: Graph, max_len: int | None = None) -> Lemma1Verdict:
    """``lemma1_scan`` by one BFS from each vertex u in turn, at most half
    the scanned length deep: keep the pair (u, v), u < v, with two or more
    geodesics that is least in (distance, u, v) order, and once one is
    found stop later searches short of its distance.  No 2-core, no
    chains."""
    n = g.vertex_count
    if not is_connected(g):
        raise GraphError("witness scan requires a connected graph")
    scanned = n if max_len is None else min(max_len, n)
    exhaustive = max_len is None or max_len >= n
    best: tuple[int, int, int] | None = None
    depth = scanned // 2
    for u in range(n):
        dist, sigma = _bfs_counts(g, u, depth)
        pairs = [(dist[v], u, v) for v in range(u + 1, n) if sigma[v] >= 2]
        if pairs:
            best = min(pairs)  # type: ignore[type-var]
            depth = best[0] - 1
    if best is None:
        return Lemma1Verdict(None, scanned, exhaustive)
    _, u, v = best
    first, second = enumerate_geodesics(g, u, v, cap=2).paths
    witness = CycleView.from_sequence(first + second[-2:0:-1])
    return Lemma1Verdict(witness, scanned, exhaustive, (u, v))


def bfs_theorem1_check(g: Graph) -> Theorem1Report:
    """``theorem1_check`` with a connectivity BFS in its shape test and a
    BFS from each node for condition 1: a segment is a geodesic when its
    length is its ends' BFS distance.  Conditions 2 and 3 sum the segments
    of every three-segment and four-segment cycle."""
    degs = [g.degree(v) for v in g.vertices()]
    if degs.count(3) != 4 or any(d not in (2, 3) for d in degs) or not is_connected(g):
        return Theorem1Report(False, None, None, None, None)
    nodes = tuple(v for v, d in enumerate(degs) if d == 3)
    segments = [(a, *inner, b) for a, b, inner in _chains(g.adjacency, nodes)]
    # Four degree-3 nodes have 12 segment ends, so there are six segments;
    # K4's six node pairs must each be joined by one of them.
    if len({frozenset((s[0], s[-1])) for s in segments if s[0] != s[-1]}) != 6:
        return Theorem1Report(False, None, None, None, None)
    seg_len = {frozenset((s[0], s[-1])): len(s) - 1 for s in segments}
    dist = {v: _bfs_counts(g, v, g.vertex_count)[0] for v in nodes}
    cond1 = all(len(s) - 1 == dist[s[0]][s[-1]] for s in segments)

    def span(*cycle: int) -> int:
        return sum(seg_len[frozenset(pair)] for pair in zip(cycle, cycle[1:] + cycle[:1]))

    a, b, c, d = nodes
    cond2 = all(span(*t) % 2 == 1 for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)))
    cond3 = len({span(a, b, c, d), span(a, b, d, c), span(a, c, b, d)}) == 1
    return Theorem1Report(True, cond1, cond2, cond3, cond1 and cond2 and cond3)


def brute_enumerate_specs(bounds: SweepBounds) -> Iterator[ConditionReport]:
    """The spec sweep by generate and test: every arc composition with
    every chord tuple in [1, L-1]^n, each evaluated and kept when the
    sweep's filter accepts it.  L ascending, then n, then arcs and chords
    in lexicographic order: the order of ``enumerate_specs`` with
    ``include_invalid``; by default the same specs in another order."""
    for big_l in range(2, bounds.L_max + 1):
        for n in range(2, big_l + 1):
            for arcs in compositions(2 * big_l, 2 * n):
                for chords in product(range(1, big_l), repeat=n):
                    report = evaluate_spec(EmbeddedSpec(big_l, n, arcs, chords))
                    if report.all_conditions_hold or (
                        bounds.include_invalid and report.chord_valid
                    ):
                        yield report


def _condition2_chords(big_l: int, n: int, arcs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The chord tuples in [1, L-1]^n that solve condition 2's cyclic
    system on ``arcs``, in lexicographic order.

    Condition 2 is ``c_i + c_{i+1} = s_i`` (indices mod n) with
    ``s_i = 2L - arcs[i] - arcs[n+i]``.  Propagating from ``c_0`` gives
    ``c_n = (-1)^n c_0 + (-1)^(n-1) A`` with ``A = s_0 - s_1 + s_2 - ...``,
    and closing the cycle needs ``c_n = c_0``: for odd n, ``c_0 = A/2`` when
    A is even and there is no solution otherwise; for even n there is a
    solution only when ``A = 0``, and then ``c_0`` runs over [1, L-1]."""
    sums = [2 * big_l - arcs[i] - arcs[n + i] for i in range(n)]
    alternating = sum(sums[0::2]) - sum(sums[1::2])
    if n % 2:
        firsts = () if alternating % 2 else (alternating // 2,)
    else:
        firsts = () if alternating else range(1, big_l)
    for first in firsts:
        chords = [first]
        for s in sums[:-1]:
            chords.append(s - chords[-1])
        if all(0 < c < big_l for c in chords):
            yield tuple(chords)


def condition2_enumerate_specs(l_max: int) -> Iterator[ConditionReport]:
    """The condition-satisfying sweep by solving condition 2: every arc
    composition of 2L, its chords from ``_condition2_chords``, each
    candidate evaluated and kept when all its checks pass.  L ascending,
    then n, then arcs and chords in lexicographic order."""
    for big_l in range(2, l_max + 1):
        for n in range(2, big_l + 1):
            for arcs in compositions(2 * big_l, 2 * n):
                for chords in _condition2_chords(big_l, n, arcs):
                    report = evaluate_spec(EmbeddedSpec(big_l, n, arcs, chords))
                    if report.all_conditions_hold:
                        yield report


def brute_sweep_validate(bounds: SweepBounds) -> Iterator[SweepFinding]:
    """The sweep with the oracle built and run on every enumerated spec.

    ``sweep_validate`` runs it once per orbit of a spec's chord endpoints
    under rotation and reflection, and relabels the result for the rest of
    the orbit.  That shortcut rests on graph theory alone (isomorphic graphs
    have the same geodesic counts), not on the paper's cycle conditions, so
    this loop stays an independent check of it."""
    for report in enumerate_specs(bounds):
        yield _finding(report, theorem2_pair_property(build(report.spec)))


def brute_candidate_chords(g: Graph, c: CycleView) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Every path between two vertices of ``c`` whose inner vertices are all
    off ``c`` and which is strictly shorter than both arcs between its ends,
    by depth-first search over every such simple path with no depth bound.
    Keyed by (position, position), lower first, each path listed from its
    lower-position end; values sorted by (length, path)."""
    m = c.length
    pos = {v: i for i, v in enumerate(c.vertices)}
    found: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def extend(path: list[int]) -> None:
        for w in g.neighbors(path[-1]):
            if w in path:
                continue
            if w not in pos:
                extend(path + [w])
                continue
            pa, pb, length = pos[path[0]], pos[w], len(path)
            if pa < pb and length < pb - pa and length < m - (pb - pa):
                found.setdefault((pa, pb), []).append(tuple(path + [w]))

    for a in c.vertices:
        extend([a])
    return {key: sorted(paths, key=lambda p: (len(p), p)) for key, paths in found.items()}


def brute_find_chord_system(g: Graph, c: CycleView, limits: SearchLimits) -> ChordSystemSearch:
    """The chord-system search over every 2n-subset of the m cycle
    positions, each looked up among the candidate chords afterwards.  Same
    candidates, order, cap and result fields as ``find_chord_system``;
    exponential in m even when almost no pair has a candidate chord."""
    validate_cycle_in(g, c)
    m = c.length
    if m % 2:
        raise GraphError(f"cycle has odd length {m}; chord systems live on even cycles")
    big_l = m // 2
    candidates, capped = _candidate_chords(g, c, limits.max_paths_per_pair)
    if not candidates:
        return ChordSystemSearch(None, not capped, 0)
    tried = 0
    for n in range(2, big_l + 1):
        for subset in combinations(range(m), 2 * n):
            pairs = [(subset[i], subset[i + n]) for i in range(n)]
            pools = []
            for pair in pairs:
                pool = candidates.get(pair)
                if not pool:
                    break
                pools.append(pool)
            else:
                for assignment in product(*pools):
                    tried += 1
                    if tried > limits.max_combinations:
                        return ChordSystemSearch(None, False, tried - 1)
                    vsets = [frozenset(p) for p in assignment]
                    if any(
                        vsets[i] & vsets[j]
                        for i in range(n)
                        for j in range(i + 1, n)
                    ):
                        continue
                    arcs = tuple(
                        subset[(k + 1) % (2 * n)] - subset[k]
                        if k < 2 * n - 1
                        else m - subset[-1] + subset[0]
                        for k in range(2 * n)
                    )
                    chords = tuple(len(p) - 1 for p in assignment)
                    spec = EmbeddedSpec(big_l, n, arcs, chords)
                    if evaluate_spec(spec).all_conditions_hold:
                        match = ChordSystemMatch(
                            spec,
                            tuple(c.vertices[p] for p in subset),
                            tuple(assignment),
                        )
                        return ChordSystemSearch(match, not capped, tried)
    return ChordSystemSearch(None, not capped, tried)
