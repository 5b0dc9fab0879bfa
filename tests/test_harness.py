from __future__ import annotations

import time
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import H1_SPEC, H2_SPEC
from corpus import hoffman_singleton_graph, one_point_union, seeded_samples
from geodetic import (
    CycleView,
    EmbeddedSpec,
    GraphError,
    SearchLimits,
    SweepBounds,
    build,
    complete_graph,
    corollary4_check,
    count_geodesics,
    cycle_graph,
    cycle_with_chord,
    enumerate_specs,
    find_chord_system,
    finding_record,
    lemma1_scan,
    minimal_even_cycles,
    parse_spec_line,
    path_graph,
    petersen_graph,
    sweep_validate,
    theorem2_pair_property,
)
from geodetic.harness import _candidate_chords, _orbit_key, compositions
from oracles import (
    brute_candidate_chords,
    brute_cycles,
    brute_enumerate_specs,
    brute_find_chord_system,
    brute_sweep_validate,
    condition2_enumerate_specs,
)

K4_SPEC = EmbeddedSpec(2, 2, (1, 1, 1, 1), (1, 1))

# The spec graph of the benchmark's certify workload: its minimal even
# cycles have 16 positions and many candidate chords.
CERTIFY_SPEC = parse_spec_line("L=8 n=4 arcs=2,1,4,2,1,4,1,1 chords=6,7,4,7")

# Chord-valid, condition 1 and embeddedness fine, condition 2 broken
# (adjacent-chord cycles have lengths 6 and 8): the smallest spec exercising
# the converse direction of the sweep.
BOUNDARY_SPEC = EmbeddedSpec(3, 2, (1, 2, 1, 2), (2, 2))


def local_condition_satisfying_specs(l_max):
    """Independent re-derivation of the sweep space: raw nested loops and
    inline arithmetic, sharing no code with the enumeration under test."""
    found = []
    for big_l in range(2, l_max + 1):
        m = 2 * big_l
        for n in range(2, big_l + 1):
            for cuts in product(range(1, m), repeat=2 * n - 1):
                if any(b <= a for a, b in zip(cuts, cuts[1:])):
                    continue
                pos = (0,) + cuts
                arcs = tuple(b - a for a, b in zip(pos, pos[1:])) + (m - pos[-1],)
                spans = [sum(arcs[i : i + n]) for i in range(n)]
                for chords in product(range(1, big_l), repeat=n):
                    if not all(c < s and c < m - s for c, s in zip(chords, spans)):
                        continue
                    if not all((c + s) % 2 == 1 for c, s in zip(chords, spans)):
                        continue
                    if not all(
                        arcs[i] + chords[i] + chords[(i + 1) % n] + arcs[n + i] == m
                        for i in range(n)
                    ):
                        continue
                    found.append(EmbeddedSpec(big_l, n, arcs, chords))
    return found


def enumerated_specs(bounds):
    return [report.spec for report in enumerate_specs(bounds)]


@st.composite
def cycle_specs(draw):
    """Specs with 2n arcs summing to 2L and n chords, chords drawn from a
    small range so that many images tie on their arcs."""
    big_l = draw(st.integers(2, 8))
    n = draw(st.integers(2, big_l))
    cuts = sorted(
        draw(st.sets(st.integers(1, 2 * big_l - 1), min_size=2 * n - 1, max_size=2 * n - 1))
    )
    ends = [0, *cuts, 2 * big_l]
    arcs = tuple(b - a for a, b in zip(ends, ends[1:]))
    chords = tuple(draw(st.integers(1, 3)) for _ in range(n))
    return EmbeddedSpec(big_l, n, arcs, chords)


def chord_diagram(spec):
    """The spec's chords as (endpoint pair on the cycle, length)."""
    pos = spec.node_positions()
    return {(frozenset((pos[i], pos[spec.n + i])), c) for i, c in enumerate(spec.chords)}


def dihedral_images(spec):
    """The 4n specs read off the spec's chord diagram after each rotation
    and reflection of the cycle that moves a chord endpoint to vertex 0."""
    m = spec.cycle_length
    for p in spec.node_positions():
        for sign in (1, -1):
            diagram = {
                (frozenset((sign * (x - p)) % m for x in pair), c)
                for pair, c in chord_diagram(spec)
            }
            ends = sorted(x for pair, _ in diagram for x in pair)
            arcs = tuple((ends[(k + 1) % len(ends)] - ends[k]) % m for k in range(len(ends)))
            length = dict(diagram)
            chords = tuple(
                length[frozenset((ends[i], ends[spec.n + i]))] for i in range(spec.n)
            )
            yield EmbeddedSpec(spec.L, spec.n, arcs, chords)


class TestEnumerateSpecs:
    def test_smallest_space_is_the_complete4_spec(self):
        assert enumerated_specs(SweepBounds(2)) == [K4_SPEC]

    def test_l3_space(self):
        # Composition rank order within each (L, n) cell.
        assert enumerated_specs(SweepBounds(3)) == [
            K4_SPEC,
            EmbeddedSpec(3, 2, (2, 1, 1, 2), (2, 1)),
            EmbeddedSpec(3, 2, (1, 1, 2, 2), (1, 2)),
            H1_SPEC,
            EmbeddedSpec(3, 2, (2, 2, 1, 1), (1, 2)),
            H2_SPEC,
        ]

    def test_bad_bound_rejected(self):
        with pytest.raises(GraphError, match="L_max"):
            list(enumerate_specs(SweepBounds(1)))

    def test_deterministic(self):
        bounds = SweepBounds(4, include_invalid=True)
        assert list(enumerate_specs(bounds)) == list(enumerate_specs(bounds))

    def test_matches_independent_enumeration(self):
        ours = enumerated_specs(SweepBounds(4))
        theirs = local_condition_satisfying_specs(4)
        assert sorted(map(repr, ours)) == sorted(map(repr, theirs))
        assert len(ours) == 23

    def test_include_invalid_is_a_superset(self):
        satisfying = set(enumerated_specs(SweepBounds(3)))
        everything = enumerated_specs(SweepBounds(3, include_invalid=True))
        assert satisfying <= set(everything)
        assert len(everything) > len(satisfying)
        assert BOUNDARY_SPEC in set(everything)

    @pytest.mark.parametrize("include_invalid", [False, True])
    @pytest.mark.parametrize("l_max", [2, 3, 4, 5])
    def test_matches_generate_and_test(self, l_max, include_invalid):
        bounds = SweepBounds(l_max, include_invalid)
        ours = list(enumerate_specs(bounds))
        theirs = list(brute_enumerate_specs(bounds))
        if include_invalid:
            assert ours == theirs
        else:
            # The bijection emits composition rank order; compare as
            # multisets, so a duplicate still fails.
            assert sorted(ours, key=repr) == sorted(theirs, key=repr)

    def test_matches_condition2_solver(self):
        ours = enumerated_specs(SweepBounds(8))
        theirs = [r.spec for r in condition2_enumerate_specs(8)]
        assert len(ours) == len(set(ours)) == 1560
        assert set(ours) == set(theirs)

    def test_cell_counts_follow_the_binomial(self):
        """Each (L, n) cell with 2 <= n <= L <= 10 holds C(L+n-1, 2n-1)
        condition-satisfying specs.  The formula is proved: the cell's specs
        are in bijection with the weak compositions of L - n into 2n parts
        (``harness._condition_specs``).  The totals are 211, 1,560 and
        10,890 specs at L_max = 6, 8 and 10."""
        cells = Counter((r.spec.L, r.spec.n) for r in enumerate_specs(SweepBounds(10)))
        assert cells == {
            (big_l, n): comb(big_l + n - 1, 2 * n - 1)
            for big_l in range(2, 11)
            for n in range(2, big_l + 1)
        }
        totals = {
            l_max: sum(count for (big_l, _), count in cells.items() if big_l <= l_max)
            for l_max in (6, 8, 10)
        }
        assert totals == {6: 211, 8: 1560, 10: 10890}

    def test_compositions(self):
        assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(compositions(3, 3)) == [(1, 1, 1)]
        assert list(compositions(2, 3)) == []

    def test_compositions_match_filtered_product(self):
        # enumerate_specs and the brute-force referee both draw their arcs
        # from compositions, so it is checked here against the definition.
        for total in range(11):
            for parts in range(1, 12):
                largest = total - parts + 1  # every other part is at least 1
                expected = [
                    t for t in product(range(1, largest + 1), repeat=parts) if sum(t) == total
                ]
                assert list(compositions(total, parts)) == expected, (total, parts)


class TestPairProperty:
    def test_h1_holds(self, h1):
        report = theorem2_pair_property(h1)
        assert report.holds and report.violations == ()
        assert report.oracle_k == 1

    def test_h2_holds_on_cycle(self, h2):
        # H2 is bigeodetic, but its doubled geodesics join internal chord
        # vertices; every base-cycle pair stays unique.
        report = theorem2_pair_property(h2)
        assert report.oracle_k == count_geodesics(h2.graph).k_value == 2
        assert report.holds

    def test_boundary_spec_violates(self):
        h = build(BOUNDARY_SPEC)
        report = theorem2_pair_property(h)
        assert not report.holds
        v = report.violations[0]
        assert (v.u, v.v, v.distance, v.count, v.opposite) == (2, 5, 3, 2, True)


class TestFindChordSystem:
    def test_h1_recovers_its_own_spec(self, h1):
        result = find_chord_system(h1.graph, h1.cycle)
        assert result.exhausted
        assert result.system is not None
        assert result.system.spec == H1_SPEC
        assert result.system.node_vertices == (0, 1, 3, 5)
        assert result.system.chord_paths == ((0, 6, 3), (1, 5))

    def test_round_trip_on_every_spec_graph(self):
        # Build every condition-satisfying spec with L <= 7 and search its
        # base cycle: the match must lie in the spec's rotation-and-reflection
        # orbit, so it also has as many chords.
        specs = enumerated_specs(SweepBounds(7))
        assert len(specs) == 581
        for spec in specs:
            h = build(spec)
            match = find_chord_system(h.graph, h.cycle).system
            assert match is not None and _orbit_key(match.spec)[0] == _orbit_key(spec)[0], spec

    def test_chorded_c8_has_no_system(self, c8_chord):
        c = CycleView.from_sequence(range(8))
        result = find_chord_system(c8_chord, c)
        assert result.system is None and result.exhausted

    def test_bare_cycle_has_no_system(self):
        result = find_chord_system(cycle_graph(6), CycleView.from_sequence(range(6)))
        assert result.system is None and result.exhausted
        assert result.combinations_tried == 0

    def test_combination_cap_disables_exhaustion(self, petersen):
        c = minimal_even_cycles(petersen, 10)[1][0]
        result = find_chord_system(petersen, c, SearchLimits(max_combinations=2))
        assert result.system is None
        assert not result.exhausted
        assert result.combinations_tried == 2

    def test_petersen_cycles_carry_systems(self, petersen):
        for c in minimal_even_cycles(petersen, 10)[1]:
            result = find_chord_system(petersen, c)
            assert result.system is not None
            assert result.system.spec.n == 3
            assert result.system.spec.arcs == (1, 1, 1, 1, 1, 1)
            assert result.system.spec.chords == (2, 2, 2)

    def test_odd_cycle_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(GraphError, match="odd length 5"):
            find_chord_system(g, CycleView.from_sequence(range(5)))

    def test_foreign_cycle_rejected(self):
        with pytest.raises(GraphError, match="not an edge"):
            find_chord_system(cycle_graph(6), CycleView.from_sequence((0, 2, 4, 1)))

    def test_cycle_outside_the_graph_rejected(self):
        with pytest.raises(GraphError, match="not an edge"):
            find_chord_system(cycle_graph(6), CycleView((7, 8, 9)))


SEARCH_LIMITS = (
    SearchLimits(),
    SearchLimits(max_combinations=0),
    SearchLimits(max_combinations=1),
    SearchLimits(max_combinations=3),
    SearchLimits(max_paths_per_pair=1),
)


def searches_match_brute_force(graphs, every_even_cycle=False):
    """Run both chord-system searches on every minimal even cycle of every
    graph, or on every even cycle with ``every_even_cycle``, under every
    limit setting, assert equal results (system, exhausted,
    combinations_tried) and return them."""
    results = []
    for g in graphs:
        if every_even_cycle:
            cycles = [CycleView(seq) for seq in sorted(brute_cycles(g)) if len(seq) % 2 == 0]
        else:
            cycles = minimal_even_cycles(g, max(g.vertex_count, 4))[1]
        for c in cycles:
            for limits in SEARCH_LIMITS:
                result = find_chord_system(g, c, limits)
                assert result == brute_find_chord_system(g, c, limits), (g.edges(), c, limits)
                results.append(result)
    return results


class TestFindChordSystemMatchesBruteForce:
    def test_corpus(self, corpus):
        results = searches_match_brute_force(corpus)
        assert any(r.system is not None for r in results)

    def test_named_graphs(self, petersen, h1, h2):
        results = searches_match_brute_force(
            [petersen, h1.graph, h2.graph, build(CERTIFY_SPEC).graph]
        )
        assert any(r.system is not None for r in results)
        assert any(not r.exhausted for r in results)
        assert any(r.system is None and r.exhausted and r.combinations_tried for r in results)

    def test_chorded_cycles(self):
        # Both chord cycles are odd, so the whole cycle stays the minimal
        # even cycle, with one candidate pair and no chord system.
        graphs = [cycle_with_chord(m, 0, a, chord_length=a - 1) for m, a in ((12, 5), (16, 7))]
        for r in searches_match_brute_force(graphs):
            assert r.system is None and r.exhausted and r.combinations_tried == 0

    def test_spec_graphs(self):
        graphs = [build(report.spec).graph for report in enumerate_specs(SweepBounds(5))]
        assert len(graphs) == 73
        searches_match_brute_force(graphs)

    def test_every_even_cycle(self, corpus, petersen):
        # A minimal even cycle carries no chord-plus-arc cycle of even
        # length, so only longer cycles, such as Petersen's 8-cycle
        # 0 4 3 2 1 6 8 5, try systems that fail condition 1.
        graphs = [*corpus, petersen, *seeded_samples(8, 6, seed=802)]
        results = searches_match_brute_force(graphs, every_even_cycle=True)
        eight = CycleView.from_sequence((0, 4, 3, 2, 1, 6, 8, 5))
        assert find_chord_system(petersen, eight).system is None
        assert any(r.system is not None for r in results)
        assert any(r.system is None and r.exhausted and r.combinations_tried for r in results)


def test_candidate_chords_match_uncapped_depth_first_search(corpus, petersen):
    # brute_find_chord_system shares _candidate_chords with the search, so
    # this referee, with no depth cap and no shared code, checks it alone:
    # on every even cycle of the small graphs, and on the base cycle of
    # chorded cycles whose chords are paths of length 3 and 4.
    cases = [
        (g, CycleView(seq))
        for g in [*corpus, petersen, *seeded_samples(8, 6, seed=802)]
        for seq in sorted(brute_cycles(g))
        if len(seq) % 2 == 0
    ]
    for m, a in ((8, 4), (10, 4), (12, 5)):
        g = cycle_with_chord(m, 0, a, chord_length=a - 1)
        cases.append((g, CycleView(tuple(range(m)))))
    lengths, without = set(), 0
    for g, c in cases:
        expected = brute_candidate_chords(g, c)
        assert _candidate_chords(g, c, 10**9) == (expected, False), (g.edges(), c)
        lengths.update(len(p) - 1 for pool in expected.values() for p in pool)
        without += not expected
    assert lengths == {1, 2, 3, 4}
    assert without > 0


class TestCorollary4Check:
    def test_chorded_c8_is_certified(self, c8_chord):
        report = corollary4_check(c8_chord)
        assert len(report.verdicts) == 1
        v = report.verdicts[0]
        assert v.cycle.length == 8
        assert v.match is None and v.search_exhausted
        assert v.certified_nongeodetic
        assert report.oracle_k == 2
        assert (report.scanned_max_length, report.exhaustive) == (c8_chord.vertex_count, True)

    def test_bare_even_cycle_is_certified(self):
        verdicts = corollary4_check(cycle_graph(6)).verdicts
        assert len(verdicts) == 1 and verdicts[0].certified_nongeodetic

    def test_petersen_is_never_certified(self, petersen):
        report = corollary4_check(petersen)
        verdicts = report.verdicts
        assert len(verdicts) == 10
        assert all(v.match is not None for v in verdicts)
        assert not any(v.certified_nongeodetic for v in verdicts)
        assert report.oracle_k == 1

    def test_h1_is_never_certified(self, h1):
        verdicts = corollary4_check(h1.graph).verdicts
        assert len(verdicts) == 3
        assert not any(v.certified_nongeodetic for v in verdicts)

    def test_h2_certification_pattern(self, h2):
        # The base 6-cycle recovers its own chord system; three skew
        # minimal even cycles admit none, and each certification is sound
        # because the graph really is bigeodetic.
        report = corollary4_check(h2.graph)
        assert len(report.verdicts) == 4
        by_cycle = {v.cycle.vertices: v for v in report.verdicts}
        base = by_cycle.pop((0, 1, 2, 3, 4, 5))
        assert base.match is not None and not base.certified_nongeodetic
        assert all(v.certified_nongeodetic for v in by_cycle.values())
        assert report.oracle_k == 2

    def test_no_even_cycle_means_no_verdicts(self):
        for g in (cycle_graph(7), path_graph(4)):
            report = corollary4_check(g)
            assert report.verdicts == () and report.oracle_k is None
            assert report.exhaustive and report.scanned_max_length == g.vertex_count

    def test_capped_search_never_certifies(self, petersen):
        verdicts = corollary4_check(petersen, SearchLimits(max_combinations=2)).verdicts
        assert verdicts
        for v in verdicts:
            assert not v.search_exhausted
            assert not v.certified_nongeodetic

    def test_cycle_length_cap_limits_the_scan(self):
        report = corollary4_check(cycle_graph(8), SearchLimits(max_cycle_length=6))
        assert report.verdicts == () and report.oracle_k is None
        assert (report.scanned_max_length, report.exhaustive) == (6, False)

    def test_long_bare_cycle_is_certified_at_once(self):
        # No candidate chord exists, so no endpoint subset is tried.
        verdicts = corollary4_check(cycle_graph(30)).verdicts
        assert len(verdicts) == 1
        assert verdicts[0].search_exhausted and verdicts[0].certified_nongeodetic

    def test_single_candidate_chord_is_certified_at_once(self):
        # One candidate pair cannot make an interleaved system, yet the
        # 2n-subsets of all 22 positions number 2,096,920.
        g = cycle_with_chord(22, 0, 9, chord_length=8)
        start = time.perf_counter()
        verdicts = corollary4_check(g).verdicts
        elapsed = time.perf_counter() - start
        assert [v.cycle.length for v in verdicts] == [22]
        assert verdicts[0].search_exhausted and verdicts[0].certified_nongeodetic
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_cycle_length": 3}, "max_cycle_length must be >= 4"),
            ({"max_paths_per_pair": 0}, "max_paths_per_pair must be >= 1"),
            ({"max_combinations": -1}, "max_combinations must be >= 0"),
        ],
    )
    def test_out_of_range_limits_rejected(self, kwargs, message):
        with pytest.raises(GraphError, match=message):
            SearchLimits(**kwargs)

    def test_disconnected_rejected(self):
        from geodetic import from_edge_list

        with pytest.raises(GraphError, match="connected"):
            corollary4_check(from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4)]))


class TestSpecVerdictMemo:
    """``corollary4_check`` gives, cycle by cycle, the verdicts of an
    independent brute-force search on each minimal even cycle."""

    @pytest.mark.parametrize(
        "g",
        [
            *(complete_graph(n) for n in range(5, 10)),
            petersen_graph(),
            build(CERTIFY_SPEC).graph,
            *seeded_samples(9, 8, seed=919),
            *seeded_samples(10, 8, seed=1019),
            # Each block's 6-cycles carry a (3, 2) system; H1's meets both
            # conditions and the boundary spec's fails condition 2, so one
            # run judges specs of one shape both ways, in either order.
            one_point_union(build(H1_SPEC).graph, build(BOUNDARY_SPEC).graph),
            one_point_union(build(BOUNDARY_SPEC).graph, build(H1_SPEC).graph),
        ],
        ids=[
            *(f"K{n}" for n in range(5, 10)),
            "petersen",
            "certify-spec",
            *(f"random9-{i}" for i in range(8)),
            *(f"random10-{i}" for i in range(8)),
            "h1+boundary",
            "boundary+h1",
        ],
    )
    @pytest.mark.parametrize(
        "limits", [SearchLimits(), SearchLimits(max_combinations=3)], ids=["default", "combos3"]
    )
    def test_verdicts_match_brute_force_per_cycle(self, g, limits):
        report = corollary4_check(g, limits)
        expected = []
        for c in minimal_even_cycles(g, g.vertex_count)[1]:
            r = brute_find_chord_system(g, c, limits)
            expected.append((c, r.system, r.exhausted, r.system is None and r.exhausted))
        assert [
            (v.cycle, v.match, v.search_exhausted, v.certified_nongeodetic)
            for v in report.verdicts
        ] == expected


class TestHoffmanSingleton:
    """The Hoffman-Singleton graph: a Moore graph of diameter 2 and girth 5,
    so geodetic, whose 5,250 minimal even cycles all have length 6."""

    @pytest.fixture(scope="class")
    def hs(self):
        return hoffman_singleton_graph()

    def test_shape_and_class(self, hs):
        assert (hs.vertex_count, hs.edge_count) == (50, 175)
        assert all(len(hs.adjacency[v]) == 7 for v in hs.vertices())
        assert count_geodesics(hs).k_value == 1

    def test_lemma1_finds_no_witness(self, hs):
        verdict = lemma1_scan(hs)
        assert verdict.exhaustive
        assert verdict.witness is None

    def test_cor4_matches_every_cycle(self, hs):
        report = corollary4_check(hs)
        assert len(report.verdicts) == 5250
        assert all(v.cycle.length == 6 for v in report.verdicts)
        assert all(v.match is not None and v.search_exhausted for v in report.verdicts)
        assert not any(v.certified_nongeodetic for v in report.verdicts)
        assert report.oracle_k == 1 and report.exhaustive


class TestSweepValidate:
    def test_l3_sweep_is_consistent(self):
        findings = list(sweep_validate(SweepBounds(3)))
        assert [f.spec for f in findings] == enumerated_specs(SweepBounds(3))
        for f in findings:
            assert f.consistent
            assert f.pair_property.holds
            assert f.report.all_conditions_hold
            assert f.oracle.k == (1 if f.spec.n == 2 else 2)

    def test_boundary_spec_is_flagged_but_consistent(self):
        findings = {
            f.spec: f for f in sweep_validate(SweepBounds(3, include_invalid=True))
        }
        f = findings[BOUNDARY_SPEC]
        assert not f.report.all_conditions_hold
        assert f.report.embedded
        assert not f.pair_property.holds
        assert f.consistent

    def test_each_candidate_is_evaluated_once(self, monkeypatch):
        from geodetic import embedding, harness

        evaluated: Counter = Counter()
        validations = 0
        real_evaluate, real_validate = embedding.evaluate_spec, embedding._problems_and_spans

        def counting_evaluate(spec):
            evaluated[spec] += 1
            return real_evaluate(spec)

        def counting_validate(spec):
            nonlocal validations
            validations += 1
            return real_validate(spec)

        monkeypatch.setattr(harness, "evaluate_spec", counting_evaluate)
        monkeypatch.setattr(embedding, "_problems_and_spans", counting_validate)
        findings = list(sweep_validate(SweepBounds(4)))
        assert len(findings) == 23
        assert sum(evaluated.values()) == 23  # every candidate is yielded
        assert max(evaluated.values()) == 1
        assert validations <= 23 + 23  # one per candidate, one per build

    @pytest.mark.parametrize("bounds", [SweepBounds(4, include_invalid=True), SweepBounds(8)])
    def test_matches_the_oracle_on_every_spec(self, bounds):
        assert [finding_record(f) for f in sweep_validate(bounds)] == [
            finding_record(f) for f in brute_sweep_validate(bounds)
        ]

    @given(cycle_specs())
    def test_orbit_key_is_shared_and_maps_chords(self, spec):
        image, sign, shift = _orbit_key(spec)
        images = list(dihedral_images(spec))
        assert len(images) == 4 * spec.n
        for other in images:
            assert _orbit_key(other)[0] == image
        assert image == min((s.arcs, s.chords) for s in images)
        rep = EmbeddedSpec(spec.L, spec.n, *image)
        assert _orbit_key(rep) == (image, 1, 0)  # a representative keeps its labels
        m = spec.cycle_length
        mapped = {
            (frozenset((sign * x + shift) % m for x in pair), c)
            for pair, c in chord_diagram(rep)
        }
        assert mapped == chord_diagram(spec)

    def test_oracle_is_one_bfs_per_vertex(self, monkeypatch):
        from geodetic import graphs, harness

        searches = 0
        real_bfs = graphs._bfs_counts

        def counting_bfs(g, s, depth):
            nonlocal searches
            searches += 1
            return real_bfs(g, s, depth)

        def forbidden(g):
            raise AssertionError("the sweep must not call count_geodesics")

        monkeypatch.setattr(harness, "_bfs_counts", counting_bfs)
        monkeypatch.setattr(harness, "count_geodesics", forbidden)
        findings = list(sweep_validate(SweepBounds(4, include_invalid=True)))
        # One oracle run per orbit of rotations and reflections, on its
        # least image: 107 orbits among the 558 specs.
        representatives = {
            (f.spec.L, f.spec.n, min((s.arcs, s.chords) for s in dihedral_images(f.spec)))
            for f in findings
        }
        assert (len(findings), len(representatives)) == (558, 107)
        assert searches == sum(
            build(EmbeddedSpec(big_l, n, *image)).graph.vertex_count
            for big_l, n, image in representatives
        )

    def test_oracle_matches_count_geodesics(self):
        for f in sweep_validate(SweepBounds(4, include_invalid=True)):
            g = build(f.spec).graph
            assert f.oracle.k == f.pair_property.oracle_k == count_geodesics(g).k_value

    def test_finding_record_shape(self):
        finding = next(iter(sweep_validate(SweepBounds(2))))
        record = finding_record(finding)
        assert record == {
            "spec": "L=2 n=2 arcs=1,1,1,1 chords=1,1",
            "L": 2,
            "n": 2,
            "arcs": [1, 1, 1, 1],
            "chords": [1, 1],
            "chord_valid": True,
            "condition1": True,
            "condition2": True,
            "embeddedness": True,
            "predicted": "GEODETIC",
            "oracle_k": 1,
            "oracle_class": "GEODETIC",
            "pair_property_holds": True,
            "violations": [],
            "consistent": True,
        }
