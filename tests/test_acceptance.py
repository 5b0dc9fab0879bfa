"""Acceptance gate: one test per claim the package must uphold, each
printing a single PASS line with its headline numbers (run with ``-s`` or
``-rA`` to see them; ``pytest -v`` shows one PASSED/FAILED line per
criterion either way)."""

from __future__ import annotations

import time
from itertools import product

import pytest

from conftest import H2_SPEC, engine_rows
from geodetic import (
    SweepBounds,
    build,
    complete_graph,
    corollary4_check,
    count_geodesics,
    cycle_graph,
    cycle_with_chord,
    format_spec_line,
    lemma1_scan,
    petersen_graph,
    subdivided_k4,
    sweep_validate,
    theorem1_check,
)
from oracles import brute_k, brute_profile


@pytest.fixture(scope="module")
def full_sweep():
    """Every condition-satisfying spec with L <= 8 (1,560 of them),
    validated against the oracle."""
    return list(sweep_validate(SweepBounds(8)))


@pytest.fixture(scope="module")
def invalid_sweep():
    """Every chord-valid spec with L <= 5, including condition failures."""
    return list(sweep_validate(SweepBounds(5, include_invalid=True)))


def test_criterion_01_shortest_path_counts_match_brute_force(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 500
    assert all(g.vertex_count <= 7 for g in corpus)
    for g in corpus:
        dist, counts = engine_rows(g)
        for (u, v), (d, count) in brute_profile(g).items():
            assert dist[u][v] == d
            assert counts[u][v] == count
        profile = count_geodesics(g)
        assert (profile.k_value, profile.witness_pair) == brute_k(g)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"criterion 1: PASS — {len(corpus)} graphs match the brute-force "
        f"path counts in {elapsed:.1f}s"
    )


def test_criterion_02_even_cycle_witness_is_equivalent_to_k_at_least_2(corpus):
    started = time.perf_counter()
    witnesses = 0
    for g in corpus:
        verdict = lemma1_scan(g)
        assert verdict.exhaustive
        has_witness = verdict.witness is not None
        witnesses += has_witness
        assert has_witness == (count_geodesics(g).k_value >= 2)
        if has_witness:
            u, v = verdict.witness_pair
            assert engine_rows(g)[0][u][v] == verdict.witness.length // 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"criterion 2: PASS — witness found exactly on the {witnesses} "
        f"non-geodetic corpus graphs in {elapsed:.1f}s"
    )


def test_criterion_03_two_chord_specs_are_geodetic(full_sweep):
    checked = [f for f in full_sweep if f.spec.n == 2]
    assert {f.spec.L for f in checked} == {2, 3, 4, 5, 6, 7, 8}
    for f in checked:
        assert f.oracle.k == 1, format_spec_line(f.spec)
    print(f"criterion 3: PASS — all {len(checked)} n=2 specs with L<=8 are geodetic")


def test_criterion_04_many_chord_specs_are_bigeodetic(full_sweep):
    """The paper claims K <= 2 for 3 <= n <= L.  K = 2 exactly, asserted
    here, is a measured pattern of every such spec with L <= 8, not a claim
    of the paper."""
    checked = [f for f in full_sweep if f.spec.n >= 3]
    assert len(checked) == 1350
    for f in checked:
        assert f.oracle.k == 2, format_spec_line(f.spec)
    print(f"criterion 4: PASS — all {len(checked)} specs with 3<=n<=L<=8 have K=2 exactly")


def test_criterion_05_cycle_pair_property_has_no_exceptions(full_sweep):
    for f in full_sweep:
        assert f.pair_property.holds, format_spec_line(f.spec)
        assert f.pair_property.violations == ()
    print(
        f"criterion 5: PASS — the base-cycle pair property holds for all "
        f"{len(full_sweep)} condition-satisfying specs"
    )


def test_criterion_06_condition_failures_break_the_pair_property(invalid_sweep):
    failing = [f for f in invalid_sweep if not f.report.all_conditions_hold]
    assert failing
    embedded_failing = [f for f in failing if f.report.embedded]
    assert embedded_failing
    for f in embedded_failing:
        assert not f.pair_property.holds, format_spec_line(f.spec)
    flagged = [f for f in failing if f.pair_property.holds]
    for f in flagged:
        assert not f.report.embedded, format_spec_line(f.spec)
        assert f.consistent
        print(
            f"  flagged: {format_spec_line(f.spec)} keeps the pair property but "
            f"its chord layout has a short even cycle (oracle {f.oracle})"
        )
    assert len(flagged) == 13
    print(
        f"criterion 6: PASS — every one of the {len(embedded_failing)} embedded "
        f"condition-failing specs with L<=5 violates the pair property; "
        f"{len(flagged)} non-embedded layouts flagged"
    )


def test_criterion_07_condition2_forces_the_chord_sum(full_sweep, invalid_sweep):
    seen = 0
    for f in list(full_sweep) + list(invalid_sweep):
        if f.report.condition2:
            seen += 1
            assert sum(f.spec.chords) == f.spec.L * (f.spec.n - 1), format_spec_line(f.spec)
    assert seen > 200
    print(f"criterion 7: PASS — chord sum L*(n-1) verified on {seen} specs")


def test_criterion_08_k4_subdivision_test_matches_the_oracle():
    started = time.perf_counter()
    geodetic = 0
    total = 0
    for lengths in product((1, 2, 3, 4), repeat=6):
        g = subdivided_k4(lengths)
        report = theorem1_check(g)
        assert report.is_k4_homeomorph
        verdict = report.verdict_geodetic
        assert verdict == (count_geodesics(g).k_value == 1), lengths
        geodetic += verdict
        total += 1
    elapsed = time.perf_counter() - started
    assert total == 4096
    assert elapsed < 120
    print(
        f"criterion 8: PASS — verdict matches the oracle on all 4096 "
        f"subdivisions ({geodetic} geodetic) in {elapsed:.1f}s"
    )


def test_criterion_09_certification_is_sound(full_sweep, h2):
    # Graphs whose minimal even cycles carry no chord system must be
    # certified, and everything geodetic must never be.
    certified_fixtures = [
        cycle_graph(4),
        cycle_graph(6),
        cycle_graph(8),
        cycle_graph(10),
        cycle_with_chord(8, 0, 4),
    ]
    for g in certified_fixtures:
        report = corollary4_check(g)
        assert any(v.certified_nongeodetic for v in report.verdicts)
        assert count_geodesics(g).k_value >= 2
        assert report.oracle_k >= 2

    assert not any(v.certified_nongeodetic for v in corollary4_check(petersen_graph()).verdicts)

    protected = 0
    for f in full_sweep:
        if f.oracle.k == 1:
            h = build(f.spec)
            assert not any(
                v.certified_nongeodetic for v in corollary4_check(h.graph).verdicts
            ), format_spec_line(f.spec)
            protected += 1
    assert protected >= 210

    # Pinned pattern: the many-chord fixture is bigeodetic, its base cycle
    # recovers its own chord system, and three skew minimal even cycles
    # carry none, so certifying through them is sound.
    report = corollary4_check(h2.graph)
    verdicts = report.verdicts
    assert len(verdicts) == 4
    assert sum(v.certified_nongeodetic for v in verdicts) == 3
    base = next(v for v in verdicts if v.cycle.vertices == (0, 1, 2, 3, 4, 5))
    assert base.match is not None and not base.certified_nongeodetic
    assert report.oracle_k == 2
    print(
        f"criterion 9: PASS — certification fires on the {len(certified_fixtures)} "
        f"witness fixtures, never on Petersen or the {protected} geodetic specs, "
        f"and the bigeodetic fixture's 3 certifications are sound"
    )


def test_criterion_10_named_fixtures_classify_correctly():
    for size in range(1, 7):
        assert count_geodesics(complete_graph(size)).k_value == 1
    for size in (5, 7):
        assert count_geodesics(cycle_graph(size)).k_value == 1
    for size in (4, 6, 8, 10):
        profile = count_geodesics(cycle_graph(size))
        assert profile.k_value == 2
        assert profile.witness_pair == (0, size // 2)
    assert count_geodesics(petersen_graph()).k_value == 1
    print(
        "criterion 10: PASS — complete graphs and odd cycles geodetic, even "
        "cycles bigeodetic at their opposite pairs, Petersen geodetic"
    )
