from __future__ import annotations

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import H1_SPEC, H2_SPEC
from geodetic import (
    EmbeddedSpec,
    GeodeticClass,
    GraphError,
    build,
    complete_graph,
    evaluate_spec,
    format_spec_line,
    parse_spec_line,
)


def small_specs():
    """Every arc/chord tuple of the right shape for L <= 4, valid or not."""
    for L in range(2, 5):
        for n in range(2, L + 1):
            for cuts in product(range(1, 2 * L), repeat=2 * n - 1):
                arcs = []
                prev = 0
                bad = False
                for cut in cuts:
                    if cut <= prev:
                        bad = True
                        break
                    arcs.append(cut - prev)
                    prev = cut
                if bad or prev >= 2 * L:
                    continue
                arcs.append(2 * L - prev)
                for chords in product(range(1, L + 1), repeat=n):
                    yield EmbeddedSpec(L, n, tuple(arcs), chords)


@st.composite
def arbitrary_specs(draw):
    L = draw(st.integers(2, 6))
    n = draw(st.integers(2, L))
    arcs = tuple(draw(st.integers(1, 5)) for _ in range(2 * n))
    chords = tuple(draw(st.integers(1, 5)) for _ in range(n))
    return EmbeddedSpec(L, n, arcs, chords)


@st.composite
def structured_specs(draw):
    """Specs whose shape and arc sum are right; chords may be invalid."""
    L = draw(st.integers(2, 8))
    n = draw(st.integers(2, L))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * L - 1), min_size=2 * n - 1, max_size=2 * n - 1)))
    pos = [0, *cuts, 2 * L]
    arcs = tuple(b - a for a, b in zip(pos, pos[1:]))
    chords = tuple(draw(st.integers(1, L + 1)) for _ in range(n))
    return EmbeddedSpec(L, n, arcs, chords)


class TestSpecGeometry:
    def test_node_positions(self):
        assert H1_SPEC.node_positions() == (0, 1, 3, 5)
        assert H2_SPEC.node_positions() == (0, 1, 2, 3, 4, 5)

    def test_clockwise_span(self):
        assert H1_SPEC.clockwise_span(0) == 3
        assert H1_SPEC.clockwise_span(1) == 4
        assert all(H2_SPEC.clockwise_span(i) == 3 for i in range(3))

    def test_cycle_length(self):
        assert H1_SPEC.cycle_length == 6


class TestValidateSpec:
    """The problems ``evaluate_spec`` reports.  Broken structure leaves no
    cycle lengths to read."""

    def test_fixture_specs_are_valid(self):
        assert evaluate_spec(H1_SPEC).chord_valid
        assert evaluate_spec(H2_SPEC).chord_valid

    def test_overlong_chord_rejected(self):
        v = evaluate_spec(EmbeddedSpec(3, 2, (1, 2, 2, 1), (3, 1)))
        assert not v.chord_valid
        assert v.chord_arc_lengths is not None and v.adjacent_lengths is not None
        assert v.problems == (
            "chord A1 has length 3, not strictly shorter than "
            "both arcs (3 and 3) between its endpoints",
        )

    def test_arc_sum_mismatch(self):
        v = evaluate_spec(EmbeddedSpec(3, 2, (1, 1, 1, 1), (2, 1)))
        assert v.chord_arc_lengths is None and v.adjacent_lengths is None
        assert "arcs sum to 4, expected 2L = 6" in v.problems

    def test_n_out_of_range(self):
        v = evaluate_spec(EmbeddedSpec(2, 3, (1, 1, 1, 1, 0, 0), (1, 1, 1)))
        assert v.chord_arc_lengths is None and v.adjacent_lengths is None
        assert any("2 <= n <= L" in p for p in v.problems)

    def test_nonpositive_length(self):
        v = evaluate_spec(EmbeddedSpec(3, 2, (0, 3, 2, 1), (2, 1)))
        assert v.chord_arc_lengths is None and v.adjacent_lengths is None
        assert "arc and chord lengths must be positive" in v.problems

    def test_wrong_tuple_shapes(self):
        v = evaluate_spec(EmbeddedSpec(3, 2, (1, 2, 2), (2,)))
        assert v.chord_arc_lengths is None and v.adjacent_lengths is None
        assert "expected 4 arcs, got 3" in v.problems
        assert "expected 2 chords, got 1" in v.problems


class TestBuild:
    def test_h1_shape(self, h1):
        assert h1.graph.vertex_count == 7
        assert h1.graph.edge_count == 9
        assert h1.node_positions == (0, 1, 3, 5)
        assert h1.chord_paths == ((0, 6, 3), (1, 5))

    def test_h2_shape(self, h2):
        assert h2.graph.vertex_count == 9
        assert h2.graph.edge_count == 12
        assert h2.chord_paths == ((0, 6, 3), (1, 7, 4), (2, 8, 5))

    def test_degree_profile(self, h1, h2):
        for built in (h1, h2):
            degrees = sorted(built.graph.degree(v) for v in built.graph.vertices())
            n = built.spec.n
            assert degrees == [2] * (built.graph.vertex_count - 2 * n) + [3] * (2 * n)
            assert all(built.graph.degree(p) == 3 for p in built.node_positions)

    def test_unit_chords_degenerate_to_complete4(self):
        built = build(EmbeddedSpec(2, 2, (1, 1, 1, 1), (1, 1)))
        assert built.graph.adjacency == complete_graph(4).adjacency

    def test_chord_paths_share_no_internal_vertices(self, h2):
        internals = [v for path in h2.chord_paths for v in path[1:-1]]
        assert len(internals) == len(set(internals))
        assert all(v >= h2.spec.cycle_length for v in internals)

    def test_deterministic(self):
        assert build(H1_SPEC) == build(H1_SPEC)

    def test_invalid_spec_rejected(self):
        with pytest.raises(GraphError, match="invalid spec"):
            build(EmbeddedSpec(3, 2, (1, 2, 2, 1), (3, 1)))


class TestCondition1:
    def test_h1(self, h1):
        report = evaluate_spec(h1.spec)
        assert report.condition1
        assert report.chord_arc_lengths == ((5, 5), (5, 3))

    def test_h2(self):
        report = evaluate_spec(H2_SPEC)
        assert report.condition1
        assert report.chord_arc_lengths == ((5, 5),) * 3

    def test_even_chord_arc_cycle_fails(self):
        report = evaluate_spec(EmbeddedSpec(3, 2, (1, 2, 2, 1), (2, 2)))
        assert report.condition1 is False
        assert report.chord_arc_lengths[1] == (6, 4)
        assert not all(ln % 2 for ln in report.chord_arc_lengths[1])


class TestCondition2:
    def test_h1(self, h1):
        report = evaluate_spec(h1.spec)
        assert report.condition2 and report.adjacent_lengths == (6, 6)

    def test_h2(self):
        report = evaluate_spec(H2_SPEC)
        assert report.condition2 and report.adjacent_lengths == (6, 6, 6)

    def test_unequal_cycle_fails(self):
        report = evaluate_spec(EmbeddedSpec(3, 2, (2, 1, 2, 1), (2, 1)))
        assert report.condition2 is False
        assert report.adjacent_lengths == (7, 5)

    def test_holding_forces_chord_sum(self):
        # Arithmetic consequence: summing all n cycle equations gives
        # sum(chords) = L * (n - 1), whatever the chord validity.
        seen = 0
        for spec in small_specs():
            if evaluate_spec(spec).condition2:
                seen += 1
                assert sum(spec.chords) == spec.L * (spec.n - 1)
        assert seen > 50


class TestEmbeddedness:
    def test_fixtures_pass(self, h1):
        assert evaluate_spec(h1.spec).embedded
        assert evaluate_spec(H2_SPEC).embedded

    def test_short_even_chord_arc_cycle(self):
        report = evaluate_spec(EmbeddedSpec(4, 2, (2, 2, 2, 2), (2, 2)))
        assert report.embedded is False
        first = report.violations[0]
        assert first.kind == "chord_arc"
        assert first.chord_indices == (0,)
        assert first.length == 6
        assert first.arc_side == "cw"

    def test_short_even_adjacent_chord_cycle(self):
        # Chord cycle lengths (1+1+1+1, ...) = 4 < 8 and even.
        report = evaluate_spec(EmbeddedSpec(4, 2, (1, 3, 1, 3), (1, 1)))
        assert report.embedded is False
        assert any(v.kind == "adjacent_chords" and v.length == 4 for v in report.violations)

    def test_conditions_imply_embeddedness(self):
        for spec in small_specs():
            report = evaluate_spec(spec)
            if report.condition1 and report.condition2:
                assert report.embedded


class TestEvaluateSpec:
    def test_h1_predicts_geodetic(self):
        report = evaluate_spec(H1_SPEC)
        assert report.all_conditions_hold
        assert report.predicted_class == GeodeticClass(1)

    def test_h2_predicts_bigeodetic(self):
        report = evaluate_spec(H2_SPEC)
        assert report.all_conditions_hold
        assert report.predicted_class == GeodeticClass(2)

    def test_failed_condition_predicts_nothing(self):
        report = evaluate_spec(EmbeddedSpec(3, 2, (2, 1, 2, 1), (2, 1)))
        assert not report.all_conditions_hold
        assert report.predicted_class is None
        assert report.condition2 is False

    def test_broken_structure_reports_no_checks(self):
        report = evaluate_spec(EmbeddedSpec(3, 2, (1, 1, 1, 1), (2, 1)))
        assert report.condition1 is None
        assert report.condition2 is None
        assert report.embedded is None
        assert report.violations is None
        assert report.predicted_class is None

    @settings(max_examples=200)
    @given(arbitrary_specs() | structured_specs())
    @example(H1_SPEC)
    @example(H2_SPEC)
    def test_matches_inline_arithmetic(self, spec):
        """Every field derived from the spec arithmetic, re-derived inline."""
        report = evaluate_spec(spec)
        if report.chord_arc_lengths is None:
            assert report.condition1 is None and report.predicted_class is None
            return
        L, n, arcs, chords = spec.L, spec.n, spec.arcs, spec.chords
        m = 2 * L
        spans = [sum(arcs[i : i + n]) for i in range(n)]
        chord_arc = [(c + s, c + m - s) for c, s in zip(chords, spans)]
        adjacent = [
            arcs[i] + chords[i] + chords[(i + 1) % n] + arcs[n + i] for i in range(n)
        ]
        violations = [
            ("chord_arc", (i,), ln, side)
            for i, pair in enumerate(chord_arc)
            for side, ln in zip(("cw", "ccw"), pair)
            if ln % 2 == 0 and ln < m
        ] + [
            ("adjacent_chords", (i, (i + 1) % n), ln, None)
            for i, ln in enumerate(adjacent)
            if ln % 2 == 0 and ln < m
        ]
        holds = (
            all(c < s and c < m - s for c, s in zip(chords, spans))
            and all(ln % 2 == 1 for pair in chord_arc for ln in pair)
            and all(ln == m for ln in adjacent)
            and not violations
        )
        assert list(report.chord_arc_lengths) == chord_arc
        assert list(report.adjacent_lengths) == adjacent
        assert [
            (v.kind, v.chord_indices, v.length, v.arc_side)
            for v in report.violations
        ] == violations
        assert report.embedded == (not violations)
        expected = GeodeticClass(1 if n == 2 else 2) if holds else None
        assert report.predicted_class == expected
        assert report.all_conditions_hold == holds


class TestSpecLineFormat:
    def test_format_fixture(self):
        assert format_spec_line(H1_SPEC) == "L=3 n=2 arcs=1,2,2,1 chords=2,1"

    def test_parse_fixture(self):
        assert parse_spec_line("L=3 n=3 arcs=1,1,1,1,1,1 chords=2,2,2") == H2_SPEC

    def test_field_order_is_free(self):
        assert parse_spec_line("chords=2,1 arcs=1,2,2,1 n=2 L=3") == H1_SPEC

    @settings(max_examples=80)
    @given(arbitrary_specs())
    def test_round_trip(self, spec):
        assert parse_spec_line(format_spec_line(spec)) == spec

    def test_missing_key(self):
        with pytest.raises(GraphError, match="missing chords"):
            parse_spec_line("L=3 n=2 arcs=1,2,2,1")

    def test_duplicate_key(self):
        with pytest.raises(GraphError, match="duplicate key 'L'"):
            parse_spec_line("L=3 L=4 n=2 arcs=1,2,2,1 chords=2,1")

    def test_unknown_token(self):
        with pytest.raises(GraphError, match="unrecognised token 'Q=3'"):
            parse_spec_line("Q=3 L=3 n=2 arcs=1,2,2,1 chords=2,1")

    def test_non_integer_value(self):
        with pytest.raises(GraphError, match="non-integer value in arcs"):
            parse_spec_line("L=3 n=2 arcs=1,,2,1 chords=2,1")

    def test_multi_value_scalar(self):
        with pytest.raises(GraphError, match="L must be a single integer"):
            parse_spec_line("L=3,4 n=2 arcs=1,2,2,1 chords=2,1")
