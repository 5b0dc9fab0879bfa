from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetic import (
    SearchLimits,
    build,
    complete_graph,
    cycle_graph,
    format_edge_list,
    load_report,
    parse_edge_list,
    read_findings,
    subdivided_k4,
    sweep_validate,
)
from geodetic.cli import build_parser, main

H1_LINE = "L=3 n=2 arcs=1,2,2,1 chords=2,1"
H2_LINE = "L=3 n=3 arcs=1,1,1,1,1,1 chords=2,2,2"


def graph_file(tmp_path, g, name="graph.edges"):
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


def report_of(capsys):
    return load_report(capsys.readouterr().out)


class TestClassify:
    def test_geodetic_graph(self, tmp_path, capsys, petersen):
        rc = main(["classify", graph_file(tmp_path, petersen)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GEODETIC (K=1)" in out

    def test_bigeodetic_graph_shows_witness(self, tmp_path, capsys):
        rc = main(["classify", graph_file(tmp_path, cycle_graph(6))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "BIGEODETIC (K=2)" in out
        assert "witness pair (0, 3): 2 geodesics of length 3" in out
        assert "  0 - 1 - 2 - 3" in out
        assert "  0 - 5 - 4 - 3" in out

    def test_json(self, tmp_path, capsys):
        rc = main(["classify", "--json", graph_file(tmp_path, cycle_graph(6))])
        report = report_of(capsys)
        assert rc == 1
        assert report["command"] == "classify"
        assert report["k"] == 2 and report["class"] == "BIGEODETIC"
        assert report["witness_pair"] == [0, 3]
        assert report["witness_geodesics"] == [[0, 1, 2, 3], [0, 5, 4, 3]]
        assert report["witness_geodesics_truncated"] is False


class TestLemma1:
    def test_witness_found(self, tmp_path, capsys):
        rc = main(["lemma1", graph_file(tmp_path, cycle_graph(6))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "witness cycle of length 6: 0 1 2 3 4 5" in out
        assert "opposite pair (0, 3) realises distance 3" in out
        assert "not geodetic" in out

    def test_no_witness(self, tmp_path, capsys, petersen):
        rc = main(["lemma1", graph_file(tmp_path, petersen)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no witness cycle (scan exhaustive)" in out

    def test_capped_scan_is_marked_inconclusive(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_graph(8))
        rc = main(["lemma1", path, "--max-len", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scanned cycles up to length 6 only" in out

    def test_json(self, tmp_path, capsys):
        rc = main(["lemma1", "--json", graph_file(tmp_path, cycle_graph(8))])
        report = report_of(capsys)
        assert rc == 1
        assert report["witness"] == [0, 1, 2, 3, 4, 5, 6, 7]
        assert report["witness_pair"] == [0, 4]
        assert report["exhaustive"] is True


class TestScanScope:
    @pytest.mark.parametrize(
        "g, cap, scope",
        [
            (complete_graph(3), None, (3, True)),
            (cycle_graph(10), None, (10, True)),
            (cycle_graph(10), 100, (10, True)),
            (cycle_graph(10), 6, (6, False)),
        ],
        ids=["K3", "C10", "C10-cap100", "C10-cap6"],
    )
    def test_lemma1_and_cor4_report_the_same_scope(self, tmp_path, capsys, g, cap, scope):
        path = graph_file(tmp_path, g)
        reported = []
        for command, option in (("lemma1", "--max-len"), ("cor4", "--max-cycle-len")):
            main([command, "--json", path] + ([option, str(cap)] if cap else []))
            report = report_of(capsys)
            reported.append((report["scanned_max_length"], report["exhaustive"]))
        assert reported == [scope, scope]


class TestBuildEmbedded:
    def test_stdout_edge_list_round_trips(self, capsys, h1):
        rc = main(["build-embedded", "--spec", H1_LINE])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"# embedded even graph {H1_LINE}" in out
        assert parse_edge_list(out).adjacency == h1.graph.adjacency

    def test_output_file(self, tmp_path, capsys, h1):
        dest = tmp_path / "h1.edges"
        rc = main(["build-embedded", "--spec", H1_LINE, "-o", str(dest)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"wrote 7 vertices / 9 edges to {dest}" in out
        assert parse_edge_list(dest.read_text()).adjacency == h1.graph.adjacency

    def test_json(self, capsys, h2):
        rc = main(["build-embedded", "--json", "--spec", H2_LINE])
        report = report_of(capsys)
        assert rc == 0
        assert report["vertices"] == 9 and report["edges"] == 12
        assert report["node_positions"] == [0, 1, 2, 3, 4, 5]
        assert report["chord_paths"] == [[0, 6, 3], [1, 7, 4], [2, 8, 5]]
        assert parse_edge_list(report["edge_list"]).adjacency == h2.graph.adjacency

    def test_invalid_spec_is_a_usage_error(self, capsys):
        rc = main(["build-embedded", "--spec", "L=3 n=2 arcs=1,2,2,1 chords=3,1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: invalid spec")

    def test_oversized_spec_is_a_usage_error(self, capsys):
        # A well-formed spec of 2 * 10**8 vertices: refused by its vertex
        # count, before the graph is allocated.
        line = "L=100000000 n=2 arcs=1,99999999,1,99999999 chords=1,1"
        start = time.perf_counter()
        rc = main(["build-embedded", "--spec", line])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: spec has 200000000 vertices")
        assert elapsed < 1


class TestCheckEmbedded:
    def test_passing_spec(self, capsys):
        rc = main(["check-embedded", "--spec", H1_LINE])
        out = capsys.readouterr().out
        assert rc == 0
        assert "condition 1 (chord+arc cycles all odd): ok (A1: 5/5, A2: 5/3)" in out
        assert "condition 2 (neighbouring-chord cycles all 6): ok (6, 6)" in out
        assert "embeddedness (no even cycle shorter than 6 among them): ok" in out
        assert "predicted class: GEODETIC (K=1)" in out

    def test_many_chords_predict_k2(self, capsys):
        rc = main(["check-embedded", "--spec", H2_LINE])
        assert rc == 0
        assert "predicted class: BIGEODETIC (K<=2)" in capsys.readouterr().out

    def test_failing_condition(self, capsys):
        rc = main(["check-embedded", "--spec", "L=3 n=2 arcs=2,1,2,1 chords=2,1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "condition 2 (neighbouring-chord cycles all 6): FAIL (7, 5)" in out
        assert "no class prediction (checks failed)" in out

    def test_invalid_chord_is_reported_not_fatal(self, capsys):
        rc = main(["check-embedded", "--spec", "L=3 n=2 arcs=1,2,2,1 chords=3,1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "invalid: chord A1 has length 3" in out

    def test_malformed_spec_is_a_usage_error(self, capsys):
        rc = main(["check-embedded", "--spec", "L=3 n=2"])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_json(self, capsys):
        rc = main(["check-embedded", "--json", "--spec", H1_LINE])
        report = report_of(capsys)
        assert rc == 0
        assert report["condition1"] == {
            "ok": True,
            "chord_arc_cycle_lengths": [[5, 5], [5, 3]],
        }
        assert report["condition2"]["adjacent_chord_cycle_lengths"] == [6, 6]
        assert report["embeddedness"]["ok"] is True
        assert report["predicted"] == "GEODETIC"


class TestK4Check:
    def test_geodetic_subdivision(self, tmp_path, capsys, h1):
        rc = main(["k4-check", graph_file(tmp_path, h1.graph)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "homeomorphic to K4" in out
        assert "verdict: geodetic" in out

    def test_failing_subdivision(self, tmp_path, capsys):
        rc = main(["k4-check", graph_file(tmp_path, subdivided_k4((2, 1, 1, 1, 1, 1)))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "three-segment cycles all odd: FAIL" in out
        assert "verdict: not geodetic" in out

    def test_non_subdivision(self, tmp_path, capsys, petersen):
        rc = main(["k4-check", graph_file(tmp_path, petersen)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "not homeomorphic to K4; test does not apply" in out

    def test_json_on_non_subdivision(self, tmp_path, capsys, petersen):
        rc = main(["k4-check", "--json", graph_file(tmp_path, petersen)])
        report = report_of(capsys)
        assert rc == 1
        assert report["is_k4_homeomorph"] is False
        assert report["verdict_geodetic"] is None


class TestSweep:
    def test_small_sweep(self, capsys):
        rc = main(["sweep", "--lmax", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "  L  n   specs  conds-ok  inconsistent" in out
        assert "total: 6 specs, 0 inconsistent" in out

    def test_findings_file(self, tmp_path, capsys):
        dest = tmp_path / "findings.json"
        rc = main(["sweep", "--lmax", "3", "-o", str(dest)])
        assert rc == 0
        assert f"findings written to {dest}" in capsys.readouterr().out
        header, records = read_findings(dest)
        assert header["L_max"] == 3 and header["include_invalid"] is False
        assert len(records) == 6
        assert records[0]["spec"] == "L=2 n=2 arcs=1,1,1,1 chords=1,1"
        assert all(r["consistent"] for r in records)

    def test_converse_findings_file_is_pinned(self, tmp_path, capsys):
        # The whole L <= 4 converse findings file, every verdict bit of its
        # 558 specs included.  The differential sweep tests compare against
        # a referee that shares evaluate_spec and SweepFinding.consistent,
        # so a changed bit would pass them; it cannot pass this digest.
        dest = tmp_path / "findings.jsonl"
        rc = main(["sweep", "--lmax", "4", "--include-invalid", "-o", str(dest)])
        assert rc == 0
        assert "total: 558 specs, 0 inconsistent" in capsys.readouterr().out
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "5ac0f7f9c1a029cbdde7dbfe4c8333ad3f113fba4aeda6ee96fd7dd5a5e0d041"
        )

    def test_include_invalid_stays_consistent(self, capsys):
        rc = main(["sweep", "--lmax", "3", "--include-invalid"])
        out = capsys.readouterr().out
        assert rc == 0
        assert ", 0 inconsistent" in out

    def test_json(self, capsys):
        rc = main(["sweep", "--json", "--lmax", "3"])
        report = report_of(capsys)
        assert rc == 0
        assert report["total_specs"] == 6
        assert report["conditions_satisfied"] == 6
        assert report["inconsistent"] == 0
        assert report["findings_file"] is None

    def test_oracle_class_by_chord_count(self, capsys):
        rc = main(["sweep", "--json", "--lmax", "4"])
        entries = report_of(capsys)["oracle_k_by_chord_count"]
        assert rc == 0
        assert sum(e["specs"] for e in entries) == 23
        assert all(e["k"] == 1 for e in entries if e["n"] == 2)
        assert all(e["k"] <= 2 for e in entries if e["n"] >= 3)

    def test_interrupted_sweep_keeps_its_records(self, tmp_path, monkeypatch):
        from geodetic import cli

        def interrupted(bounds):
            findings = sweep_validate(bounds)
            yield next(findings)
            yield next(findings)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "sweep_validate", interrupted)
        dest = tmp_path / "findings.json"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--lmax", "3", "-o", str(dest)])
        header, records = read_findings(dest)
        assert header["L_max"] == 3
        assert [r["spec"] for r in records] == [
            "L=2 n=2 arcs=1,1,1,1 chords=1,1",
            "L=3 n=2 arcs=2,1,1,2 chords=2,1",
        ]


class TestCor4:
    def test_certification(self, tmp_path, capsys, c8_chord):
        rc = main(["cor4", graph_file(tmp_path, c8_chord)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "minimal even cycle 0 1 2 3 4 5 6 7: no chord system (search exhausted)" in out
        assert "certified: the graph is not geodetic" in out

    def test_no_certification(self, tmp_path, capsys, petersen):
        rc = main(["cor4", graph_file(tmp_path, petersen)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("chord system found") == 10
        assert "no certification" in out

    def test_no_certification_names_the_oracle_k(self, tmp_path, capsys):
        # Atlas graph 704: K4 on {3, 4, 5, 6} plus the path 4-0-1-2-3.  Its
        # minimal even cycles are the K4's 4-cycles, which all carry a chord
        # system, yet 1 and 5 are joined by two geodesics.
        path = tmp_path / "g704.edges"
        path.write_text("3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n0 4\n0 1\n1 2\n2 3\n")
        rc = main(["cor4", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == (
            "no certification (oracle K=2): cor4 checks only minimal even cycles, "
            "so this is not a verdict that the graph is geodetic"
        )
        rc = main(["cor4", "--json", str(path)])
        report = report_of(capsys)
        assert rc == 0
        assert report["certified_nongeodetic"] is False
        assert report["oracle_k"] == 2

    def test_no_even_cycle(self, tmp_path, capsys):
        rc = main(["cor4", graph_file(tmp_path, cycle_graph(7))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no even cycle found; nothing to certify" in out

    def test_capped_cycle_scan_is_inconclusive(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_graph(8))
        rc = main(["cor4", path, "--max-cycle-len", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no even cycle up to length 6; the scan was capped" in out
        assert "inconclusive" in out
        assert "nothing to certify" not in out
        rc = main(["cor4", "--json", path, "--max-cycle-len", "6"])
        report = report_of(capsys)
        assert rc == 0
        assert report["verdicts"] == []
        assert report["scanned_max_length"] == 6
        assert report["exhaustive"] is False

    @pytest.mark.parametrize(
        "option, value", [("--max-cycle-len", "-5"), ("--max-paths", "0"), ("--max-combos", "-1")]
    )
    def test_out_of_range_cap_is_a_usage_error(self, tmp_path, capsys, option, value):
        rc = main(["cor4", "--json", graph_file(tmp_path, cycle_graph(8)), option, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_capped_search_is_inconclusive(self, tmp_path, capsys, petersen):
        rc = main(["cor4", graph_file(tmp_path, petersen), "--max-combos", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "search hit a cap (inconclusive)" in out
        assert "no certification" in out

    def test_json(self, tmp_path, capsys, c8_chord):
        rc = main(["cor4", "--json", graph_file(tmp_path, c8_chord)])
        report = report_of(capsys)
        assert rc == 1
        assert report["certified_nongeodetic"] is True
        assert report["oracle_k"] == 2
        assert len(report["verdicts"]) == 1
        assert report["verdicts"][0]["chord_system"] is None
        assert report["scanned_max_length"] == 8
        assert report["exhaustive"] is True


class TestJsonBytes:
    """Every ``--json`` report is, byte for byte, what ``json.dumps`` with
    ``indent=2`` makes of it: reading it back and dumping it again with
    ``json`` gives the same text."""

    @staticmethod
    def assert_json_dumps_bytes(out):
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_graph_commands_over_the_corpus(self, tmp_path, capsys, corpus):
        # An edge list names no vertex that lies on no edge, so the
        # one-vertex graph has no file.
        for i, g in enumerate(g for g in corpus if g.edge_count):
            path = graph_file(tmp_path, g, f"g{i}.edges")
            for command in ("classify", "lemma1", "cor4", "k4-check"):
                assert main([command, "--json", path]) in (0, 1)
                self.assert_json_dumps_bytes(capsys.readouterr().out)

    def test_spec_commands(self, capsys):
        invalid = ["L=3 n=2 arcs=1,2,2,1 chords=3,1", "L=4 n=2 arcs=1,3,1,3 chords=1,1"]
        for command, lines in (
            ("check-embedded", [H1_LINE, H2_LINE, *invalid]),
            ("build-embedded", [H1_LINE, H2_LINE]),
        ):
            for line in lines:
                main([command, "--json", "--spec", line])
                self.assert_json_dumps_bytes(capsys.readouterr().out)


# Small edge files on at most 12 vertices: connected graphs (a random tree
# plus random edges), or random edge lines mixed with lines the parser
# refuses.  Spec lines with L <= 8: chord systems whose arcs sum to 2L, or
# arbitrary fields.
def csv(values):
    return ",".join(map(str, values))


@st.composite
def connected_edge_lines(draw):
    n = draw(st.integers(2, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=20))
    return [f"{u} {v}" for u, v in edges]


@st.composite
def chord_system_lines(draw):
    big_l = draw(st.integers(2, 8))
    n = draw(st.integers(2, big_l))
    cuts = draw(st.sets(st.integers(1, 2 * big_l - 1), min_size=2 * n - 1, max_size=2 * n - 1))
    ends = (0, *sorted(cuts), 2 * big_l)
    chords = draw(st.lists(st.integers(1, big_l), min_size=n, max_size=n))
    return f"L={big_l} n={n} arcs={csv(b - a for a, b in zip(ends, ends[1:]))} chords={csv(chords)}"


edge_lines = connected_edge_lines() | st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).map(lambda e: f"{e[0]} {e[1]}")
    | st.sampled_from(["# comment", "", "0", "1 x", "-1 2", "0 1 2"]),
    max_size=30,
)
small_ints = st.lists(st.integers(-1, 16), max_size=9).map(csv)
spec_lines = (
    chord_system_lines()
    | st.builds(
        "L={} n={} arcs={} chords={}".format,
        st.integers(0, 8),
        st.integers(0, 9),
        small_ints,
        small_ints,
    )
    | st.sampled_from([H1_LINE, H2_LINE, "L=3", "L=3 n=2 arcs=1,2,2,1 chords=2,x", "junk"])
)


def option(flag, values):
    return values.map(lambda x: [] if x is None else [flag, str(x)])


caps = st.none() | st.integers(-1, 12)
# cor4 always gets a combination cap, so no example runs a search of
# 250,000 tries.
graph_argv = (
    st.sampled_from([["classify"], ["k4-check"]])
    | option("--max-len", caps).map(lambda o: ["lemma1", *o])
    | st.builds(
        lambda *options: ["cor4", *(x for o in options for x in o)],
        option("--max-cycle-len", caps),
        option("--max-paths", caps),
        option("--max-combos", st.integers(0, 2000)),
    )
)


def run_fuzzed(argv):
    """Run ``main`` and check what any input may produce: exit code 0, 1
    or 2, no traceback, and under ``--json`` either a report that
    ``load_report`` accepts or, on exit code 2, no output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if "--json" in argv:
        if rc == 2:
            assert out.getvalue() == ""
        else:
            load_report(out.getvalue())
    return rc


class TestFuzz:
    @given(edge_lines, graph_argv, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_graph_commands(self, lines, argv, as_json):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.edges"
            path.write_text("\n".join(lines) + "\n")
            run_fuzzed([*argv, *(["--json"] if as_json else []), str(path)])

    @given(spec_lines, st.sampled_from(["check-embedded", "build-embedded"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_spec_commands(self, line, name, as_json):
        run_fuzzed([name, *(["--json"] if as_json else []), "--spec", line])


class TestErrors:
    def test_missing_file(self, capsys):
        rc = main(["classify", "/nonexistent/graph.edges"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_edge_file(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 2 3\n")
        rc = main(["classify", str(path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "lemma1", "k4-check", "cor4"])
    def test_huge_vertex_id_is_refused_before_allocating(self, tmp_path, capsys, command):
        # One edge line naming vertex 999999999 would otherwise allocate
        # a billion adjacency sets.
        path = tmp_path / "huge.edges"
        path.write_text("0 999999999\n")
        rc = main([command, str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: vertex id 999999999 implies 1000000000 vertices")

    @pytest.mark.parametrize("command", ["classify", "lemma1", "k4-check", "cor4"])
    def test_file_without_edges_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "blank.edges"
        path.write_text("# a comment, then a blank line\n\n")
        rc = main([command, str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: no edge lines, so the graph has no vertex\n"

    @pytest.mark.parametrize("command", ["classify", "lemma1", "k4-check", "cor4"])
    def test_file_that_is_not_utf8_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.edges"
        path.write_bytes(b"\xff\xfe0 1\n1 2\n2 0\n")
        rc = main([command, str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {path} is not UTF-8 text\n"

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see the
    options, defaults or failure of an earlier one."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_capped_lemma1_then_plain_lemma1(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_graph(8))
        assert main(["lemma1", "--json", path, "--max-len", "6"]) == 0
        assert report_of(capsys)["exhaustive"] is False
        assert main(["lemma1", "--json", path]) == 1
        report = report_of(capsys)
        assert report["exhaustive"] is True
        assert report["scanned_max_length"] == 8

    def test_capped_cor4_then_plain_cor4(self, tmp_path, capsys, petersen):
        path = graph_file(tmp_path, petersen)
        assert main(["cor4", "--json", path, "--max-combos", "0"]) == 0
        capped = report_of(capsys)["verdicts"]
        assert len(capped) == 10
        assert not any(v["search_exhausted"] for v in capped)
        assert main(["cor4", "--json", path]) == 0
        verdicts = report_of(capsys)["verdicts"]
        assert len(verdicts) == 10
        assert all(v["search_exhausted"] and v["chord_system"] for v in verdicts)
        args = build_parser().parse_args(["cor4", path])
        assert (args.max_combos, args.max_paths, args.max_cycle_len) == (
            SearchLimits.max_combinations,
            SearchLimits.max_paths_per_pair,
            None,
        )

    def test_rejected_call_then_valid_call(self, tmp_path, capsys):
        path = graph_file(tmp_path, cycle_graph(6))
        with pytest.raises(SystemExit) as exc:
            main(["lemma1", path, "--max-len", "six"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["classify", "--json", path]) == 1
        assert report_of(capsys)["k"] == 2
