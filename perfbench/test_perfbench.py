"""Tests of the benchmark itself.  Run from the repository root with
``python -m pytest perfbench``."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import Op, check_findings, expect_classify

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def geo():
    sys.path.insert(0, str(run.SRC))
    return run.import_geodetic()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = bench("--workload", "certify", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_expected_verdict_is_counted_as_failed(geo, tmp_path):
    k9 = tmp_path / "k9.edges"
    k9.write_text(geo.graphs.format_edge_list(geo.families.complete_graph(9)))
    ops = [
        Op("classify:k9", ["classify", str(k9)], expect_classify(1)),
        Op("classify:k9-wrong", ["classify", str(k9)], expect_classify(2)),
        Op("classify:missing", ["classify", str(tmp_path / "missing.edges")], expect_classify(1)),
    ]
    tally = run.Tally()
    _, results = run.run_pass(ops, geo)
    tally.add(ops, results)
    assert (tally.attempted, tally.failed, tally.unexpected) == (3, 2, 2)
    assert any(name.startswith("classify:k9-wrong: K=1, expected 2") for name in tally.failures)


def test_findings_check_counts_every_record(tmp_path):
    findings = tmp_path / "findings.jsonl"
    records = [{"consistent": True, "predicted": True}, {"consistent": True, "predicted": False}]
    lines = [{"command": "sweep-findings"}, *records]
    findings.write_text("".join(json.dumps(x) + "\n" for x in lines))
    assert check_findings(findings, 2, 1) is None
    assert check_findings(findings, 3, 1) == "findings file has 2 records, expected 3"
    assert "condition-satisfying" in check_findings(findings, 2, 2)
    findings.write_text(findings.read_text() + json.dumps({"consistent": False, "predicted": False}) + "\n")
    assert check_findings(findings, 3, 1) == "findings file holds 1 inconsistent records"


def test_known_failure_is_counted_but_expected(geo, tmp_path):
    def boom(rc, report):
        raise AssertionError("never reached")

    missing = str(tmp_path / "missing.edges")
    op = Op("classify:raises", ["classify", missing, "--no-such-flag"], boom,
            known_failure="SystemExit")
    tally = run.Tally()
    _, results = run.run_pass([op], geo)
    tally.add([op], results)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 0)


def bindings() -> dict:
    return {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "geodetic" or name.startswith("geodetic.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


def test_tracer_rebinds_every_importer_and_restores_all(geo, tmp_path):
    before = bindings()
    harness = sys.modules["geodetic.harness"]
    embedding = sys.modules["geodetic.embedding"]
    original = embedding.evaluate_spec
    tracer = Tracer()
    tracer.install()
    try:
        assert embedding.evaluate_spec is not original
        assert harness.evaluate_spec is embedding.evaluate_spec
        spec = embedding.parse_spec_line("L=3 n=2 arcs=1,2,2,1 chords=2,1")
        list(harness.sweep_validate(harness.SweepBounds(3)))
        harness.evaluate_spec(spec)
        with pytest.raises(OSError):
            sys.modules["geodetic.graphs"].load_edge_list(tmp_path / "missing.edges")
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert tracer._stack == []
    assert tracer.stats["embedding.evaluate_spec"][0] >= 2
    assert tracer.counts["harness.sweep_validate.yields"] > 0
    assert tracer.stats["graphs.load_edge_list"][0] == 1


def test_traced_counts_repeat_exactly(geo, tmp_path):
    inputs = run.WORKLOADS["certify"].generate(geo, run.random.Random(5), tmp_path)
    ops = run.WORKLOADS["certify"].operations(inputs)[:20]
    tally = run.Tally()
    tracer, _, _, repeatable = run.traced_run(ops, geo, tally, tmp_path / "spans.jsonl")
    assert repeatable and tally.failed == 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(not hasattr(obj, "__wrapped__") for obj in bindings().values())
