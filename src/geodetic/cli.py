"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the geodetic-favourable
claim holds, 1 when a witness or violation was found, 2 for usage or input
errors.  Every subcommand builds one report, prints it as JSON under
``--json`` and otherwise renders its text output from it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

from . import reports
from .cycles import lemma1_scan
from .embedding import build, evaluate_spec, format_spec_line, parse_spec_line
from .geodesics import GeodeticClass, count_geodesics, enumerate_geodesics
from .graphs import GraphError, format_edge_list, load_edge_list
from .harness import (
    SearchLimits,
    SweepBounds,
    SweepFinding,
    corollary4_check,
    finding_record,
    sweep_validate,
)
from .homeomorph import theorem1_check

OK, WITNESS, USAGE = 0, 1, 2


def _emit(args: argparse.Namespace, code: int, payload: dict, render: Callable) -> int:
    """Print the one report of a subcommand, ``payload``: as JSON with
    ``--json``, else as the text lines ``render(payload)``.  Returns ``code``."""
    if args.json:
        print(reports.dump_report(reports.make_report(args.command, payload)))
    else:
        for line in render(payload):
            print(line)
    return code


def _ok(flag: bool) -> str:
    return "ok" if flag else "FAIL"


def _cmd_classify(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    profile = count_geodesics(g)
    cls = GeodeticClass(profile.k_value)
    payload = {
        "k": cls.k,
        "class": cls.label,
        "witness_pair": list(profile.witness_pair),
        "witness_distance": profile.witness_distance,
        "witness_count": profile.k_value,
    }
    if cls.k > 1:
        sample = enumerate_geodesics(g, *profile.witness_pair, cap=4)
        payload["witness_geodesics"] = [list(p) for p in sample.paths]
        payload["witness_geodesics_truncated"] = sample.truncated
    return _emit(args, OK if cls.k == 1 else WITNESS, payload, _classify_text)


def _classify_text(p: dict) -> Iterator[str]:
    yield f"{p['class']} (K={p['k']})"
    if p["k"] > 1:
        u, v = p["witness_pair"]
        yield (
            f"witness pair ({u}, {v}): {p['witness_count']} geodesics "
            f"of length {p['witness_distance']}"
        )
        yield from ("  " + " - ".join(str(x) for x in path) for path in p["witness_geodesics"])
        if p["witness_geodesics_truncated"]:
            yield "  ..."


def _cmd_lemma1(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    verdict = lemma1_scan(g, args.max_len)
    payload = {
        "witness": list(verdict.witness.vertices) if verdict.witness else None,
        "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
        "scanned_max_length": verdict.scanned_max_length,
        "exhaustive": verdict.exhaustive,
    }
    return _emit(args, WITNESS if verdict.witness else OK, payload, _lemma1_text)


def _lemma1_text(p: dict) -> list[str]:
    cycle = p["witness"]
    if cycle:
        u, v = p["witness_pair"]
        return [
            f"witness cycle of length {len(cycle)}: " + " ".join(str(x) for x in cycle),
            f"opposite pair ({u}, {v}) realises distance {len(cycle) // 2}, so both "
            "arcs are geodesics; the graph is not geodetic",
        ]
    if p["exhaustive"]:
        return ["no witness cycle (scan exhaustive)"]
    return [f"no witness cycle (scanned cycles up to length {p['scanned_max_length']} only)"]


def _cmd_build_embedded(args: argparse.Namespace) -> int:
    spec = parse_spec_line(args.spec)
    h = build(spec)
    header = (
        f"embedded even graph {format_spec_line(spec)}\n"
        f"cycle vertices 0..{spec.cycle_length - 1}, "
        f"endpoints at {', '.join(str(p) for p in h.node_positions)}"
    )
    edge_text = format_edge_list(h.graph, header=header)
    payload = {
        "spec": format_spec_line(spec),
        "vertices": h.graph.vertex_count,
        "edges": h.graph.edge_count,
        "node_positions": list(h.node_positions),
        "chord_paths": [list(p) for p in h.chord_paths],
        "edge_list": edge_text,
    }
    if args.output:
        Path(args.output).write_text(edge_text)
    return _emit(args, OK, payload, functools.partial(_build_text, output=args.output))


def _build_text(p: dict, output: str | None) -> list[str]:
    if output:
        return [f"wrote {p['vertices']} vertices / {p['edges']} edges to {output}"]
    return [p["edge_list"].rstrip("\n")]


def _cmd_check_embedded(args: argparse.Namespace) -> int:
    spec = parse_spec_line(args.spec)
    report = evaluate_spec(spec)
    predicted = report.predicted_class
    payload = {
        "spec": format_spec_line(spec),
        "chord_valid": report.chord_valid,
        "problems": list(report.problems),
        "condition1": None,
        "condition2": None,
        "embeddedness": None,
        "predicted": predicted.label if predicted else None,
    }
    # The length tuples, and every verdict read off them, are None together.
    if report.chord_arc_lengths is not None:
        payload["condition1"] = {
            "ok": report.condition1,
            "chord_arc_cycle_lengths": [list(pair) for pair in report.chord_arc_lengths],
        }
        payload["condition2"] = {
            "ok": report.condition2,
            "adjacent_chord_cycle_lengths": list(report.adjacent_lengths),
        }
        payload["embeddedness"] = {
            "ok": report.embedded,
            "violations": [
                {
                    "kind": v.kind,
                    "chords": list(v.chord_indices),
                    "length": v.length,
                    "arc_side": v.arc_side,
                }
                for v in report.violations
            ],
        }
    code = OK if report.all_conditions_hold else WITNESS
    return _emit(args, code, payload, functools.partial(_check_text, m=spec.cycle_length))


def _check_text(p: dict, m: int) -> Iterator[str]:
    """The ``check-embedded`` lines of a spec whose cycle has length ``m``."""
    yield p["spec"]
    yield from (f"invalid: {problem}" for problem in p["problems"])
    if p["condition1"] is not None:
        c1, c2, emb = p["condition1"], p["condition2"], p["embeddedness"]
        pairs = ", ".join(
            f"A{i + 1}: {cw}/{ccw}" for i, (cw, ccw) in enumerate(c1["chord_arc_cycle_lengths"])
        )
        yield f"condition 1 (chord+arc cycles all odd): {_ok(c1['ok'])} ({pairs})"
        yield (
            f"condition 2 (neighbouring-chord cycles all {m}): {_ok(c2['ok'])} "
            f"({', '.join(str(x) for x in c2['adjacent_chord_cycle_lengths'])})"
        )
        yield f"embeddedness (no even cycle shorter than {m} among them): {_ok(emb['ok'])}"
        for v in emb["violations"]:
            names = "+".join(f"A{i + 1}" for i in v["chords"])
            yield f"  even cycle of length {v['length']} from {v['kind']} ({names})"
    if p["predicted"] is not None:
        # Every check passed: geodetic (K=1) for n = 2, bigeodetic for n >= 3.
        bound = "K=1" if p["predicted"] == GeodeticClass(1).label else "K<=2"
        yield f"predicted class: {p['predicted']} ({bound})"
    else:
        yield "no class prediction (checks failed)"


def _cmd_k4_check(args: argparse.Namespace) -> int:
    report = theorem1_check(load_edge_list(args.graph))
    return _emit(args, OK if report.verdict_geodetic else WITNESS, vars(report), _k4_text)


def _k4_text(p: dict) -> list[str]:
    if not p["is_k4_homeomorph"]:
        return ["not homeomorphic to K4; test does not apply"]
    return [
        "homeomorphic to K4",
        f"segments are geodesics: {_ok(p['segments_are_geodesics'])}",
        f"three-segment cycles all odd: {_ok(p['three_segment_cycles_odd'])}",
        f"four-segment cycles equal length: {_ok(p['four_segment_cycles_equal'])}",
        f"verdict: {'geodetic' if p['verdict_geodetic'] else 'not geodetic'}",
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    bounds = SweepBounds(args.lmax, args.include_invalid)
    rows: dict[tuple[int, int], dict[str, int]] = {}
    oracle_k: Counter[tuple[int, int]] = Counter()

    def tally(f: SweepFinding) -> SweepFinding:
        row = rows.setdefault((f.spec.L, f.spec.n), {"specs": 0, "ok": 0, "bad": 0})
        row["specs"] += 1
        row["ok"] += f.report.all_conditions_hold
        row["bad"] += not f.consistent
        if f.report.all_conditions_hold:
            oracle_k[f.spec.n, f.oracle.k] += 1
        return f

    # Each finding is tallied and written as it arrives, so an interrupted
    # sweep leaves a findings file holding every spec checked so far.
    findings = map(tally, sweep_validate(bounds))
    if args.output:
        header = {"L_max": args.lmax, "include_invalid": args.include_invalid}
        with open(args.output, "w") as out:
            reports.write_findings(out, header, map(finding_record, findings))
    else:
        for _ in findings:
            pass
    inconsistent = sum(row["bad"] for row in rows.values())
    payload = {
        "L_max": args.lmax,
        "include_invalid": args.include_invalid,
        "total_specs": sum(row["specs"] for row in rows.values()),
        "conditions_satisfied": sum(row["ok"] for row in rows.values()),
        "inconsistent": inconsistent,
        "findings_file": args.output,
        "oracle_k_by_chord_count": [
            {"n": n, "k": k, "specs": count} for (n, k), count in sorted(oracle_k.items())
        ],
    }
    code = OK if inconsistent == 0 else WITNESS
    return _emit(args, code, payload, functools.partial(_sweep_text, rows=rows))


def _sweep_text(p: dict, rows: dict[tuple[int, int], dict[str, int]]) -> Iterator[str]:
    """The sweep summary, led by its per-(L, n) table, which only the text shows."""
    yield "  L  n   specs  conds-ok  inconsistent"
    for (big_l, n), row in sorted(rows.items()):
        yield f"{big_l:>3}{n:>3}{row['specs']:>8}{row['ok']:>10}{row['bad']:>14}"
    yield "oracle class by chord count (condition-satisfying specs):"
    for e in p["oracle_k_by_chord_count"]:
        yield f"  n={e['n']}: K={e['k']} for {e['specs']} specs"
    yield (
        f"total: {p['total_specs']} specs, {p['inconsistent']} inconsistent"
        + (f", findings written to {p['findings_file']}" if p["findings_file"] else "")
    )


def _cmd_cor4(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    limits = SearchLimits(
        max_paths_per_pair=args.max_paths,
        max_combinations=args.max_combos,
        max_cycle_length=args.max_cycle_len,
    )
    report = corollary4_check(g, limits)
    certified = any(v.certified_nongeodetic for v in report.verdicts)
    payload = {
        "verdicts": [
            {
                "cycle": list(v.cycle.vertices),
                "chord_system": format_spec_line(v.match.spec) if v.match else None,
                "node_vertices": list(v.match.node_vertices) if v.match else None,
                "chord_paths": [list(p) for p in v.match.chord_paths] if v.match else None,
                "search_exhausted": v.search_exhausted,
                "certified_nongeodetic": v.certified_nongeodetic,
            }
            for v in report.verdicts
        ],
        "oracle_k": report.oracle_k,
        "certified_nongeodetic": certified,
        "scanned_max_length": report.scanned_max_length,
        "exhaustive": report.exhaustive,
    }
    return _emit(args, WITNESS if certified else OK, payload, _cor4_text)


def _cor4_text(p: dict) -> Iterator[str]:
    if not p["verdicts"]:
        yield (
            "no even cycle found; nothing to certify"
            if p["exhaustive"]
            else f"no even cycle up to length {p['scanned_max_length']}; the scan was "
            "capped, so the result is inconclusive"
        )
    for v in p["verdicts"]:
        head = f"minimal even cycle {' '.join(str(x) for x in v['cycle'])}: "
        if v["chord_system"]:
            yield head + f"chord system found ({v['chord_system']})"
        elif v["certified_nongeodetic"]:
            yield head + "no chord system (search exhausted)"
        else:
            yield head + "no chord system found, but search hit a cap (inconclusive)"
    if p["certified_nongeodetic"]:
        yield "certified: the graph is not geodetic"
    elif p["oracle_k"] is None:
        yield "no certification"
    else:
        yield (
            f"no certification (oracle K={p['oracle_k']}): cor4 checks only minimal "
            "even cycles, so this is not a verdict that the graph is geodetic"
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process, so callers must not modify it.
    Each ``parse_args`` fills a fresh namespace, so no call sees another's
    options."""
    parser = argparse.ArgumentParser(
        prog="geodetic",
        description="Geodetic graph analysis: shortest-path multiplicity, "
        "even-cycle witnesses, and chord systems on even cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(func=func)
        return p

    p = add("classify", "classify a graph by its largest geodesic multiplicity", _cmd_classify)
    p.add_argument("graph", help="edge-list file")

    p = add("lemma1", "scan for an even cycle witnessing nongeodeticity", _cmd_lemma1)
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--max-len", type=int, default=None, help="cycle length cap (default: exhaustive)")

    p = add("build-embedded", "build a graph from an embedded even graph spec", _cmd_build_embedded)
    p.add_argument("--spec", required=True, help="spec line, e.g. 'L=3 n=2 arcs=1,2,2,1 chords=2,1'")
    p.add_argument("-o", "--output", default=None, help="write the edge list here instead of stdout")

    p = add("check-embedded", "run the structural checks on a spec", _cmd_check_embedded)
    p.add_argument("--spec", required=True, help="spec line")

    p = add("k4-check", "geodeticity test for K4 subdivisions", _cmd_k4_check)
    p.add_argument("graph", help="edge-list file")

    p = add("sweep", "validate every spec up to a size bound against the oracle", _cmd_sweep)
    p.add_argument("--lmax", type=int, required=True, help="largest half-length L to sweep")
    p.add_argument(
        "--include-invalid",
        action="store_true",
        help="also sweep chord-valid specs that fail condition 1 or 2",
    )
    p.add_argument("-o", "--output", default=None, help="findings file (JSON Lines)")

    p = add("cor4", "certify nongeodeticity via chord-system search", _cmd_cor4)
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--max-cycle-len", type=int, default=None, help="minimal-even-cycle scan cap")
    p.add_argument(
        "--max-paths",
        type=int,
        default=SearchLimits.max_paths_per_pair,
        help="candidate chord paths per endpoint pair",
    )
    p.add_argument(
        "--max-combos",
        type=int,
        default=SearchLimits.max_combinations,
        help="chord assignments to try",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, reports.ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
