"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the geodetic-favourable
claim holds, 1 when a witness or violation was found, 2 for usage or input
errors.  Every subcommand accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from . import reports
from .cycles import lemma1_scan
from .embedding import (
    build,
    evaluate_spec,
    format_spec_line,
    parse_spec_line,
)
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


def _emit(args: argparse.Namespace, payload: dict, text: list[str]) -> None:
    if args.json:
        print(reports.dump_report(reports.make_report(args.command, payload)))
    else:
        for line in text:
            print(line)


def _cmd_classify(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    profile = count_geodesics(g)
    cls = GeodeticClass(profile.k_value)
    u, v = profile.witness_pair
    payload = {
        "k": cls.k,
        "class": cls.label,
        "witness_pair": [u, v],
        "witness_distance": profile.witness_distance,
        "witness_count": profile.k_value,
    }
    text = [str(cls)]
    if cls.k > 1:
        text.append(
            f"witness pair ({u}, {v}): {profile.k_value} geodesics "
            f"of length {profile.witness_distance}"
        )
        sample = enumerate_geodesics(g, u, v, cap=4)
        payload["witness_geodesics"] = [list(p) for p in sample.paths]
        payload["witness_geodesics_truncated"] = sample.truncated
        for p in sample.paths:
            text.append("  " + " - ".join(str(x) for x in p))
        if sample.truncated:
            text.append("  ...")
    _emit(args, payload, text)
    return OK if cls.k == 1 else WITNESS


def _cmd_lemma1(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    verdict = lemma1_scan(g, args.max_len)
    payload = {
        "witness": list(verdict.witness.vertices) if verdict.witness else None,
        "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
        "scanned_max_length": verdict.scanned_max_length,
        "exhaustive": verdict.exhaustive,
    }
    if verdict.witness:
        c = verdict.witness
        u, v = verdict.witness_pair
        text = [
            f"witness cycle of length {c.length}: " + " ".join(str(x) for x in c.vertices),
            f"opposite pair ({u}, {v}) realises distance {c.length // 2}, so both "
            "arcs are geodesics; the graph is not geodetic",
        ]
        _emit(args, payload, text)
        return WITNESS
    scope = (
        "scan exhaustive"
        if verdict.exhaustive
        else f"scanned cycles up to length {verdict.scanned_max_length} only"
    )
    _emit(args, payload, [f"no witness cycle ({scope})"])
    return OK


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
        _emit(
            args,
            payload,
            [
                f"wrote {h.graph.vertex_count} vertices / {h.graph.edge_count} edges "
                f"to {args.output}"
            ],
        )
    else:
        _emit(args, payload, [edge_text.rstrip("\n")])
    return OK


def _cmd_check_embedded(args: argparse.Namespace) -> int:
    spec = parse_spec_line(args.spec)
    report = evaluate_spec(spec)
    payload = {
        "spec": format_spec_line(spec),
        "chord_valid": report.chord_valid,
        "problems": list(report.problems),
        "condition1": None,
        "condition2": None,
        "embeddedness": None,
        "predicted": None,
    }
    text = [format_spec_line(spec), *(f"invalid: {problem}" for problem in report.problems)]
    if report.chord_arc_lengths is not None:
        lengths = report.chord_arc_lengths
        pairs = ", ".join(f"A{i + 1}: {cw}/{ccw}" for i, (cw, ccw) in enumerate(lengths))
        payload["condition1"] = {
            "ok": report.condition1,
            "chord_arc_cycle_lengths": [list(pair) for pair in lengths],
        }
        text.append(
            f"condition 1 (chord+arc cycles all odd): "
            f"{'ok' if report.condition1 else 'FAIL'} ({pairs})"
        )
    if report.adjacent_lengths is not None:
        payload["condition2"] = {
            "ok": report.condition2,
            "adjacent_chord_cycle_lengths": list(report.adjacent_lengths),
        }
        text.append(
            f"condition 2 (neighbouring-chord cycles all {spec.cycle_length}): "
            f"{'ok' if report.condition2 else 'FAIL'} "
            f"({', '.join(str(x) for x in report.adjacent_lengths)})"
        )
    violations = report.violations
    if violations is not None:
        payload["embeddedness"] = {
            "ok": report.embedded,
            "violations": [
                {
                    "kind": v.kind,
                    "chords": list(v.chord_indices),
                    "length": v.length,
                    "arc_side": v.arc_side,
                }
                for v in violations
            ],
        }
        text.append(
            f"embeddedness (no even cycle shorter than {spec.cycle_length} among them): "
            f"{'ok' if report.embedded else 'FAIL'}"
        )
        for v in violations:
            names = "+".join(f"A{i + 1}" for i in v.chord_indices)
            text.append(f"  even cycle of length {v.length} from {v.kind} ({names})")
    predicted = report.predicted_class
    if predicted is not None:
        bound = "K=1" if predicted.k == 1 else f"K<={predicted.k}"
        payload["predicted"] = predicted.label
        text.append(f"predicted class: {predicted.label} ({bound})")
    else:
        text.append("no class prediction (checks failed)")
    _emit(args, payload, text)
    return OK if report.all_conditions_hold else WITNESS


def _cmd_k4_check(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    report = theorem1_check(g)
    payload = vars(report)
    if not report.is_k4_homeomorph:
        _emit(args, payload, ["not homeomorphic to K4; test does not apply"])
        return WITNESS
    text = [
        "homeomorphic to K4",
        f"segments are geodesics: {'ok' if report.segments_are_geodesics else 'FAIL'}",
        f"three-segment cycles all odd: {'ok' if report.three_segment_cycles_odd else 'FAIL'}",
        f"four-segment cycles equal length: "
        f"{'ok' if report.four_segment_cycles_equal else 'FAIL'}",
        f"verdict: {'geodetic' if report.verdict_geodetic else 'not geodetic'}",
    ]
    _emit(args, payload, text)
    return OK if report.verdict_geodetic else WITNESS


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
    total = sum(row["specs"] for row in rows.values())
    inconsistent = sum(row["bad"] for row in rows.values())
    payload = {
        "L_max": args.lmax,
        "include_invalid": args.include_invalid,
        "total_specs": total,
        "conditions_satisfied": sum(row["ok"] for row in rows.values()),
        "inconsistent": inconsistent,
        "findings_file": args.output,
        "oracle_k_by_chord_count": [
            {"n": n, "k": k, "specs": count} for (n, k), count in sorted(oracle_k.items())
        ],
    }
    text = ["  L  n   specs  conds-ok  inconsistent"]
    for (big_l, n), row in sorted(rows.items()):
        text.append(f"{big_l:>3}{n:>3}{row['specs']:>8}{row['ok']:>10}{row['bad']:>14}")
    text.append("oracle class by chord count (condition-satisfying specs):")
    for (n, k), count in sorted(oracle_k.items()):
        text.append(f"  n={n}: K={k} for {count} specs")
    text.append(
        f"total: {total} specs, {inconsistent} inconsistent"
        + (f", findings written to {args.output}" if args.output else "")
    )
    _emit(args, payload, text)
    return OK if inconsistent == 0 else WITNESS


def _cmd_cor4(args: argparse.Namespace) -> int:
    g = load_edge_list(args.graph)
    limits = SearchLimits(
        max_paths_per_pair=args.max_paths,
        max_combinations=args.max_combos,
        max_cycle_length=args.max_cycle_len,
    )
    report = corollary4_check(g, limits)
    verdicts, scanned, exhaustive = report.verdicts, report.scanned_max_length, report.exhaustive
    certified = any(v.certified_nongeodetic for v in verdicts)
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
            for v in verdicts
        ],
        "oracle_k": report.oracle_k,
        "certified_nongeodetic": certified,
        "scanned_max_length": scanned,
        "exhaustive": exhaustive,
    }
    text = []
    if not verdicts:
        text.append(
            "no even cycle found; nothing to certify"
            if exhaustive
            else f"no even cycle up to length {scanned}; the scan was capped, "
            "so the result is inconclusive"
        )
    for v in verdicts:
        head = f"minimal even cycle {' '.join(str(x) for x in v.cycle.vertices)}: "
        if v.match:
            text.append(head + f"chord system found ({format_spec_line(v.match.spec)})")
        elif v.certified_nongeodetic:
            text.append(head + "no chord system (search exhausted)")
        else:
            text.append(head + "no chord system found, but search hit a cap (inconclusive)")
    if certified:
        text.append("certified: the graph is not geodetic")
    elif report.oracle_k is None:
        text.append("no certification")
    else:
        text.append(
            f"no certification (oracle K={report.oracle_k}): cor4 checks only minimal "
            "even cycles, so this is not a verdict that the graph is geodetic"
        )
    _emit(args, payload, text)
    return WITNESS if certified else OK


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
