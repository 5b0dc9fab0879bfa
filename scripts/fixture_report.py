"""Walk the named fixture graphs and print, for each: its class by
shortest-path multiplicity, the even-cycle witness scan (exhaustive and
capped at length 6), the chord-system certification outcome, the distinct
chord systems matched on its minimal even cycles, and the K4-subdivision
test's verdict.  Then print the ``check-embedded`` text and exit code for
one spec line per branch of its report.

A compact end-to-end exercise of the toolkit; every verdict printed here
is also pinned by the test suite, and the whole output by
``fixture_report.expected`` next to this script:

    diff <(PYTHONPATH=src python scripts/fixture_report.py) scripts/fixture_report.expected
"""

from __future__ import annotations

import contextlib
import io
import sys

from geodetic import (
    EmbeddedSpec,
    GeodeticClass,
    build,
    complete_graph,
    corollary4_check,
    count_geodesics,
    cycle_graph,
    cycle_with_chord,
    format_spec_line,
    from_edge_list,
    lemma1_scan,
    petersen_graph,
    subdivided_k4,
    theorem1_check,
)
from geodetic.cli import main as cli_main

FIXTURES = [
    ("complete graph K4", complete_graph(4)),
    ("complete graph K6", complete_graph(6)),
    ("odd cycle C7", cycle_graph(7)),
    ("even cycle C8", cycle_graph(8)),
    ("C8 with a unit chord", cycle_with_chord(8, 0, 4)),
    ("Petersen graph", petersen_graph()),
    ("K4 subdivision with one even triangle", subdivided_k4((2, 1, 1, 1, 1, 1))),
    ("C22 with a chord of length 8", cycle_with_chord(22, 0, 9, chord_length=8)),
    (
        "theta graph of three length-3 paths",
        from_edge_list([(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)]),
    ),
    (
        "C10 carrying pendant trees",
        from_edge_list(
            [(i, (i + 1) % 10) for i in range(10)]
            + [(0, 10), (10, 11), (10, 12), (4, 13), (13, 14), (14, 15), (7, 16)]
        ),
    ),
]

EMBEDDED = [
    EmbeddedSpec(3, 2, (1, 2, 2, 1), (2, 1)),
    EmbeddedSpec(3, 3, (1, 1, 1, 1, 1, 1), (2, 2, 2)),
    EmbeddedSpec(8, 4, (2, 1, 4, 2, 1, 4, 1, 1), (6, 7, 4, 7)),
]

# One spec line per branch of the check-embedded report.
CHECK_EMBEDDED = [
    ("geodetic fixture", "L=3 n=2 arcs=1,2,2,1 chords=2,1"),
    ("bigeodetic fixture", "L=3 n=3 arcs=1,1,1,1,1,1 chords=2,2,2"),
    ("chord too long", "L=3 n=2 arcs=1,2,2,1 chords=3,1"),
    ("arcs do not sum to 2L", "L=3 n=2 arcs=1,1,1,1 chords=2,1"),
    ("wrong tuple shapes", "L=3 n=2 arcs=1,2,2 chords=2"),
    ("embedded, condition 2 fails", "L=3 n=2 arcs=1,2,1,2 chords=2,2"),
    ("short even chord-arc cycle", "L=4 n=2 arcs=2,2,2,2 chords=2,2"),
    ("short even neighbouring-chord cycle", "L=4 n=2 arcs=1,3,1,3 chords=1,1"),
]


def describe(name: str, g) -> None:
    profile = count_geodesics(g)
    cls = GeodeticClass(profile.k_value)
    line = f"{name}: {cls}"
    if cls.k > 1:
        u, v = profile.witness_pair
        line += f" (pair ({u}, {v}): {profile.k_value} geodesics)"
    print(line)

    for max_len in (None, 6):
        verdict = lemma1_scan(g, max_len)
        scan = "witness scan" if max_len is None else f"witness scan up to length {max_len}"
        if verdict.witness is None:
            print(f"  {scan}: no even cycle realises an opposite pair")
        else:
            u, v = verdict.witness_pair
            print(f"  {scan}: cycle of length {verdict.witness.length} with pair ({u}, {v})")

    verdicts = corollary4_check(g).verdicts
    certified = sum(v.certified_nongeodetic for v in verdicts)
    matched = sum(v.match is not None for v in verdicts)
    if not verdicts:
        print("  certification: no even cycle to examine")
    elif certified:
        print(
            f"  certification: NOT geodetic ({certified} of {len(verdicts)} "
            f"minimal even cycles carry no chord system)"
        )
    else:
        print(
            f"  certification: none ({matched} of {len(verdicts)} minimal even "
            f"cycles carry a chord system)"
        )
    for line in sorted({format_spec_line(v.match.spec) for v in verdicts if v.match}):
        print(f"    matched {line}")

    k4 = theorem1_check(g)
    if not k4.is_k4_homeomorph:
        print("  K4 test: not a K4 subdivision")
    else:
        print(f"  K4 test: {'geodetic' if k4.verdict_geodetic else 'not geodetic'}")


def main() -> int:
    for name, g in FIXTURES:
        describe(name, g)
    for spec in EMBEDDED:
        h = build(spec)
        describe(f"embedded even graph {format_spec_line(spec)}", h.graph)
    for name, line in CHECK_EMBEDDED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["check-embedded", "--spec", line])
        print(f"check-embedded, {name}: exit code {code}")
        for text in out.getvalue().splitlines():
            print(f"  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
