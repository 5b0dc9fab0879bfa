"""Round trip between the builder and the chord-system search: build every
condition-satisfying spec with L <= --lmax, search the built graph's base
cycle, and check that the match lies in the spec's own rotation-and-
reflection orbit (so it also has as many chords).

    PYTHONPATH=src python scripts/round_trip.py --lmax 10

Prints each miss and a total line; exits 1 on any miss.
"""

from __future__ import annotations

import argparse
import sys

from geodetic import SweepBounds, build, enumerate_specs, find_chord_system, format_spec_line
from geodetic.harness import _orbit_key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lmax", type=int, required=True, help="largest half-length L")
    args = parser.parse_args(argv)
    specs = misses = 0
    for report in enumerate_specs(SweepBounds(args.lmax)):
        spec = report.spec
        h = build(spec)
        match = find_chord_system(h.graph, h.cycle).system
        specs += 1
        if match is None or _orbit_key(match.spec)[0] != _orbit_key(spec)[0]:
            misses += 1
            found = format_spec_line(match.spec) if match else "no chord system"
            print(f"miss: {format_spec_line(spec)} -> {found}")
    print(f"round trip: {specs} specs with L <= {args.lmax}, {misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
