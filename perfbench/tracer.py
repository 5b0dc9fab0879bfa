"""Per-module tracing of the ``geodetic`` package from outside its source.

:class:`Tracer` wraps every public function of every ``geodetic`` module and
rebinds each name that refers to it in every module that imported it
(``from .x import y`` leaves one binding per importer).  A wrapped call is a
span with a name, start, end, parent span and operation id; generators are
timed per ``next()``.  Self time is a span's duration minus the time its
child spans cover.

Functions called a million times (``validate_spec`` in the L <= 6 sweep)
would make a span list too large to keep, so each function keeps at most
``SPAN_CAP`` spans; beyond that its calls still count in the per-function
totals, which every metric is computed from.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "geodetic"
SPAN_CAP = 1000


def _enumerate_cycles_probe(counts, result, parent):
    counts["cycles.cycles_found"] += len(result)
    if parent == "cycles.minimal_even_cycles":
        counts["cycles.cycles_enumerated_for_minimal"] += len(result)


def _minimal_even_probe(counts, result, parent):
    counts["cycles.minimal_even_kept"] += len(result[1])


def _validate_spec_probe(counts, result, parent):
    if parent == "harness.enumerate_specs":
        counts["harness.candidates_validated"] += 1


def _count_geodesics_probe(counts, result, parent):
    counts["geodesics.count_vertices"] += result.vertex_count


def _find_chord_system_probe(counts, result, parent):
    counts["harness.combinations_tried"] += result.combinations_tried
    counts["harness.chord_matches"] += result.system is not None


def _write_findings_probe(counts, result, parent):
    counts["reports.records_written"] += result


# Counts read from the result of a successful call.
PROBES = {
    "cycles.enumerate_cycles": _enumerate_cycles_probe,
    "cycles.minimal_even_cycles": _minimal_even_probe,
    "embedding.validate_spec": _validate_spec_probe,
    "geodesics.count_geodesics": _count_geodesics_probe,
    "harness.find_chord_system": _find_chord_system_probe,
    "reports.write_findings": _write_findings_probe,
}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``stats[name]`` holds ``[calls, self_s]``; ``counts`` holds the probe
    counters and generator yields.  :meth:`reset` clears them between passes.
    """

    def __init__(self) -> None:
        self.op_id: object = None
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._span_counts: Counter = Counter()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for m in modules:
            short = m.__name__.rpartition(".")[2]
            for name, obj in vars(m).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == m.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for m in modules:
            for name, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((m, name, obj))
                    setattr(m, name, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            m, name, obj = self._saved.pop()
            setattr(m, name, obj)

    # -- call accounting -------------------------------------------------

    def _enter(self, key: str) -> list:
        # frame: key, start, time covered by children, nearest recorded span
        # (the parent of spans opened below), parent key, own span or None
        stack = self._stack
        parent = stack[-1] if stack else None
        nearest = parent[3] if parent else None
        own = None
        if self._span_counts[key] < SPAN_CAP:
            self._span_counts[key] += 1
            own = len(self.spans)
            self.spans.append([key, 0.0, 0.0, nearest, self.op_id])
        frame = [key, 0.0, 0.0, nearest if own is None else own, parent and parent[0], own]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        key, start, child, _, _, own = frame
        duration = end - start
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0]
        st[0] += 1
        st[1] += duration - child
        if stack:
            stack[-1][2] += duration
        if own is not None:
            span = self.spans[own]
            span[1], span[2] = start, end

    def _wrap(self, key: str, fn):
        probe = PROBES.get(key)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            yields = key + ".yields"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter(key)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    self.counts[yields] += 1
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if probe is not None:
                probe(self.counts, result, frame[4])
            return result

        return wrapper

    # -- reporting -------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly between identical passes."""
        calls = {key: st[0] for key, st in self.stats.items()}
        return {"calls": calls, "counts": dict(self.counts)}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-module metrics, as name -> (value, unit)."""
        stats, counts = self.stats, self.counts

        def calls(key: str) -> int:
            return stats[key][0] if key in stats else 0

        def self_s(*keys: str) -> float:
            return sum((stats[k][1] for k in keys if k in stats), 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "embedding.validate_calls": (calls("embedding.validate_spec"), "count"),
            "embedding.validate_s": (self_s("embedding.validate_spec"), "s"),
            "embedding.evaluate_calls": (calls("embedding.evaluate_spec"), "count"),
            "embedding.evaluate_s": (self_s(
                "embedding.evaluate_spec", "embedding.check_condition1",
                "embedding.check_condition2", "embedding.check_embeddedness",
                "embedding.adjacent_chord_cycle_lengths", "embedding.predict_class",
            ), "s"),
            "embedding.build_s": (self_s("embedding.build"), "s"),
            "harness.enumerate_specs_s": (
                self_s("harness.enumerate_specs", "harness.compositions"), "s"),
            "harness.spec_yield_ratio": (ratio(
                counts["harness.enumerate_specs.yields"],
                counts["harness.candidates_validated"],
            ), "ratio"),
            "harness.pair_property_s": (self_s("harness.theorem2_pair_property"), "s"),
            "harness.sweep_validate_s": (self_s("harness.sweep_validate"), "s"),
            "harness.find_chord_system_calls": (calls("harness.find_chord_system"), "count"),
            "harness.find_chord_system_s": (self_s("harness.find_chord_system"), "s"),
            "harness.combinations_tried": (counts["harness.combinations_tried"], "count"),
            "harness.chord_match_ratio": (ratio(
                counts["harness.chord_matches"], calls("harness.find_chord_system")), "ratio"),
            "geodesics.count_calls": (calls("geodesics.count_geodesics"), "count"),
            "geodesics.count_s": (self_s("geodesics.count_geodesics"), "s"),
            "geodesics.count_vertices": (counts["geodesics.count_vertices"], "count"),
            "geodesics.enumerate_s": (self_s("geodesics.enumerate_geodesics"), "s"),
            "graphs.from_edge_list_s": (self_s("graphs.from_edge_list"), "s"),
            "graphs.load_s": (self_s("graphs.load_edge_list", "graphs.parse_edge_list"), "s"),
            "graphs.bfs_calls": (calls("graphs.bfs_distances"), "count"),
            "graphs.bfs_s": (self_s("graphs.bfs_distances"), "s"),
            "reports.write_findings_s": (self_s("reports.write_findings"), "s"),
            "reports.records_written": (counts["reports.records_written"], "count"),
            "reports.dump_report_s": (self_s("reports.dump_report"), "s"),
            "cycles.enumerate_calls": (calls("cycles.enumerate_cycles"), "count"),
            "cycles.enumerate_s": (self_s("cycles.enumerate_cycles"), "s"),
            "cycles.cycles_found": (counts["cycles.cycles_found"], "count"),
            "cycles.minimal_even_s": (self_s("cycles.minimal_even_cycles"), "s"),
            "cycles.minimal_even_ratio": (ratio(
                counts["cycles.minimal_even_kept"],
                counts["cycles.cycles_enumerated_for_minimal"],
            ), "ratio"),
            "cycles.lemma1_s": (self_s("cycles.lemma1_scan"), "s"),
            "homeomorph.theorem1_s": (self_s(
                "homeomorph.theorem1_check", "homeomorph.is_homeomorphic_to_k4",
                "homeomorph.decompose_segments", "homeomorph.three_segment_cycles",
                "homeomorph.four_segment_cycles",
            ), "s"),
            "cli.self_s": (self_s("cli.main", "cli.build_parser"), "s"),
        }
