"""The four benchmark workloads: seeded inputs, the CLI calls made on them,
and the check applied to every output.

Each workload has two steps.  ``generate`` is the timed set-up: it writes
the input files (edge lists, spec lines) with ``geodetic.families``,
``geodetic.embedding.build`` and a seeded ``random.Random``.  ``operations``
is untimed: it turns those inputs into :class:`Op` records whose checks
compare every CLI report against values fixed in advance or computed here by
an independent shortest-path count.

Why each workload exists, and which layers it loads:

* ``sweep-valid`` -- ``sweep --lmax 6``.  Almost all of its time is spec
  enumeration (``harness.enumerate_specs`` -> ``embedding.validate_spec`` /
  ``evaluate_spec``); the oracle runs only 211 times.  Fully enumerated, so
  the seed is ignored.
* ``sweep-invalid`` -- ``sweep --lmax 5 --include-invalid -o FILE``.  The
  same enumeration, but every chord-valid spec reaches ``build``,
  ``count_geodesics`` and the pair property, and the findings file is
  written.  Fully enumerated, so the seed is ignored.
* ``certify`` -- 116 verdicts from ``classify``, ``lemma1``, ``cor4``,
  ``k4-check``, ``check-embedded`` and ``build-embedded`` on small graphs.
  Cycle enumeration and the chord-system search do the work; geodesic
  counting does almost none.
* ``large-sparse`` -- ``classify`` and ``lemma1`` on graphs of 1,200 to
  2,001 vertices, where edge-list parsing, BFS and the n x n matrices of
  ``count_geodesics`` dominate.  Two calls fail at the baseline with
  ``RecursionError`` and are counted as failures.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from math import comb
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

LABELS = {1: "GEODETIC", 2: "BIGEODETIC", 3: "TRIGEODETIC"}


@dataclass
class Op:
    """One CLI call and the check of its output.

    ``check`` receives the exit code and the parsed ``--json`` report and
    returns a description of what is wrong, or None.  ``units`` is the
    number of operations the call accounts for (one verdict, or every spec
    of a sweep).  ``known_failure`` names the exception the call raises at
    the baseline; such a failure is still counted, but does not make the
    run incorrect.
    """

    name: str
    argv: list[str]
    check: Callable[[int, dict], str | None]
    units: int = 1
    known_failure: str | None = None


# ---------------------------------------------------------------------------
# independent shortest-path counting, used only by the checks


def bfs_counts(adj, s: int) -> tuple[list, list]:
    """Distances and shortest-path counts from ``s``."""
    dist = [None] * len(adj)
    count = [0] * len(adj)
    dist[s], count[s] = 0, 1
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                count[w] += count[v]
    return dist, count


def max_multiplicity(adj) -> int:
    """The largest number of shortest paths joining any vertex pair."""
    return max(max(bfs_counts(adj, s)[1]) for s in range(len(adj)))


def is_cycle_in(adj, cycle: list[int]) -> bool:
    return (
        len(cycle) >= 3
        and len(set(cycle)) == len(cycle)
        and all(cycle[i - 1] in adj[cycle[i]] for i in range(len(cycle)))
    )


# ---------------------------------------------------------------------------
# checks, one builder per subcommand


def expect_classify(k: int, adj=None):
    def check(rc: int, r: dict) -> str | None:
        if r["k"] != k:
            return f"K={r['k']}, expected {k}"
        if rc != (0 if k == 1 else 1):
            return f"exit code {rc} for K={k}"
        if r["class"] != LABELS.get(k, "KGEODETIC"):
            return f"class {r['class']} for K={k}"
        if k > 1:
            if r["witness_count"] != k:
                return f"witness count {r['witness_count']} != K={k}"
            if adj is not None:
                u, v = r["witness_pair"]
                dist, count = bfs_counts(adj, u)
                if (dist[v], count[v]) != (r["witness_distance"], k):
                    return f"witness pair ({u}, {v}) has d={dist[v]}, {count[v]} geodesics"
        return None

    return check


def expect_lemma1(adj, witness: bool, exhaustive: bool, scanned: int):
    def check(rc: int, r: dict) -> str | None:
        if rc != int(witness):
            return f"exit code {rc}, expected {int(witness)}"
        if r["exhaustive"] != exhaustive or r["scanned_max_length"] != scanned:
            return f"scope {r['scanned_max_length']}/{r['exhaustive']}, expected {scanned}/{exhaustive}"
        if (r["witness"] is not None) != witness:
            return f"witness {r['witness']!r}, expected {'one' if witness else 'none'}"
        if witness:
            c, (u, v) = r["witness"], r["witness_pair"]
            half = len(c) // 2
            if not is_cycle_in(adj, c) or len(c) % 2 or len(c) > scanned:
                return f"witness {c} is not an even cycle of the graph within the scan"
            i = c.index(u)
            if c[(i + half) % len(c)] != v or bfs_counts(adj, u)[0][v] != half:
                return f"pair ({u}, {v}) is not an opposite pair at distance {half}"
        return None

    return check


def expect_cor4(adj, k: int, certified: bool | None = None):
    """``certified`` pins the verdict; None leaves it to the soundness rules."""

    def check(rc: int, r: dict) -> str | None:
        claim = r["certified_nongeodetic"]
        if rc != int(claim):
            return f"exit code {rc} with certified={claim}"
        if certified is not None and claim != certified:
            return f"certified={claim}, expected {certified}"
        if r["verdicts"] and r["oracle_k"] != k:
            return f"oracle_k {r['oracle_k']}, expected {k}"
        if claim and k == 1:
            return "certified a geodetic graph"
        lengths = {len(v["cycle"]) for v in r["verdicts"]}
        if len(lengths) > 1 or any(n % 2 for n in lengths):
            return f"minimal even cycles of lengths {sorted(lengths)}"
        for v in r["verdicts"]:
            if not is_cycle_in(adj, v["cycle"]):
                return f"{v['cycle']} is not a cycle of the graph"
            if v["certified_nongeodetic"] and (v["chord_system"] or not v["search_exhausted"]):
                return "certified a cycle whose search found a system or hit a cap"
        return None

    return check


def expect_k4(homeomorph: bool, k: int):
    def check(rc: int, r: dict) -> str | None:
        if r["is_k4_homeomorph"] != homeomorph:
            return f"is_k4_homeomorph={r['is_k4_homeomorph']}, expected {homeomorph}"
        geodetic = homeomorph and k == 1
        if rc != (0 if geodetic else 1):
            return f"exit code {rc}, expected {0 if geodetic else 1}"
        if homeomorph and r["verdict_geodetic"] != (k == 1):
            return f"verdict_geodetic={r['verdict_geodetic']} but K={k}"
        return None

    return check


def expect_check_embedded(holds: bool, n: int, k: int):
    def check(rc: int, r: dict) -> str | None:
        if rc != (0 if holds else 1):
            return f"exit code {rc}, expected {0 if holds else 1}"
        if not r["chord_valid"]:
            return f"chord-valid spec reported invalid: {r['problems']}"
        predicted = r["predicted"]
        if holds and predicted != ("GEODETIC" if n == 2 else "BIGEODETIC"):
            return f"predicted {predicted} for n={n}"
        if holds and k > (1 if n == 2 else 2):
            return f"predicted {predicted} but the built graph has K={k}"
        return None

    return check


def expect_build_embedded(spec_line: str, vertices: int, edges: int):
    def check(rc: int, r: dict) -> str | None:
        if rc != 0 or r["spec"] != spec_line:
            return f"exit code {rc}, spec {r['spec']!r}"
        listed = [ln for ln in r["edge_list"].splitlines() if ln and not ln.startswith("#")]
        if (r["vertices"], r["edges"], len(listed)) != (vertices, edges, edges):
            return f"{r['vertices']} vertices / {r['edges']} edges, expected {vertices} / {edges}"
        return None

    return check


def expect_sweep(total: int, satisfied: int, findings: Path | None = None):
    def check(rc: int, r: dict) -> str | None:
        got = (rc, r["total_specs"], r["conditions_satisfied"], r["inconsistent"])
        if got != (0, total, satisfied, 0):
            return f"exit/specs/satisfied/inconsistent {got}, expected {(0, total, satisfied, 0)}"
        if findings is not None:
            return check_findings(findings, total, satisfied)
        return None

    return check


def check_findings(findings: Path, total: int, satisfied: int) -> str | None:
    """Check the findings file one record at a time, holding none of them,
    so that the check adds nothing to the run's peak memory."""
    records = consistent = predicted = 0
    with findings.open() as f:
        header = json.loads(next(f, "{}"))
        for line in f:
            rec = json.loads(line)
            records += 1
            consistent += bool(rec["consistent"])
            predicted += bool(rec["predicted"])
    if header.get("command") != "sweep-findings" or records != total:
        return f"findings file has {records} records, expected {total}"
    if consistent != records:
        return f"findings file holds {records - consistent} inconsistent records"
    if predicted != satisfied:
        return f"findings file has {predicted} condition-satisfying records, expected {satisfied}"
    return None


# ---------------------------------------------------------------------------
# input generation helpers


def write_graph(geo: SimpleNamespace, workdir: Path, name: str, g) -> str:
    path = workdir / f"{name}.edges"
    path.write_text(geo.graphs.format_edge_list(g))
    return str(path)


def grid_graph(geo: SimpleNamespace, rows: int, cols: int):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return geo.graphs.from_edge_list(edges)


def random_sparse_graph(geo: SimpleNamespace, rng: random.Random, n: int, extra: int):
    """A random recursive tree on ``n`` vertices plus ``extra`` random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return geo.graphs.from_edge_list(sorted(edges))


def random_gnm_graph(geo: SimpleNamespace, rng: random.Random, n: int, m: int):
    """A connected graph with ``n`` vertices and ``m`` edges, uniform by rejection."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = geo.graphs.from_edge_list(rng.sample(pairs, m), vertex_count=n)
        if geo.graphs.is_connected(g):
            return g


def relabel(geo: SimpleNamespace, rng: random.Random, g):
    """An isomorphic copy of ``g`` under a random vertex permutation."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    return geo.graphs.from_edge_list([(perm[u], perm[v]) for u, v in g.edges()])


def random_block_graph(geo: SimpleNamespace, rng: random.Random, n: int):
    """A random tree of cliques on ``n`` vertices.  Block graphs are
    geodetic, so every check on them expects K = 1."""
    edges: list[tuple[int, int]] = []
    size = 1
    while size < n:
        anchor = rng.randrange(size)
        members = [anchor] + list(range(size, min(n, size + rng.randint(1, 4))))
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        size = members[-1] + 1
    return geo.graphs.from_edge_list(edges)


# ---------------------------------------------------------------------------
# the workloads


def generate_sweep(geo, rng, workdir):
    return {"findings": workdir / "findings.jsonl"}


def sweep_valid_ops(inputs):
    return [Op("sweep:lmax6", ["sweep", "--lmax", "6"], expect_sweep(211, 211), units=211)]


def sweep_invalid_ops(inputs):
    findings = inputs["findings"]
    argv = ["sweep", "--lmax", "5", "--include-invalid", "-o", str(findings)]
    return [Op("sweep:lmax5-invalid", argv, expect_sweep(11_064, 73, findings), units=11_064)]


CERTIFY_SPEC = "L=8 n=4 arcs=2,1,4,2,1,4,1,1 chords=6,7,4,7"
# Chord-valid spec lines for check-embedded and build-embedded, each with
# whether it satisfies every structural check.
EMBEDDED_SPECS = (
    ("L=3 n=2 arcs=1,2,2,1 chords=2,1", True),
    ("L=3 n=3 arcs=1,1,1,1,1,1 chords=2,2,2", True),
    ("L=4 n=2 arcs=2,2,2,2 chords=3,1", True),
    ("L=4 n=2 arcs=2,2,2,2 chords=2,1", False),
    ("L=5 n=3 arcs=1,2,2,2,2,1 chords=3,3,3", False),
    (CERTIFY_SPEC, True),
)
K4_SUBDIVISIONS = (
    (1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1),
    (3, 1, 2, 1, 1, 2),
    (2, 2, 2, 2, 2, 2),
)
# Random graphs by (vertices, edges): denser ones take longer in lemma1 and
# cor4, and at 11 vertices single verdicts reach seconds.
GNM_SHAPES = ((9, 12), (9, 15), (10, 14), (10, 17)) * 2
BLOCK_SIZES = (9, 10, 9, 10)
# The slowest verdicts are lemma1 and cor4 on graphs whose only cycles lie in
# a K9 block: K9 itself and K9_TREES copies of K9 carrying a pendant tree,
# relabeled.  These are geodetic, so both commands search every cycle with
# no witness to stop at.  They are more than a tenth of all verdicts, so
# op_p90_ms measures that search.  The tree and the labels change the cost,
# so copy i is drawn from random.Random(i) whatever the run's seed: the tail
# is the same on every seed, and only the random graphs below vary with it.
K9_TREES = 7
# The spec graph, whose cor4 runs an exhausted chord search, and copies of
# it under fixed relabelings, drawn the same way.
SPEC_COPIES = 3


def k9_with_tree(geo: SimpleNamespace, rng: random.Random):
    """K9 with a random tree of one to four vertices hanging off it, relabeled."""
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    edges += [(rng.randrange(v), v) for v in range(9, 9 + rng.randint(1, 4))]
    return relabel(geo, rng, geo.graphs.from_edge_list(edges))


def generate_certify(geo, rng, workdir):
    fam, emb = geo.families, geo.embedding
    spec_graph = emb.build(emb.parse_spec_line(CERTIFY_SPEC)).graph
    graphs = {
        "k8": fam.complete_graph(8),
        "k9": fam.complete_graph(9),
        "petersen": fam.petersen_graph(),
    }
    for i in range(K9_TREES):
        graphs[f"k9tree-{i}"] = k9_with_tree(geo, random.Random(i))
    for i in range(SPEC_COPIES):
        graphs[f"spec-{i}"] = relabel(geo, random.Random(i), spec_graph) if i else spec_graph
    for lengths in K4_SUBDIVISIONS:
        graphs["k4-" + "".join(map(str, lengths))] = fam.subdivided_k4(lengths)
    for i, (n, m) in enumerate(GNM_SHAPES):
        graphs[f"gnm{i}-n{n}-m{m}"] = random_gnm_graph(geo, rng, n, m)
    for i, n in enumerate(BLOCK_SIZES):
        graphs[f"block{i}-n{n}"] = random_block_graph(geo, rng, n)
    files = {name: write_graph(geo, workdir, name, g) for name, g in graphs.items()}
    specs = {line: emb.build(emb.parse_spec_line(line)) for line, _ in EMBEDDED_SPECS}
    return {"graphs": graphs, "files": files, "specs": specs}


def certify_ops(inputs):
    ops = []
    for name, g in inputs["graphs"].items():
        adj, path = g.adjacency, inputs["files"][name]
        k = max_multiplicity(adj)
        n = len(adj)
        homeomorph = name.startswith("k4-")
        if not (name.startswith("spec-") and name != "spec-0"):
            ops.append(Op(f"classify:{name}", ["classify", path], expect_classify(k, adj)))
            ops.append(Op(f"k4-check:{name}", ["k4-check", path], expect_k4(homeomorph, k)))
        if homeomorph:
            continue
        ops.append(Op(f"lemma1:{name}", ["lemma1", path], expect_lemma1(adj, k > 1, True, n)))
        pinned = True if name.startswith("spec-") else None
        ops.append(Op(f"cor4:{name}", ["cor4", path], expect_cor4(adj, k, pinned)))
    for line, holds in EMBEDDED_SPECS:
        h = inputs["specs"][line]
        spec, k = h.spec, max_multiplicity(h.graph.adjacency)
        vertices = 2 * spec.L + sum(c - 1 for c in spec.chords)
        edges = 2 * spec.L + sum(spec.chords)
        ops.append(
            Op(f"check-embedded:{line}", ["check-embedded", "--spec", line],
               expect_check_embedded(holds, spec.n, k))
        )
        ops.append(
            Op(f"build-embedded:{line}", ["build-embedded", "--spec", line],
               expect_build_embedded(line, vertices, edges))
        )
    return ops


GRID_SIDE = 40
SPARSE_VERTICES, SPARSE_EXTRA = 1500, 300
LONG_CYCLE = 1200


def generate_large_sparse(geo, rng, workdir):
    fam = geo.families
    graphs = {
        "c2000": fam.cycle_graph(2000),
        "c2001": fam.cycle_graph(2001),
        "grid40": grid_graph(geo, GRID_SIDE, GRID_SIDE),
        "sparse1500": random_sparse_graph(geo, rng, SPARSE_VERTICES, SPARSE_EXTRA),
        f"c{LONG_CYCLE}": fam.cycle_graph(LONG_CYCLE),
    }
    files = {name: write_graph(geo, workdir, name, g) for name, g in graphs.items()}
    return {"graphs": graphs, "files": files}


def large_sparse_ops(inputs):
    adj = {name: g.adjacency for name, g in inputs["graphs"].items()}
    f = inputs["files"]
    side = 2 * (GRID_SIDE - 1)
    long_cycle = f"c{LONG_CYCLE}"
    return [
        Op("classify:c2000", ["classify", f["c2000"]], expect_classify(2, adj["c2000"]),
           known_failure="RecursionError"),
        Op("classify:c2001", ["classify", f["c2001"]], expect_classify(1)),
        Op("classify:grid40", ["classify", f["grid40"]],
           expect_classify(comb(side, side // 2), adj["grid40"])),
        Op("classify:sparse1500", ["classify", f["sparse1500"]],
           expect_classify(max_multiplicity(adj["sparse1500"]), adj["sparse1500"])),
        Op("lemma1:grid40-max8", ["lemma1", f["grid40"], "--max-len", "8"],
           expect_lemma1(adj["grid40"], True, False, 8)),
        Op(f"lemma1:{long_cycle}", ["lemma1", f[long_cycle]],
           expect_lemma1(adj[long_cycle], True, True, LONG_CYCLE),
           known_failure="RecursionError"),
    ]


@dataclass(frozen=True)
class Workload:
    generate: Callable
    operations: Callable
    seeded: bool


WORKLOADS = {
    "sweep-valid": Workload(generate_sweep, sweep_valid_ops, seeded=False),
    "sweep-invalid": Workload(generate_sweep, sweep_invalid_ops, seeded=False),
    "certify": Workload(generate_certify, certify_ops, seeded=True),
    "large-sparse": Workload(generate_large_sparse, large_sparse_ops, seeded=True),
}
