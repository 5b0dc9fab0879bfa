"""Geodetic graph analysis.

Tools for classifying graphs by geodesic multiplicity, finding even-cycle
witnesses of nongeodeticity, building and checking embedded even graphs,
testing K4 subdivisions, and cross-validating the structural checks against
a brute-force shortest-path count.
"""

from __future__ import annotations

from .cycles import (
    CycleView,
    lemma1_scan,
    minimal_even_cycles,
    validate_cycle_in,
)
from .embedding import (
    ConditionReport,
    EmbeddedSpec,
    build,
    evaluate_spec,
    format_spec_line,
    parse_spec_line,
)
from .families import (
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    path_graph,
    petersen_graph,
    subdivided_k4,
)
from .geodesics import (
    GeodeticClass,
    count_geodesics,
    enumerate_geodesics,
)
from .graphs import (
    Graph,
    GraphError,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
)
from .harness import (
    SearchLimits,
    SweepBounds,
    corollary4_check,
    enumerate_specs,
    find_chord_system,
    finding_record,
    sweep_validate,
    theorem2_pair_property,
)
from .homeomorph import (
    decompose_segments,
    theorem1_check,
)
from .reports import (
    ReportError,
    dump_report,
    iter_findings,
    load_report,
    make_report,
    read_findings,
    write_findings,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "CycleView",
    "EmbeddedSpec",
    "GeodeticClass",
    "Graph",
    "GraphError",
    "ReportError",
    "SearchLimits",
    "SweepBounds",
    "build",
    "complete_graph",
    "corollary4_check",
    "count_geodesics",
    "cycle_graph",
    "cycle_with_chord",
    "decompose_segments",
    "dump_report",
    "enumerate_geodesics",
    "enumerate_specs",
    "evaluate_spec",
    "find_chord_system",
    "finding_record",
    "format_edge_list",
    "format_spec_line",
    "from_edge_list",
    "is_connected",
    "iter_findings",
    "lemma1_scan",
    "load_report",
    "make_report",
    "minimal_even_cycles",
    "parse_edge_list",
    "parse_spec_line",
    "path_graph",
    "petersen_graph",
    "read_findings",
    "subdivided_k4",
    "sweep_validate",
    "theorem1_check",
    "theorem2_pair_property",
    "validate_cycle_in",
    "write_findings",
]
