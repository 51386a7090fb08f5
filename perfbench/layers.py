"""Which extparab functions the traced run wraps, and the per-layer metrics built from them.

Every per-layer metric names the end-to-end metric it should move and the
workload on which it should move it (the table in NOTES.md is this one).
Values are per op and the run reports their median over the traced ops.
"""

from __future__ import annotations

from typing import NamedTuple

PACKAGE = "extparab"

# Public functions wrapped by the traced run, as '<module>.<qualname>'.
TRACED = (
    "cli.main",
    "extension.build",
    "extension.vertex_for_t",
    "extension.all_vertices",
    "extension.verify_construction",
    "polygons.h",
    "deformed.dp_vrep",
    "deformed.dp_verify",
    "activeset.make_rule",
    "activeset.active_set_run",
    "activeset.line_search",
    "activeset.QuadraticObjective.gradient",
    "activeset.QuadraticObjective.value",
    "activeset.trace_to_json",
    "activeset.trace_plot_rows",
    "lowerbound.monotone_path_check",
    "lowerbound.chord_scan",
    "polytope.slacks",
    "polytope.tight_set",
    "polytope.contains",
    "polytope.is_simple_vertex",
    "polytope.edge_directions",
    "polytope.ratio_test",
    "polytope.hrep_to_ine",
    "polytope.hrep_from_ine",
    "polytope.vrep_to_ext",
    "exactla.dot",
    "exactla.rank",
    "exactla.int_inverse_scaled",
    "exactla.primitive",
)

EDGES = "edges_enumerated"
OFFERS = "direction_offers"
CANDIDATES = "direction_candidates"


def _count_edges(tracer, edges) -> None:
    tracer.counters[EDGES] += len(edges)


def _count_offers(tracer, rule) -> None:
    """Count the direction candidates the runner offers the rule make_rule built."""
    choose = rule.choose_direction

    def counted(candidates, ctx):
        tracer.counters[OFFERS] += 1
        tracer.counters[CANDIDATES] += len(candidates)
        return choose(candidates, ctx)

    rule.choose_direction = counted


ON_RESULT = {
    "polytope.edge_directions": _count_edges,
    "activeset.make_rule": _count_offers,
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric it should move, "-" for none
    on: str  # workloads on which it should move it


LAYER_METRICS = (
    *(
        LayerMetric(f"{fn}.{kind}", unit, "lower", "items_per_ref_s", "walk, certify")
        for fn in ("polytope.edge_directions", "exactla.int_inverse_scaled", "exactla.primitive")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ),
    LayerMetric("activeset.active_set_run.self_s", "s", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.line_search.self_s", "s", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.QuadraticObjective.gradient.calls", "count", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.QuadraticObjective.gradient.self_s", "s", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.QuadraticObjective.value.self_s", "s", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.gradient_calls_per_move", "calls/move", "lower", "items_per_ref_s", "walk"),
    LayerMetric("activeset.improving_share", "ratio", "higher", "items_per_ref_s", "walk"),
    LayerMetric("activeset.trace_to_json.self_s", "s", "lower", "op_ref_p50_s", "walk"),
    LayerMetric("activeset.trace_plot_rows.self_s", "s", "lower", "op_ref_p50_s", "walk"),
    LayerMetric("cli.main.self_s", "s", "lower", "op_ref_p50_s", "walk"),
    *(
        LayerMetric(f"{fn}.{kind}", unit, "lower", "items_per_ref_s", "certify")
        for fn in (
            "polytope.slacks",
            "polytope.tight_set",
            "polytope.contains",
            "polytope.is_simple_vertex",
            "polytope.ratio_test",
            "exactla.dot",
            "exactla.rank",
        )
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ),
    LayerMetric("extension.vertex_for_t.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("extension.verify_construction.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("extension.all_vertices.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("polygons.h.calls", "count", "lower", "items_per_ref_s", "certify"),
    LayerMetric("polygons.h.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("deformed.dp_verify.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("deformed.dp_vrep.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("lowerbound.monotone_path_check.self_s", "s", "lower", "items_per_ref_s", "certify"),
    LayerMetric("polytope.hrep_to_ine.self_s", "s", "lower", "op_ref_p50_s", "certify"),
    LayerMetric("polytope.vrep_to_ext.self_s", "s", "lower", "op_ref_p50_s", "certify"),
    LayerMetric("polytope.hrep_from_ine.self_s", "s", "lower", "op_ref_p50_s", "certify"),
    LayerMetric("lowerbound.chord_scan.self_s", "s", "lower", "items_per_ref_s", "scan"),
    LayerMetric("extension.build.self_s", "s", "lower", "setup_s", "walk, certify"),
    LayerMetric("trace_overhead", "ratio", "lower", "-", "all (reported only)"),
)


def op_layer_values(
    summary: dict[str, tuple[int, float]], counters: dict[str, int], moves: int
) -> dict[str, float]:
    """Every per-layer metric of one traced op except trace_overhead.

    A ratio whose base is zero on a workload (no moves on certify, no edges
    on scan) reads 0.
    """
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        fn, _, kind = metric.name.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = summary.get(fn, (0, 0.0))
            values[metric.name] = calls if kind == "calls" else self_s
    gradient_calls = summary.get("activeset.QuadraticObjective.gradient", (0, 0.0))[0]
    values["activeset.gradient_calls_per_move"] = gradient_calls / moves if moves else 0.0
    edges = counters.get(EDGES, 0)
    values["activeset.improving_share"] = counters.get(CANDIDATES, 0) / edges if edges else 0.0
    return values
