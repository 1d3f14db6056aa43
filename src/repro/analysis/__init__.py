"""Experiment support: workloads, metrics, tables, trace renderers."""

from .metrics import DeltaTrial, TrialSummary, measure_delta_star, summarize_trials
from .profiling import (
    SpanStats,
    metrics_record,
    render_flame,
    render_summary,
    summarize_spans,
)
from .tables import format_table
from .timeline import (
    CausalGraph,
    causal_records,
    cone_json,
    render_dot,
    render_explanation,
    render_timeline,
)
from .workloads import (
    WORKLOADS,
    clustered_inputs,
    collinear_inputs,
    degenerate_inputs,
    duplicated_inputs,
    gaussian_inputs,
    make_workload,
    simplex_inputs,
    sphere_inputs,
)

__all__ = [
    "CausalGraph",
    "DeltaTrial",
    "causal_records",
    "cone_json",
    "render_dot",
    "render_explanation",
    "render_timeline",
    "TrialSummary",
    "WORKLOADS",
    "SpanStats",
    "metrics_record",
    "render_flame",
    "render_summary",
    "summarize_spans",
    "clustered_inputs",
    "collinear_inputs",
    "degenerate_inputs",
    "duplicated_inputs",
    "format_table",
    "gaussian_inputs",
    "make_workload",
    "measure_delta_star",
    "simplex_inputs",
    "sphere_inputs",
    "summarize_trials",
]
