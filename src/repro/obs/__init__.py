"""Observability substrate: structured tracing, metrics, run profiling.

Four pieces (see ``docs/observability.md`` for the guide):

* :mod:`repro.obs.tracer` — span/event records with a no-op default, so
  instrumented hot paths cost nothing until a sink is installed
  (``use_tracer``/``set_tracer``).  ``trace_span`` is the one timing API.
* :mod:`repro.obs.perf` — :class:`PhaseProfiler`, the second sink for the
  same spans: O(1) per-path aggregates instead of every record
  (``use_profiler``).
* :mod:`repro.obs.metrics` — counters, gauges, and exact histograms in a
  :class:`MetricsRegistry`; every scheduler run owns one and surfaces it
  as ``RunResult.metrics``.
* :mod:`repro.obs.export` — JSONL serialisation and a validating reader
  (the human-readable renderers live in :mod:`repro.analysis.profiling`).
"""

from __future__ import annotations

from .causal import (
    NULL_COLLECTOR,
    CausalCollector,
    CausalEvent,
    NullCausalCollector,
    get_causal_collector,
    note_decision,
    note_iteration,
    set_causal_collector,
    use_causal_collector,
)
from .export import (
    SCHEMA_VERSION,
    dump_jsonl,
    header_record,
    read_jsonl,
    trace_to_records,
    validate_records,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from .perf import FixedBucketHistogram, PhaseProfiler, use_profiler
from .probes import (
    PROBE_NAMES,
    AgreementConvergenceProbe,
    BroadcastIntegrityProbe,
    Probe,
    ProbeReport,
    ProbeView,
    ProbeViolation,
    ValidityEnvelopeProbe,
    build_probes,
)
from .tracer import (
    EventRecord,
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    trace_event,
    trace_span,
    use_tracer,
)

__all__ = [
    "AgreementConvergenceProbe",
    "BroadcastIntegrityProbe",
    "CausalCollector",
    "CausalEvent",
    "Counter",
    "EventRecord",
    "FixedBucketHistogram",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COLLECTOR",
    "NULL_TRACER",
    "NullCausalCollector",
    "NullTracer",
    "PROBE_NAMES",
    "PhaseProfiler",
    "Probe",
    "ProbeReport",
    "ProbeView",
    "ProbeViolation",
    "SCHEMA_VERSION",
    "SpanRecord",
    "Tracer",
    "ValidityEnvelopeProbe",
    "build_probes",
    "current_registry",
    "dump_jsonl",
    "get_causal_collector",
    "get_tracer",
    "header_record",
    "note_decision",
    "note_iteration",
    "read_jsonl",
    "set_causal_collector",
    "set_tracer",
    "trace_event",
    "trace_span",
    "trace_to_records",
    "use_causal_collector",
    "use_profiler",
    "use_registry",
    "use_tracer",
    "validate_records",
    "write_jsonl",
]
