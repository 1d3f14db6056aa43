"""Performance observability: a span sink that keeps O(1) aggregates.

The correctness side of ``repro.obs`` (tracer, causal collector, probes)
answers *what happened*; this module answers *where the time went*.
Production code times a block one way — :func:`~repro.obs.tracer
.trace_span` — and the spans go to whichever sink sits in the tracer
module's one ambient slot.  A :class:`~repro.obs.tracer.Tracer` keeps
every span; a :class:`PhaseProfiler` keeps one aggregate per **path** —
the slash-joined names of the open spans
(``core.run/sched.sync.run/sched.sync.round/geometry.delta_star``) —
with a fixed-bucket latency histogram and a wall/CPU split per node, and
drops tags and events.  One sink at a time: the innermost
``use_profiler`` / ``use_tracer`` wins.

Nothing is installed by default, so instrumented hot paths cost what
:data:`~repro.obs.tracer.NULL_TRACER` costs.  Profiling never changes a
run: sweep decision digests are bit-identical with a profiler, with a
tracer and with neither (pinned by ``tests/obs/test_perf_identity.py``).

Unlike :class:`~repro.obs.metrics.Histogram` (exact samples, unbounded
memory), :class:`FixedBucketHistogram` keeps O(1) state per path — a
geometric bucket ladder from 1µs to ~2min — so profiling a million async
steps costs the same memory as profiling ten.  Buckets map directly onto
Prometheus histogram semantics (cumulative ``le`` counts; see
:mod:`repro.obs.prom`).

Usage::

    from repro.obs import PhaseProfiler, trace_span, use_profiler

    profiler = PhaseProfiler()
    with use_profiler(profiler):
        with trace_span("core.run"):
            ...
    profiler.snapshot()     # JSON-able {path: aggregate} document
"""

from __future__ import annotations

import time
from typing import Any, ContextManager, Optional

from .tracer import use_tracer

__all__ = [
    "BUCKET_BOUNDS",
    "FixedBucketHistogram",
    "PERF_SCHEMA",
    "PhaseProfiler",
    "use_profiler",
]

PERF_SCHEMA = "repro.obs.perf/1"

#: Geometric bucket ladder: 1µs · 2^i for i in 0..26 (≈1µs .. ≈67s).
#: Samples above the last bound land in the overflow bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))


class FixedBucketHistogram:
    """Latency histogram over a fixed geometric bucket ladder.

    O(1) memory per phase regardless of sample count; quantiles are
    bucket-resolution estimates (exact ``min``/``max``/``total`` are kept
    alongside).  The per-bucket counts are *non-cumulative*; renderers
    that need Prometheus-style cumulative ``le`` counts accumulate at
    render time.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(BUCKET_BOUNDS)
        while lo < hi:  # first bound >= value (bisect, no import churn)
            mid = (lo + hi) // 2
            if BUCKET_BOUNDS[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper bound of the bucket holding the q-th sample,
        clamped to the exact observed ``max`` (so overflow samples never
        report an infinite latency).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("quantile of an empty histogram")
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                bound = (
                    BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.max
                )
                return min(bound, self.max)
        return self.max

    def bucket_pairs(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound_seconds, count)`` pairs; the overflow
        bucket reports ``inf`` as its bound."""
        out: list[tuple[float, int]] = []
        for i, c in enumerate(self.counts):
            if c:
                bound = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else float("inf")
                )
                out.append((bound, c))
        return out

    def as_dict(self) -> dict[str, Any]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            # JSON has no inf: encode the overflow bound as the string "inf"
            "buckets": [
                ["inf" if b == float("inf") else b, c]
                for b, c in self.bucket_pairs()
            ],
        }


class _PhaseAgg:
    """Aggregate state of one phase path: wall histogram + CPU total."""

    __slots__ = ("name", "parent", "hist", "cpu_seconds")

    def __init__(self, name: str, parent: Optional[str]) -> None:
        self.name = name
        self.parent = parent
        self.hist = FixedBucketHistogram()
        self.cpu_seconds = 0.0


class _ActivePhase:
    """Context manager binding one span interval to the profiler stack."""

    __slots__ = ("_profiler", "_path", "_name", "_t0", "_c0")

    def __init__(self, profiler: "PhaseProfiler", path: str, name: str):
        self._profiler = profiler
        self._path = path
        self._name = name

    def tag(self, **tags: Any) -> "_ActivePhase":
        """Tags have no aggregate: dropped."""
        return self

    def __enter__(self) -> "_ActivePhase":
        self._profiler._stack.append(self._path)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> bool:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        prof = self._profiler
        prof._stack.pop()
        agg = prof._aggs.get(self._path)
        if agg is None:
            parent = self._path[: -len(self._name) - 1] or None
            agg = prof._aggs[self._path] = _PhaseAgg(self._name, parent)
        agg.hist.observe(wall)
        agg.cpu_seconds += cpu
        return False


class PhaseProfiler:
    """Span sink keeping per-path wall/CPU aggregates.

    Path identity is the slash-joined names of the open spans, so the
    same kernel shows up separately under each caller — a flame view in
    O(paths) memory.  Implements the sink half of
    :class:`~repro.obs.tracer.Tracer` (``enabled`` / ``span`` /
    ``event``); install it with :func:`use_profiler`.
    """

    enabled = True

    def __init__(self) -> None:
        self._aggs: dict[str, _PhaseAgg] = {}
        self._stack: list[str] = []

    def span(self, name: str, **tags: Any) -> _ActivePhase:
        """Open a span named ``name`` under the currently open one."""
        stack = self._stack
        path = name if not stack else stack[-1] + "/" + name
        return _ActivePhase(self, path, name)

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        """Events have no aggregate: dropped."""
        return None

    def clear(self) -> None:
        self._aggs.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._aggs)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every path aggregate (JSON-serialisable)."""
        phases: dict[str, Any] = {}
        for path, agg in sorted(self._aggs.items()):
            entry = agg.hist.as_dict()
            entry["name"] = agg.name
            entry["parent"] = agg.parent
            entry["wall_seconds"] = agg.hist.total
            entry["cpu_seconds"] = agg.cpu_seconds
            phases[path] = entry
        return {"schema": PERF_SCHEMA, "phases": phases}


def use_profiler(profiler: PhaseProfiler) -> ContextManager[PhaseProfiler]:
    """Install ``profiler`` as the span sink for the ``with`` body (the
    tracer module's ambient slot — there is no second one), then restore."""
    return use_tracer(profiler)
