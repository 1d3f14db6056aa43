"""Process-local metrics: counters, gauges, and latency histograms.

A :class:`MetricsRegistry` is a flat namespace of named metrics.  Each
scheduler run owns one registry (surfaced as ``RunResult.metrics``), and
installs it as the *ambient* registry for the duration of the run so that
deep layers — broadcast state machines, the geometry kernels — can record
without any plumbing::

    from repro.obs import metrics
    metrics.inc("bcast.bracha.echo")          # ambient registry

Outside any run the ambient registry is a process-global one, so
standalone kernel calls (CLI, notebooks) still accumulate somewhere
inspectable.

Naming convention (see ``docs/observability.md``): dotted lowercase paths,
``<layer>.<component>.<what>`` — e.g. ``net.messages_sent``,
``sched.sync.rounds``, ``geometry.delta_star.seconds``.  Histogram names
end in a unit (``.seconds``, ``.bytes``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "current_registry",
    "use_registry",
    "inc",
]


class Counter:
    """Monotonically increasing count (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value, tracking the extremes seen."""

    __slots__ = ("value", "max", "min", "updates")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.max: float = -math.inf
        self.min: float = math.inf
        self.updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        self.updates += 1

    def as_dict(self) -> dict[str, Any]:
        if not self.updates:
            return {"type": "gauge", "value": None, "max": None, "min": None,
                    "updates": 0}
        return {"type": "gauge", "value": self.value, "max": self.max,
                "min": self.min, "updates": self.updates}


class Histogram:
    """Exact sample histogram with percentile queries.

    Stores every observation (simulation scale — thousands, not billions),
    so percentiles are exact order statistics with linear interpolation.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (0 <= q <= 100), linearly interpolated."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        xs = sorted(self.samples)
        if len(xs) == 1:
            return xs[0]
        pos = (q / 100.0) * (len(xs) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(xs) - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    def as_dict(self) -> dict[str, Any]:
        if not self.samples:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Flat namespace of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ accessors
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # ------------------------------------------------------------ recording
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ----------------------------------------------------------- inspection
    def counter_value(self, name: str, default: int = 0) -> int:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every metric (JSON-serialisable)."""
        out: dict[str, Any] = {}
        for name, c in self._counters.items():
            out[name] = c.as_dict()
        for name, g in self._gauges.items():
            out[name] = g.as_dict()
        for name, h in self._histograms.items():
            out[name] = h.as_dict()
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


# ---------------------------------------------------------------------------
# ambient registry (single-threaded simulator: a simple stack suffices)
# ---------------------------------------------------------------------------

_STACK: list[MetricsRegistry] = [MetricsRegistry()]


def current_registry() -> MetricsRegistry:
    """The innermost active registry (the global one outside any run)."""
    return _STACK[-1]


def active_registry() -> Optional[MetricsRegistry]:
    """The innermost *explicitly installed* registry, or None.

    Unlike :func:`current_registry` this never falls back to the global
    registry; schedulers use it so that a run started inside a
    ``use_registry`` scope (a command run with ``--trace-out``) records
    into that scope's registry, while standalone runs get a private one.
    """
    return _STACK[-1] if len(_STACK) > 1 else None


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the ``with`` body."""
    reg = registry if registry is not None else MetricsRegistry()
    _STACK.append(reg)
    try:
        yield reg
    finally:
        _STACK.pop()


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the ambient registry."""
    _STACK[-1].counter(name).inc(amount)

