"""Structured tracing: spans (timed, nested) and events (point-in-time).

The design goal is *zero cost when off*: the default tracer is a shared
:data:`NULL_TRACER` whose :func:`trace_span` returns one preallocated
no-op context manager, so instrumented hot paths do no allocation and no
clock reads unless a real :class:`Tracer` has been installed.

With a real tracer installed::

    from repro.obs import Tracer, use_tracer, trace_span

    tracer = Tracer()
    with use_tracer(tracer):
        with trace_span("sched.sync.round", round=3):
            ...
    tracer.spans        # -> [SpanRecord(...), ...]

Spans carry a monotonic-clock ``(t0, t1)`` interval, a ``span_id``, the
``parent_id`` of the enclosing span (None at the root), and free-form
``tags``.  Events are instantaneous records with a log level; the tracer's
``level`` filters them (``debug`` < ``info`` < ``warning``), which is what
the CLI's ``--quiet``/``--verbose`` flags control.

:func:`trace_span` is the one way production code times a block, and the
module's ambient slot is the one place a span *sink* is installed.  Two
sinks exist: :class:`Tracer` keeps every span and event;
:class:`~repro.obs.perf.PhaseProfiler` keeps O(1) aggregates per span
path and drops tags and events.  A sink is anything with ``enabled``,
``span(name, **tags)`` (a context manager with ``tag(**tags)``) and
``event(name, level, **fields)``; one at a time, the innermost ``use_*``
wins.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "LEVELS",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "trace_span",
    "trace_event",
]

#: Log levels in increasing severity; a tracer records events at or above
#: its own level.
LEVELS = {"debug": 10, "info": 20, "warning": 30}


@dataclass
class SpanRecord:
    """One completed (or still-open) timed span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    t0: float
    t1: Optional[float] = None
    tags: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EventRecord:
    """One instantaneous event."""

    t: float
    name: str
    level: str
    fields: dict[str, Any]


class _ActiveSpan:
    """Context manager binding one SpanRecord to the tracer's span stack."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def tag(self, **tags: Any) -> "_ActiveSpan":
        """Attach tags to the span after opening (e.g. computed results)."""
        self.record.tags.update(tags)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack.append(self.record.span_id)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.record.t1 = time.perf_counter()
        self._tracer._stack.pop()
        return False


class _NullSpan:
    """Shared no-op span: entering, exiting and tagging all do nothing."""

    __slots__ = ()

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


#: Shared no-op span — safe to use directly in hot loops that branch on
#: ``get_tracer().enabled`` themselves to avoid building a kwargs dict.
NULL_SPAN = _NullSpan()
_NULL_SPAN = NULL_SPAN


class Tracer:
    """Collects span and event records in memory.

    Parameters
    ----------
    level:
        Minimum event level recorded (``"debug"``, ``"info"``,
        ``"warning"``).  Spans are always recorded.
    echo:
        When true, recorded events are also printed to ``stderr`` as they
        happen (the CLI's ``--verbose`` behaviour).
    """

    enabled = True

    def __init__(self, level: str = "info", echo: bool = False):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choices {sorted(LEVELS)}")
        self.level = level
        self.echo = bool(echo)
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=sid,
            parent_id=parent,
            name=name,
            t0=time.perf_counter(),
            tags=dict(tags) if tags else {},
        )
        self.spans.append(record)
        return _ActiveSpan(self, record)

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        """Record an instantaneous event (dropped when below the level)."""
        if LEVELS.get(level, 20) < LEVELS[self.level]:
            return
        record = EventRecord(
            t=time.perf_counter(), name=name, level=level, fields=fields
        )
        self.events.append(record)
        if self.echo:  # pragma: no cover - console side effect
            import sys

            extras = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"[{level}] {name} {extras}".rstrip(), file=sys.stderr)

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._next_id = 0


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False
    level = "warning"
    spans: tuple = ()
    events: tuple = ()

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        return None


NULL_TRACER = NullTracer()

_tracer: Any = NULL_TRACER


def get_tracer() -> Any:
    """The currently installed span sink (NULL_TRACER by default)."""
    return _tracer


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` globally; returns the previous one."""
    global _tracer
    prev = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return prev


@contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Install ``tracer`` for the ``with`` body, then restore."""
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)


def trace_span(name: str, **tags: Any) -> "_ActiveSpan | _NullSpan":
    """Open a span on the installed tracer (shared no-op when disabled)."""
    t = _tracer
    if not t.enabled:
        return _NULL_SPAN
    return t.span(name, **tags)


def trace_event(name: str, level: str = "info", **fields: Any) -> None:
    """Record an event on the installed tracer (no-op when disabled)."""
    t = _tracer
    if t.enabled:
        t.event(name, level=level, **fields)
