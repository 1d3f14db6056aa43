"""Causal event collection: Lamport + vector clocks and happens-before.

The schedulers and the network stamp every *send* and *deliver* (plus
protocol-level *decide*/*iterate* marks) with a stable event id, a
Lamport timestamp, and a vector clock, and record the happens-before DAG:
send→deliver edges across processes, implicit program order within one
process.  :mod:`repro.analysis.timeline` consumes the recorded events to
reconstruct the causal cone of any decision ("why did process i decide
v?") and render per-round timelines.

The design goal matches :data:`~repro.obs.tracer.NULL_TRACER`: *zero cost
when off*.  The default collector is the shared :data:`NULL_COLLECTOR`
whose ``enabled`` flag is false; every instrumented call site branches on
``collector.enabled`` before building arguments, so the scheduler hot
loop does no allocation and no clock bookkeeping unless a real
:class:`CausalCollector` has been installed (``use_causal_collector`` /
``set_causal_collector``).

Event-id correspondence between sends and deliveries is exact even under
duplication and broadcast: :meth:`CausalCollector.on_send` queues the
send's event id on the message's ``(src, dst)`` link mirror (a burst's
on each link it rides), and :meth:`CausalCollector.pop_send` dequeues it
when the scheduler pops the link — the network's per-link FIFO
discipline keeps both queues in lockstep.  A broadcast, atomic or a
burst, is one send event with a ``cause`` edge to each delivery.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Iterator, Optional, Sequence

__all__ = [
    "CausalEvent",
    "CausalCollector",
    "NullCausalCollector",
    "NULL_COLLECTOR",
    "get_causal_collector",
    "set_causal_collector",
    "use_causal_collector",
    "note_decision",
    "note_iteration",
]


@dataclass
class CausalEvent:
    """One stamped event of the happens-before DAG.

    ``eid`` is the event's stable id: its index in the collector's event
    list, assigned in recording order, so two replays of the same
    deterministic run number their events identically.  ``cause`` is the
    matching send event's id on deliver events (None elsewhere);
    program-order edges are implicit (consecutive events of one ``pid``).
    """

    eid: int
    kind: str  # "send" | "deliver" | "decide" | "iterate"
    pid: int
    lamport: int
    clock: tuple[int, ...]
    time: Optional[int] = None  # scheduler round (sync) or step (async)
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[str] = None
    cause: Optional[int] = None
    fields: dict[str, Any] = field(default_factory=dict)


class CausalCollector:
    """Records stamped events and happens-before edges for one run.

    Parameters
    ----------
    n:
        Number of processes (sizes the vector clocks).  May be 0; clocks
        grow on demand when events mention larger pids.
    """

    enabled = True

    def __init__(self, n: int = 0):
        self.events: list[CausalEvent] = []
        #: (cause_eid, effect_eid) send→deliver edges, in recording order.
        self.edges: list[tuple[int, int]] = []
        #: Current scheduler time (round or step), stamped on events whose
        #: call site does not pass ``time`` (the network, protocol code).
        self.now: Optional[int] = None
        self._lamport: list[int] = [0] * n
        self._clock: list[list[int]] = [[0] * n for _ in range(n)]
        #: per-link FIFO mirror of the network buffers: send event ids
        #: awaiting their delivery.
        self._in_flight: dict[tuple[int, int], Deque[int]] = {}
        #: pid -> eid of the process's most recent event (program order).
        self.last_event: dict[int, int] = {}

    # ------------------------------------------------------------- clocks
    def _ensure(self, pid: int) -> None:
        """Grow the clock state to cover ``pid`` (and keep clocks square)."""
        size = max(pid + 1, len(self._lamport))
        if size > len(self._lamport):
            self._lamport.extend([0] * (size - len(self._lamport)))
        for vc in self._clock:
            if size > len(vc):
                vc.extend([0] * (size - len(vc)))
        while len(self._clock) < size:
            self._clock.append([0] * size)

    def _record(self, event: CausalEvent) -> int:
        self.events.append(event)
        self.last_event[event.pid] = event.eid
        return event.eid

    # -------------------------------------------------------------- hooks
    def on_send(
        self,
        src: int,
        dst: int,
        tag: str,
        *,
        time: Optional[int] = None,
        links: Optional[Sequence[tuple[int, int]]] = None,
        **fields: Any,
    ) -> int:
        """Stamp one message submission; returns the send event's id.

        Called once per accepted envelope, by
        :meth:`repro.system.network.Network.submit`, the synchronous
        round's exchange or a live node; a broadcast (``dst = ALL`` or
        ``BURST``) is one send event with one deliver event per
        receiver.  Its id waits for :meth:`pop_send` on each of
        ``links``, ``(src, dst)`` by default: the asynchronous network
        passes a burst's ``n`` links, a live node none (its deliveries
        carry the stamp).
        """
        if time is None:
            time = self.now
        self._ensure(src)
        self._lamport[src] += 1
        vc = self._clock[src]
        vc[src] += 1
        eid = len(self.events)
        for link in ((src, dst),) if links is None else links:
            self._in_flight.setdefault(link, deque()).append(eid)
        return self._record(CausalEvent(
            eid=eid, kind="send", pid=src, lamport=self._lamport[src],
            clock=tuple(vc), time=time, src=src, dst=dst, tag=tag,
            fields=dict(fields) if fields else {},
        ))

    def pop_send(self, src: int, dst: int) -> Optional[int]:
        """Dequeue the send event id for the head-of-line ``(src, dst)``
        message the scheduler just popped (None when the send predates
        collector installation)."""
        queue = self._in_flight.get((src, dst))
        if not queue:
            return None
        return queue.popleft()

    def stamp(self, eid: int) -> tuple[int, int, tuple[int, ...]]:
        """The ``(eid, lamport, clock)`` wire stamp of a recorded event.

        The live transport attaches this to outgoing MSG frames (the
        record's ``stamp``) so the receiving node's collector can merge the
        sender's clocks even though the two collectors live in different
        OS processes.
        """
        ev = self.events[eid]
        return (ev.eid, ev.lamport, ev.clock)

    def on_deliver(
        self,
        dst: int,
        send_eid: Optional[int],
        *,
        time: Optional[int] = None,
        **fields: Any,
    ) -> int:
        """Stamp one delivery at ``dst``, merging the send's clocks.

        One broadcast yields one deliver event per receiver, all caused
        by the same send event.
        """
        if time is None:
            time = self.now
        self._ensure(dst)
        cause = None
        lamport_floor = 0
        if send_eid is not None and 0 <= send_eid < len(self.events):
            sent = self.events[send_eid]
            cause = send_eid
            lamport_floor = sent.lamport
            vc = self._clock[dst]
            self._ensure(len(sent.clock) - 1)
            for i, v in enumerate(sent.clock):
                if v > vc[i]:
                    vc[i] = v
        self._lamport[dst] = max(self._lamport[dst], lamport_floor) + 1
        vc = self._clock[dst]
        vc[dst] += 1
        eid = len(self.events)
        if cause is not None:
            self.edges.append((cause, eid))
        src = self.events[cause].src if cause is not None else None
        tag = self.events[cause].tag if cause is not None else None
        return self._record(CausalEvent(
            eid=eid, kind="deliver", pid=dst, lamport=self._lamport[dst],
            clock=tuple(vc), time=time, src=src, dst=dst, tag=tag,
            cause=cause, fields=dict(fields) if fields else {},
        ))

    def on_deliver_remote(
        self,
        dst: int,
        origin: int,
        origin_eid: int,
        lamport: int,
        clock: tuple[int, ...],
        *,
        src: Optional[int] = None,
        tag: Optional[str] = None,
        time: Optional[int] = None,
        **fields: Any,
    ) -> int:
        """Stamp a delivery whose send event lives in *another process's*
        collector (a wire-stamped frame from a remote node).

        The carried Lamport timestamp and vector clock are merged exactly
        as :meth:`on_deliver` merges a local send's, but ``cause`` stays
        None — the matching send eid belongs to the origin node's event
        numbering, not ours.  The ``origin`` pair is recorded in
        ``fields["origin"]`` so post-hoc trail stitching
        (:mod:`repro.obs.fleet`) can reconnect the cross-process
        send→deliver edge.
        """
        if time is None:
            time = self.now
        self._ensure(dst)
        self._ensure(len(clock) - 1)
        vc = self._clock[dst]
        for i, v in enumerate(clock):
            if v > vc[i]:
                vc[i] = v
        self._lamport[dst] = max(self._lamport[dst], int(lamport)) + 1
        vc = self._clock[dst]
        vc[dst] += 1
        eid = len(self.events)
        merged = dict(fields) if fields else {}
        merged["origin"] = [int(origin), int(origin_eid)]
        return self._record(CausalEvent(
            eid=eid, kind="deliver", pid=dst, lamport=self._lamport[dst],
            clock=tuple(vc), time=time, src=src, dst=dst, tag=tag,
            cause=None, fields=merged,
        ))

    def on_mark(
        self,
        kind: str,
        pid: int,
        *,
        time: Optional[int] = None,
        **fields: Any,
    ) -> int:
        """Stamp a protocol-local event (``decide``, ``iterate``, ...)."""
        if time is None:
            time = self.now
        self._ensure(pid)
        self._lamport[pid] += 1
        vc = self._clock[pid]
        vc[pid] += 1
        eid = len(self.events)
        return self._record(CausalEvent(
            eid=eid, kind=kind, pid=pid, lamport=self._lamport[pid],
            clock=tuple(vc), time=time,
            fields=dict(fields) if fields else {},
        ))

    def to_records(self) -> list[dict[str, Any]]:
        """JSONL-ready ``{"type": "causal"}`` record dicts."""
        records: list[dict[str, Any]] = []
        for ev in self.events:
            rec: dict[str, Any] = {
                "type": "causal",
                "eid": ev.eid,
                "kind": ev.kind,
                "pid": ev.pid,
                "lamport": ev.lamport,
                "clock": list(ev.clock),
                "time": ev.time,
            }
            if ev.kind in ("send", "deliver"):
                rec["src"] = ev.src
                rec["dst"] = ev.dst
                rec["tag"] = ev.tag
            if ev.cause is not None:
                rec["cause"] = ev.cause
            if ev.fields:
                from .export import _jsonable

                rec["fields"] = _jsonable(ev.fields)
            records.append(rec)
        return records

    def clear(self) -> None:
        self.events.clear()
        self.edges.clear()
        self.last_event.clear()
        self._in_flight.clear()
        self._lamport = [0] * len(self._lamport)
        self._clock = [[0] * len(self._lamport) for _ in self._lamport]


class NullCausalCollector:
    """The disabled collector: records nothing, allocates nothing.

    Instrumented call sites branch on ``enabled`` *before* calling any
    method, so with the null collector installed the hot loop performs
    one attribute load and one truth test per guard — no method calls,
    no argument tuples (pinned by ``tests/obs/test_causal.py``).
    """

    enabled = False
    events: tuple = ()
    edges: tuple = ()

    def on_send(self, src: int, dst: int, tag: str, **kw: Any) -> Optional[int]:
        return None

    def pop_send(self, src: int, dst: int) -> Optional[int]:
        return None

    def on_deliver(self, dst: int, send_eid: Optional[int], **kw: Any) -> Optional[int]:
        return None

    def on_deliver_remote(
        self, dst: int, origin: int, origin_eid: int,
        lamport: int, clock: Any, **kw: Any,
    ) -> Optional[int]:
        return None

    def stamp(self, eid: int) -> None:
        return None

    def on_mark(self, kind: str, pid: int, **kw: Any) -> Optional[int]:
        return None


NULL_COLLECTOR = NullCausalCollector()

_collector: Any = NULL_COLLECTOR


def get_causal_collector() -> Any:
    """The installed collector (:data:`NULL_COLLECTOR` by default)."""
    return _collector


def set_causal_collector(collector: Any) -> Any:
    """Install ``collector`` globally; returns the previous one."""
    global _collector
    prev = _collector
    _collector = collector if collector is not None else NULL_COLLECTOR
    return prev


@contextmanager
def use_causal_collector(collector: Any) -> Iterator[Any]:
    """Install ``collector`` for the ``with`` body, then restore."""
    prev = set_causal_collector(collector)
    try:
        yield collector
    finally:
        set_causal_collector(prev)


def note_decision(pid: int, *, time: Optional[int] = None, **fields: Any) -> None:
    """Stamp a decide event for ``pid`` on the installed collector.

    Protocol code calls this at the moment ``ctx.decide`` fires, so the
    decide event lands in program order *after* the deliveries that
    justified it — that ordering is what makes
    :meth:`repro.analysis.timeline.CausalGraph.causal_cone` an explanation
    of the decision.
    """
    c = _collector
    if c.enabled:
        c.on_mark("decide", pid, time=time, **fields)


def note_iteration(pid: int, *, time: Optional[int] = None, **fields: Any) -> None:
    """Stamp a protocol-iteration event (e.g. an averaging round advance)."""
    c = _collector
    if c.enabled:
        c.on_mark("iterate", pid, time=time, **fields)
