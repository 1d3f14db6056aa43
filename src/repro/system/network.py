"""The complete-graph message transport with per-link FIFO order.

The paper's model: "a complete network ... a reliable communication channel
from every process to each of the remaining processes."  The network never
loses, duplicates, or corrupts messages; all misbehaviour comes from
Byzantine *processes* and (in the asynchronous model) from adversarial
*delivery timing*.  :class:`Network` is therefore a buffer that preserves
per-link FIFO order and collects transcript statistics; the scheduler
decides *when* each buffered message is delivered.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Deque, Iterator, Optional, Sequence

from ..obs.causal import NULL_COLLECTOR
from .messages import Message

__all__ = ["Network", "NetworkStats"]

#: A message's tag (``Message`` is a tuple).
_TAG = itemgetter(2)

#: "No send recorded yet" — ``None`` is a legitimate payload.
_NO_PAYLOAD: Any = object()


@dataclass
class NetworkStats:
    """Aggregate transcript statistics for one execution.

    ``per_tag`` counts *sends* and ``per_tag_delivered`` counts
    *deliveries*; they differ when the run ends with messages still
    buffered (async runs stopped at decision) or when the scheduler drops
    traffic at submission (missing topology edges).
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    bytes_estimate: int = 0
    per_tag: dict[str, int] = field(default_factory=dict)
    per_tag_delivered: dict[str, int] = field(default_factory=dict)
    # The immediately preceding send: a broadcast burst submits one
    # payload object under one tag to n destinations, so its size is
    # estimated once.  Holding the payload keeps the identity test sound.
    _last_payload: Any = field(default=_NO_PAYLOAD, repr=False, compare=False)
    _last_tag: str = field(default="", repr=False, compare=False)
    _last_size: int = field(default=0, repr=False, compare=False)

    def record_send(self, msg: Message) -> None:
        tag = msg.tag
        if msg.payload is not self._last_payload or tag != self._last_tag:
            self._last_payload, self._last_tag = msg.payload, tag
            self._last_size = msg.estimated_size()
        self.messages_sent += 1
        self.bytes_estimate += self._last_size
        self.per_tag[tag] = self.per_tag.get(tag, 0) + 1

    def record_delivery(self, msg: Message) -> None:
        self.messages_delivered += 1
        self.per_tag_delivered[msg.tag] = (
            self.per_tag_delivered.get(msg.tag, 0) + 1
        )

    def record_sends(self, msgs: Sequence[Message]) -> None:
        """:meth:`record_send` for each of ``msgs``, in order."""
        last_payload, last_tag = self._last_payload, self._last_tag
        size = self._last_size
        total = 0
        for msg in msgs:
            if msg.payload is not last_payload or msg.tag != last_tag:
                last_payload, last_tag = msg.payload, msg.tag
                size = msg.estimated_size()
            total += size
        self._last_payload, self._last_tag = last_payload, last_tag
        self._last_size = size
        self.messages_sent += len(msgs)
        self.bytes_estimate += total
        _add_counts(self.per_tag, msgs)

    def record_deliveries(self, msgs: Sequence[Message]) -> None:
        """:meth:`record_delivery` for each of ``msgs``, in order."""
        self.messages_delivered += len(msgs)
        _add_counts(self.per_tag_delivered, msgs)

    def merge(self, other: "NetworkStats") -> None:
        """Add ``other``'s counts to these (tags in sorted order)."""
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.bytes_estimate += other.bytes_estimate
        for tag in sorted(other.per_tag):
            self.per_tag[tag] = self.per_tag.get(tag, 0) + other.per_tag[tag]
        for tag in sorted(other.per_tag_delivered):
            self.per_tag_delivered[tag] = (
                self.per_tag_delivered.get(tag, 0) + other.per_tag_delivered[tag]
            )

    def as_dict(self) -> dict:
        """Plain-data view (merged into ``RunResult.metrics``)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bytes_estimate": self.bytes_estimate,
            "per_tag": dict(self.per_tag),
            "per_tag_delivered": dict(self.per_tag_delivered),
        }


def _add_counts(per_tag: dict[str, int], msgs: Sequence[Message]) -> None:
    """Count ``msgs`` into ``per_tag``; a new tag is added where its first
    message falls, as one increment per message would add it."""
    for tag, count in Counter(map(_TAG, msgs)).items():
        per_tag[tag] = per_tag.get(tag, 0) + count


class Network:
    """FIFO buffers for every ordered pair of processes.

    The sorted list of non-empty links and the total pending count are
    maintained as messages enter and leave, so the per-delivery queries
    :meth:`pending_links` and :meth:`pending_count` are O(1) reads.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self._links: dict[tuple[int, int], Deque[Message]] = defaultdict(deque)
        #: Non-empty links, kept sorted (the delivery policies index it).
        self._pending: list[tuple[int, int]] = []
        self._count = 0
        self.stats = NetworkStats()
        #: Causal collector stamping sends (schedulers install theirs at
        #: run start; the shared null object keeps the default free).
        self.collector = NULL_COLLECTOR

    def submit(self, msg: Message) -> None:
        """Accept a message into the (src, dst) link buffer.

        ``dst = ALL`` (atomic broadcast) occupies its own logical link per
        sender; the scheduler fans it out to every process on delivery.
        """
        if not 0 <= msg.src < self.n:
            raise ValueError(f"message endpoints out of range: {msg!r}")
        if not (msg.is_atomic_broadcast or 0 <= msg.dst < self.n):
            raise ValueError(f"message endpoints out of range: {msg!r}")
        link = (msg.src, msg.dst)
        q = self._links[link]
        if not q:
            insort(self._pending, link)
        q.append(msg)
        self._count += 1
        self.stats.record_send(msg)
        collector = self.collector
        if collector.enabled:
            collector.on_send(msg.src, msg.dst, msg.tag, seq=msg.seq,
                              round=msg.round)

    def pending_links(self) -> Sequence[tuple[int, int]]:
        """Links with at least one undelivered message, sorted.

        This is the network's own index, not a copy: it changes with the
        next :meth:`submit` / :meth:`pop`, and callers must only read it
        (the delivery policies filter into lists of their own).
        """
        return self._pending

    def peek(self, link: tuple[int, int]) -> Optional[Message]:
        """Head-of-line message on a link, without removing it."""
        q = self._links.get(link)
        return q[0] if q else None

    def pop(self, link: tuple[int, int]) -> Message:
        """Deliver (remove) the head-of-line message on a link."""
        q = self._links.get(link)
        if not q:
            raise KeyError(f"no pending message on link {link}")
        return self._take(link, q)

    def _take(self, link: tuple[int, int], q: Deque[Message]) -> Message:
        """Remove the head of ``q``, the non-empty buffer of ``link``."""
        msg = q.popleft()
        self._count -= 1
        if not q:
            del self._pending[bisect_left(self._pending, link)]
        self.stats.record_delivery(msg)
        return msg

    def pending_count(self) -> int:
        """Total undelivered messages."""
        return self._count

    def drain_all(self) -> Iterator[Message]:
        """Deliver everything, link by link: the order in which a
        synchronous round delivers (``SynchronousScheduler`` fills its
        inboxes in this order without buffering)."""
        for link in list(self._pending):
            q = self._links[link]
            while q:
                yield self._take(link, q)
