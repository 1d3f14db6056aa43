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
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Iterator, Optional, Sequence

from ..obs.causal import NULL_COLLECTOR
from .messages import ALL, BURST, Message, burst_copy

__all__ = ["Network", "NetworkStats"]

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

    def record_sends(self, msgs: Sequence[Message], n: int) -> None:
        """:meth:`record_send` for each of ``msgs``, in order, a burst
        (``dst = BURST``) as its ``n`` copies."""
        last_payload, last_tag = self._last_payload, self._last_tag
        size = self._last_size
        sent = nbytes = 0
        per_tag = self.per_tag
        for msg in msgs:
            tag = msg.tag
            if msg.payload is not last_payload or tag != last_tag:
                last_payload, last_tag = msg.payload, tag
                size = msg.estimated_size()
            copies = n if msg.dst == BURST else 1
            sent += copies
            nbytes += size * copies
            per_tag[tag] = per_tag.get(tag, 0) + copies
        self._last_payload, self._last_tag = last_payload, last_tag
        self._last_size = size
        self.messages_sent += sent
        self.bytes_estimate += nbytes

    def record_deliveries(self, msgs: Sequence[Message], n: int) -> None:
        """:meth:`record_delivery` for each copy of ``msgs``, a new tag
        where its first copy falls in ``(src, dst)`` link order."""
        counts: dict[str, int] = {}
        for msg in msgs:
            counts[msg.tag] = counts.get(msg.tag, 0) + (n if msg.dst == BURST else 1)
        per_tag = self.per_tag_delivered
        if not per_tag.keys() >= counts.keys():
            # ALL's link sorts first; a burst's first copy goes to pid 0.
            first: dict[str, tuple[int, ...]] = {}
            for i, (src, dst, tag, *_) in enumerate(msgs):
                first[tag] = min(first.get(tag, (n,)), (src, 0 if dst == BURST else dst, i))
            for tag in sorted(first.keys() - per_tag.keys(), key=first.__getitem__):
                per_tag[tag] = 0
        for tag, count in counts.items():
            per_tag[tag] = per_tag.get(tag, 0) + count
        self.messages_delivered += sum(counts.values())

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


class Network:
    """FIFO buffers for every ordered pair of processes.

    The sorted list of non-empty links and the total pending count are
    maintained as messages enter and leave, so the per-delivery queries
    :meth:`pending_links` and :meth:`pending_count` are O(1) reads.

    A burst (``dst = BURST``) is buffered as its one envelope on each of
    the ``n`` links ``(src, d)``: on link ``(src, d)`` it stands for the
    copy to ``d`` with seq ``seq + d``.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self._links: dict[tuple[int, int], Deque[Message]] = defaultdict(deque)
        #: Non-empty links, kept sorted (the delivery policies index it).
        self._pending: list[tuple[int, int]] = []
        self._count = 0
        #: By src: ``((src, 0), ..., (src, n - 1))``, the links a burst
        #: from ``src`` joins, built at its first burst (a lockstep run
        #: has none).
        self._fans: list[Optional[tuple[tuple[int, int], ...]]] = [None] * self.n
        self.stats = NetworkStats()
        #: Causal collector stamping sends (schedulers install theirs at
        #: run start; the shared null object keeps the default free).
        self.collector = NULL_COLLECTOR

    def submit(self, msg: Message) -> None:
        """Accept a message into the (src, dst) link buffer.

        ``dst = ALL`` (atomic broadcast) occupies its own logical link per
        sender; the scheduler fans it out to every process on delivery.
        A burst joins the links ``(src, 0) ... (src, n - 1)`` as one
        envelope, in the order its ``n`` copies' sends would have: the
        buffers, the pending index and the statistics end up as after
        those sends.  A causal collector records it as one send event,
        queued on each of those links.
        """
        src, dst = msg.src, msg.dst
        if not 0 <= src < self.n:
            raise ValueError(f"message endpoints out of range: {msg!r}")
        links = self._links
        pending = self._pending
        if dst == BURST:
            fan = self._fans[src]
            if fan is None:
                fan = self._fans[src] = tuple((src, d) for d in range(self.n))
            for link in fan:
                q = links[link]
                if not q:
                    insort(pending, link)
                q.append(msg)
            self._count += self.n
            self.stats.record_sends((msg,), self.n)
        elif 0 <= dst < self.n or dst == ALL:
            link = (src, dst)
            q = links[link]
            if not q:
                insort(pending, link)
            q.append(msg)
            self._count += 1
            self.stats.record_send(msg)
        else:
            raise ValueError(f"message endpoints out of range: {msg!r}")
        collector = self.collector
        if collector.enabled:
            collector.on_send(src, dst, msg.tag, seq=msg.seq, round=msg.round,
                              links=self._fans[src] if dst == BURST else None)

    def pending_links(self) -> Sequence[tuple[int, int]]:
        """Links with at least one undelivered message, sorted.

        This is the network's own index, not a copy: it changes with the
        next :meth:`submit` / :meth:`pop`, and callers must only read it
        (the delivery policies filter into lists of their own).
        """
        return self._pending

    def peek(self, link: tuple[int, int]) -> Optional[Message]:
        """Head-of-line message on a link, without removing it: a burst's
        copy to ``link[1]``, with that copy's seq."""
        q = self._links.get(link)
        if not q:
            return None
        msg = q[0]
        if msg.dst == BURST:
            return burst_copy(msg, link[1])
        return msg

    def pop(self, link: tuple[int, int]) -> Message:
        """Deliver (remove) the head-of-line envelope on a link.

        For a burst that is the burst's own envelope (``dst = BURST``),
        not a copy: the receiver is ``link[1]`` and the copy's seq is
        ``seq + link[1]``.
        """
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
        """Total undelivered messages, a burst's copies each."""
        return self._count

    def drain_all(self) -> Iterator[Message]:
        """Deliver everything, link by link, a burst as its copies: the
        order in which a synchronous round delivers
        (``SynchronousScheduler`` fills its inboxes in this order without
        buffering)."""
        for link in list(self._pending):
            q = self._links[link]
            while q:
                msg = self._take(link, q)
                yield burst_copy(msg, link[1]) if msg.dst == BURST else msg
