"""Process abstractions and the execution contexts handed to them.

Two execution models, matching the paper's two settings:

* **Synchronous** (§6.1, §7.1, §9): computation proceeds in lockstep
  rounds; every message sent in round ``r`` is delivered at the start of
  round ``r + 1``.  Protocol code subclasses :class:`SyncProcess` and
  implements :meth:`SyncProcess.on_round`.
* **Asynchronous** (§6.2, §7.2, §10): messages are delivered one at a time
  in an order chosen by the scheduler (adversarially, if desired), with no
  timing guarantees.  Protocol code subclasses :class:`AsyncProcess`.

Processes interact with the world only through a :class:`Context` —
sending, deciding, reading their id/parameters, and drawing randomness from
a per-process seeded generator.  Byzantine behaviour is injected by
*wrapping the context* (see :mod:`repro.system.adversary`): the faulty
process may run the correct protocol logic while its outgoing messages are
dropped, mutated, or equivocated — or may be replaced wholesale by a custom
process.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .door import reject
from .messages import ALL, BURST, Message, expand_bursts

__all__ = ["Context", "SyncProcess", "AsyncProcess", "Inbox", "Node"]

#: Round inbox type: src pid -> list of (tag, payload) received this round.
Inbox = Mapping[int, Sequence[tuple[str, Any]]]


class Context:
    """Capabilities of one process during an execution.

    Created by the scheduler; one per process.  Messages are not sent
    directly — they are queued in :attr:`outbox` and collected by the
    :class:`Node` after each handler returns.
    """

    def __init__(self, pid: int, n: int, f: int, rng: np.random.Generator):
        self.pid = int(pid)
        self.n = int(n)
        self.f = int(f)
        self.rng = rng
        self.outbox: list[Message] = []
        self.decision: Optional[Any] = None
        self.decided = False
        #: A handler sets this to stop participating once it returns.
        self.halted = False
        self._seq = 0

    # --------------------------------------------------------------- actions
    def send(self, dst: int, tag: str, payload: Any, round: Optional[int] = None) -> None:
        """Queue a message to ``dst``."""
        if not 0 <= dst < self.n:
            raise ValueError(f"unknown destination {dst}")
        self.outbox.append(Message(self.pid, dst, tag, payload, round, self._seq))
        self._seq += 1

    def broadcast(self, tag: str, payload: Any, round: Optional[int] = None) -> None:
        """Queue the same message to every process (including self).

        Self-delivery keeps protocol logic uniform — a process treats its
        own value like everyone else's, as the paper's multiset semantics
        assume.  Note this is *n point-to-point sends*: a Byzantine
        process may still equivocate across them.  For the
        broadcast-channel model use :meth:`atomic_broadcast`.  The outbox
        holds the copies as one :data:`~repro.system.messages.BURST`,
        which both simulators carry as one envelope until a receiver
        takes its copy.
        """
        self.outbox.append(Message(self.pid, BURST, tag, payload, round, self._seq))
        self._seq += self.n

    def atomic_broadcast(self, tag: str, payload: Any, round: Optional[int] = None) -> None:
        """Queue one channel-level atomic broadcast (paper footnote 3).

        The network delivers an identical copy to every process; a
        Byzantine sender may alter or drop the message but cannot send
        different versions to different receivers.
        """
        self.outbox.append(Message(self.pid, ALL, tag, payload, round, self._seq))
        self._seq += 1

    def decide(self, value: Any) -> None:
        """Record the irrevocable decision value."""
        if self.decided:
            raise RuntimeError(f"process {self.pid} decided twice")
        self.decision = value
        self.decided = True


class SyncProcess(ABC):
    """A process in the synchronous lockstep model."""

    @abstractmethod
    def on_round(self, ctx: Context, round: int, inbox: Inbox) -> None:
        """Handle one synchronous round.

        ``inbox`` holds everything delivered at the start of this round
        (i.e. sent in round ``round - 1``); it is empty in round 0.
        Queue outgoing messages on ``ctx``; they arrive next round.
        """

    def on_stop(self, ctx: Context) -> None:
        """Called once when the execution ends (for cleanup/assertions)."""


class AsyncProcess(ABC):
    """A process in the asynchronous event-driven model."""

    @abstractmethod
    def on_start(self, ctx: Context) -> None:
        """Called once before any delivery; queue initial messages here."""

    @abstractmethod
    def on_message(self, ctx: Context, src: int, tag: str, payload: Any) -> None:
        """Handle one delivered message."""

    def on_stop(self, ctx: Context) -> None:
        """Called once when the execution ends."""


class Node:
    """One process as a driver sees it, and the only caller of a handler.

    Each method skips a halted process, runs one handler and returns the
    messages it queued, for the driver to route.  For a faulty process
    (``adversary`` set) they first pass ``adversary.transform_outbox`` —
    even when empty, a strategy may inject — counted on ``metrics``, a
    burst as its ``n`` copies.
    No handler sees a payload :func:`~repro.system.door.reject` refuses.
    """

    __slots__ = ("pid", "process", "ctx", "adversary", "metrics", "d")

    def __init__(self, pid: int, process: Any, ctx: Context,
                 adversary: Any = None, metrics: Any = None):
        self.pid = pid
        self.process = process
        self.ctx = ctx
        self.adversary = adversary
        self.metrics = metrics
        self.d = getattr(process, "d", None)  # from the run's inputs

    def start(self, view: Any = None) -> Sequence[Message]:
        """Run ``on_start``."""
        if self.ctx.halted:
            return ()
        self.process.on_start(self.ctx)
        return self._take(view)

    def deliver(self, msg: Message, view: Any = None) -> Sequence[Message]:
        """Run ``on_message`` for one delivered message."""
        if self.ctx.halted:
            return ()
        if reject(msg.tag, msg.payload, self.ctx.n, self.d, self.ctx.f) is None:
            self.process.on_message(self.ctx, msg.src, msg.tag, msg.payload)
        return self._take(view)

    def round(self, r: int, inbox: Inbox, view: Any = None) -> Sequence[Message]:
        """Run ``on_round`` on round ``r``'s inbox."""
        if self.ctx.halted:
            return ()
        n, d, f = self.ctx.n, self.d, self.ctx.f
        admitted = {src: [e for e in es if reject(*e, n, d, f) is None]
                    for src, es in inbox.items()}
        self.process.on_round(self.ctx, r, admitted)
        return self._take(view)

    def _take(self, view: Any) -> Sequence[Message]:
        ctx = self.ctx
        msgs = ctx.outbox
        if msgs:
            ctx.outbox = []
        if self.adversary is None:
            return msgs
        msgs = expand_bursts(msgs, ctx.n)
        honest_count = len(msgs)
        msgs = self.adversary.transform_outbox(self.pid, msgs, view)
        self.metrics.inc("sched.adversary.messages_in", honest_count)
        self.metrics.inc("sched.adversary.messages_out", len(msgs))
        return msgs
