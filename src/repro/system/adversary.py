"""Byzantine adversaries.

A Byzantine process "may behave arbitrarily".  Two complementary ways to
express that here:

1. **Traffic transformation** — the faulty process runs the *correct*
   protocol logic, but a :class:`ByzantineStrategy` intercepts its outgoing
   messages and may drop, mutate, duplicate, or equivocate them (and inject
   wholly forged ones).  This covers crash faults, lying, and equivocation
   without re-implementing any protocol.
2. **Process replacement** — for fully custom behaviour (e.g. the
   adversaries in the impossibility proofs), the faulty id is given a
   bespoke process object via ``custom_processes``.

The proofs of Theorems 3 and 5 restrict the faulty process to "correctly
follow any specified algorithm" — that is :class:`HonestStrategy` plus an
adversarially chosen *input*, which the caller controls anyway.

The adversary is **rushing** in the synchronous model: the scheduler runs
all correct processes' round handlers first and exposes their outgoing
round-``r`` messages to the strategies before the faulty round-``r``
messages are fixed.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .messages import BURST, Message, expand_bursts

__all__ = [
    "AdversaryView",
    "ByzantineStrategy",
    "HonestStrategy",
    "SilentStrategy",
    "CrashStrategy",
    "MutateStrategy",
    "EquivocateStrategy",
    "DuplicateStrategy",
    "Adversary",
    "perturb_payload",
]


@dataclass
class AdversaryView:
    """What a strategy can see when transforming a faulty process's traffic.

    Attributes
    ----------
    round:
        Current synchronous round (None in asynchronous executions).
    n, f:
        System parameters.
    rng:
        Seeded generator dedicated to the adversary (reproducible runs).
    correct_outbox:
        In synchronous executions, the messages the *correct* processes
        queued this round, one per copy — the rushing adversary reads
        them before committing its own.  Empty in asynchronous executions.
        Expanded on first read from ``correct_queued``, which holds each
        ``Context.broadcast`` as one burst.
    sign:
        Signing capability restricted to the faulty ids (None when the
        protocol is unauthenticated, and in asynchronous executions).
    """

    round: Optional[int]
    n: int
    f: int
    rng: np.random.Generator
    correct_queued: Sequence[Message] = field(default_factory=tuple)
    sign: Optional[Callable[[int, Any], Any]] = None

    @cached_property
    def correct_outbox(self) -> Sequence[Message]:
        return expand_bursts(self.correct_queued, self.n)


class ByzantineStrategy(ABC):
    """Transforms the outgoing traffic of one faulty process."""

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        """Map one legitimate outgoing message to the messages actually sent.

        Return ``[msg]`` to behave honestly for this message, ``[]`` to
        drop it, or any list of replacements (destinations may differ —
        that is equivocation).
        """
        return [msg]

    def inject(self, pid: int, view: AdversaryView) -> list[Message]:
        """Extra forged messages from ``pid``, once per round/activation."""
        return []


class HonestStrategy(ByzantineStrategy):
    """Faulty but obedient: follows the algorithm exactly.

    This is the adversary of the necessity proofs ("the faulty process
    correctly follows any specified algorithm"); its power lies purely in
    its input value.
    """


class SilentStrategy(ByzantineStrategy):
    """Sends nothing, ever (a crash before the first send)."""

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        return []


class CrashStrategy(ByzantineStrategy):
    """Crashes at a given round: sends normally before, nothing after.

    In the crash round itself an optional subset of destinations still
    receives the message — modelling a crash mid-broadcast, the classic
    hard case for agreement protocols.
    """

    def __init__(self, crash_round: int, partial_recipients: Optional[set[int]] = None):
        self.crash_round = int(crash_round)
        self.partial_recipients = partial_recipients

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        r = view.round if view.round is not None else self.crash_round
        if r < self.crash_round:
            return [msg]
        if r == self.crash_round and self.partial_recipients is not None:
            return [msg] if msg.dst in self.partial_recipients else []
        return []


class MutateStrategy(ByzantineStrategy):
    """Applies a payload mutator to every outgoing message.

    ``mutator(tag, payload, rng)`` returns the replacement payload, or
    None to drop the message.  The same mutation goes to every recipient —
    a *consistent* liar.
    """

    def __init__(self, mutator: Callable[[str, Any, np.random.Generator], Any]):
        self.mutator = mutator

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        new_payload = self.mutator(msg.tag, msg.payload, view.rng)
        if new_payload is None:
            return []
        return [msg._replace(payload=new_payload)]


class EquivocateStrategy(ByzantineStrategy):
    """Sends *different* payloads to different recipients.

    ``mutator(tag, payload, dst, rng)`` returns the payload for that
    destination (None drops it).  Equivocation is the canonical Byzantine
    attack against broadcast; Bracha/Dolev–Strong exist to defeat it.
    """

    def __init__(self, mutator: Callable[[str, Any, int, np.random.Generator], Any]):
        self.mutator = mutator

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        new_payload = self.mutator(msg.tag, msg.payload, msg.dst, view.rng)
        if new_payload is None:
            return []
        return [msg._replace(payload=new_payload)]


def perturb_payload(value: Any, rng: np.random.Generator, scale: float) -> Any:
    """Structured noise on numeric tuples (protocol-agnostic): the
    payload mutator behind the named sweep adversaries and the DST fault
    scripts' ``mutate`` / ``equivocate`` clauses."""
    if isinstance(value, tuple):
        if value and all(isinstance(v, float) for v in value):
            return tuple(v + float(rng.normal() * scale) for v in value)
        return tuple(perturb_payload(v, rng, scale) for v in value)
    return value


class DuplicateStrategy(ByzantineStrategy):
    """Sends every message ``k`` times (stress-tests dedup logic)."""

    def __init__(self, k: int = 2):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        return [msg] * self.k


class Adversary:
    """The fault pattern of one execution.

    Parameters
    ----------
    faulty:
        Ids of the Byzantine processes (at most ``f`` of them — validated
        by the scheduler).
    strategy:
        Default strategy applied to every faulty process.
    strategies:
        Per-process overrides.
    custom_processes:
        Map pid -> process instance replacing the protocol logic entirely
        (the instance must match the scheduler's process model).
    """

    def __init__(
        self,
        faulty: Sequence[int] = (),
        strategy: Optional[ByzantineStrategy] = None,
        strategies: Optional[Mapping[int, ByzantineStrategy]] = None,
        custom_processes: Optional[Mapping[int, Any]] = None,
    ):
        self.faulty = frozenset(int(p) for p in faulty)
        self._default = strategy or HonestStrategy()
        self._overrides = dict(strategies or {})
        self.custom_processes = dict(custom_processes or {})
        unknown = set(self._overrides) - self.faulty
        if unknown:
            raise ValueError(f"strategy overrides for non-faulty processes: {unknown}")
        unknown = set(self.custom_processes) - self.faulty
        if unknown:
            raise ValueError(f"custom processes for non-faulty ids: {unknown}")

    def is_faulty(self, pid: int) -> bool:
        return pid in self.faulty

    def strategy_for(self, pid: int) -> ByzantineStrategy:
        if pid not in self.faulty:
            raise ValueError(f"process {pid} is not faulty")
        return self._overrides.get(pid, self._default)

    def transform_outbox(
        self, pid: int, outbox: Sequence[Message], view: AdversaryView
    ) -> list[Message]:
        """Apply the process's strategy to its queued messages + injections."""
        strat = self.strategy_for(pid)
        out: list[Message] = []
        for msg in outbox:
            replacements = strat.transform(msg, view)
            if msg.is_atomic_broadcast:
                # Broadcast-channel model (paper footnote 3): a Byzantine
                # sender may alter or drop an atomic broadcast, but cannot
                # split it into per-receiver versions.
                bad = [r for r in replacements if not r.is_atomic_broadcast]
                if bad:
                    raise ValueError(
                        f"strategy for {pid} tried to de-atomise a broadcast-"
                        f"channel message into point-to-point sends: {bad[0]!r}"
                    )
            out.extend(replacements)
        out.extend(strat.inject(pid, view))
        for msg in out:
            if msg.src != pid:
                raise ValueError(
                    f"strategy for {pid} forged a message from {msg.src}; "
                    "spoofed sender ids are prevented by the channel model"
                )
            if msg.dst == BURST:
                raise ValueError(f"message endpoints out of range: {msg!r} "
                                 "(only Context.broadcast makes a burst)")
        return out

    @staticmethod
    def none() -> "Adversary":
        """The failure-free adversary."""
        return Adversary(faulty=())
