"""Step 1 shared by every synchronous algorithm: all-to-all Byzantine
broadcast of the inputs.

Both the exact BVC baseline and the paper's ALGO start identically
("Step 1: each process i performs a Byzantine broadcast of its
d-dimensional input v_i ... all non-faulty processes obtain identical set
S").  :class:`BroadcastAllProcess` runs ``n`` parallel broadcast instances
— one per commander — over either OM(f)/EIG (unauthenticated, the paper's
reference [12]) or Dolev–Strong (authenticated, polynomial for larger f),
then hands the agreed multiset ``S`` to a subclass hook.

Detectably-faulty senders (broadcast resolved to the protocol default) are
replaced by a deterministic substitute — the first successfully broadcast
value — so the multiset always has ``n`` entries, as the paper's Step 2
assumes; every correct process substitutes identically, preserving
agreement.  A substituted value is just "an arbitrary point chosen by the
faulty process", which the algorithms must tolerate anyway.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Any, Optional

import numpy as np

from ..system.broadcast.interface import make_broadcast
from ..system.crypto import SignatureScheme
from ..system.process import Context, Inbox, SyncProcess

__all__ = ["BroadcastAllProcess", "broadcast_tag"]


def broadcast_tag(instance: int) -> str:
    """Network tag for broadcast instance ``instance`` (commander id)."""
    return f"bc:{instance}"


class BroadcastAllProcess(SyncProcess):
    """Synchronous process template: broadcast all inputs, then decide.

    Parameters
    ----------
    n, f, pid:
        System parameters and this process's id.
    input_value:
        This process's ``d``-dimensional input vector.
    broadcast:
        ``"eig"`` (OM(f), needs ``n >= 3f+1``, exponential in f),
        ``"dolev-strong"`` (authenticated, needs a shared
        :class:`SignatureScheme`), or ``"atomic"`` — the paper's
        footnote-3 model where the network itself is a reliable broadcast
        channel, making Step 1 a single round and lifting the
        ``n >= 3f+1`` requirement entirely.  (This knob was historically
        named ``transport``; that name now selects the execution backend
        on :class:`~repro.core.runspec.RunSpec`.)
    scheme:
        Signature scheme, required for the authenticated broadcast.
    """

    def __init__(
        self,
        n: int,
        f: int,
        pid: int,
        input_value: np.ndarray,
        *,
        broadcast: str = "eig",
        scheme: Optional[SignatureScheme] = None,
    ):
        self.n, self.f, self.pid = n, f, pid
        self.input_value = np.asarray(input_value, dtype=float).ravel()
        self.d = self.input_value.size
        #: The input as it goes on the wire (round 0 only).
        self._own_value = tuple(float(x) for x in self.input_value)
        if broadcast not in ("eig", "dolev-strong", "atomic"):
            raise ValueError(f"unknown broadcast {broadcast!r}")
        if broadcast == "dolev-strong" and scheme is None:
            raise ValueError("dolev-strong broadcast requires a SignatureScheme")
        self.broadcast = broadcast
        if broadcast == "atomic":
            # atomic channel: one slot per sender, filled on delivery
            self.instances: dict[int, Any] = {}
            self._atomic_values: dict[int, Any] = {}
        else:
            self.instances = {
                c: make_broadcast(
                    broadcast, n, f, c, pid,
                    scheme=scheme if broadcast == "dolev-strong" else None,
                )
                for c in range(n)
            }
        #: Received tag -> machine, under the spelling ``broadcast_tag``
        #: produces (``on_round`` parses any other).
        self._by_tag = {broadcast_tag(c): st for c, st in self.instances.items()}
        self.multiset: Optional[list[Any]] = None
        self.defaulted_senders: list[int] = []

    # ------------------------------------------------------------- template
    def on_round(self, ctx: Context, round: int, inbox: Inbox) -> None:
        if self.broadcast == "atomic":
            self._on_round_atomic(ctx, round, inbox)
            return
        # 1. feed deliveries into the per-commander broadcast machines
        by_tag = self._by_tag
        for src, entries in inbox.items():
            for tag, payload in entries:
                if not tag.startswith("bc:"):
                    continue
                state = by_tag.get(tag)
                if state is None:
                    # Not the canonical spelling ("bc:07"), or no instance.
                    try:
                        instance = int(tag.split(":", 1)[1])
                    except ValueError:
                        continue
                    if not 0 <= instance < self.n:
                        continue
                    state = self.instances[instance]
                state.receive(round, src, payload)

        # 2. emit this round's protocol messages for every instance
        if round <= self.f:
            for instance, state in self.instances.items():
                own = self._own_value if instance == self.pid else None
                tag = broadcast_tag(instance)
                for dst, payload in state.messages_for_round(round, own):
                    ctx.send(dst, tag, payload, round=round)
            return

        # 3. final round: extract the agreed multiset and decide
        if round == self.f + 1 and self.multiset is None:
            raw = [self.instances[c].decide() for c in range(self.n)]
            self.multiset = self._resolve_defaults(raw)
            S = np.array(self.multiset, dtype=float)
            self.decide_from_multiset(ctx, S)

    def _on_round_atomic(self, ctx: Context, round: int, inbox: Inbox) -> None:
        """Footnote-3 path: the channel is itself a reliable broadcast.

        Round 0: atomically broadcast the input.  Round 1: every process
        has received the identical per-sender values (equivocation is
        physically impossible); missing/malformed senders are defaulted.
        """
        if round == 0:
            ctx.atomic_broadcast("abc", self._own_value, round=0)
            return
        if round == 1 and self.multiset is None:
            for src, entries in inbox.items():
                for tag, payload in entries:
                    if tag == "abc" and src not in self._atomic_values:
                        self._atomic_values[src] = payload
            raw = [self._atomic_values.get(c) for c in range(self.n)]
            self.multiset = self._resolve_defaults(raw)
            S = np.array(self.multiset, dtype=float)
            self.decide_from_multiset(ctx, S)

    def _resolve_defaults(self, raw: list[Any]) -> list[tuple[float, ...]]:
        """Replace default (provably-faulty) entries deterministically."""

        def well_formed(v: Any) -> bool:
            return (
                isinstance(v, tuple)
                and len(v) == self.d
                and all(isinstance(x, float) and math.isfinite(x) for x in v)
            )

        valid = [v for v in raw if well_formed(v)]
        if not valid:
            raise RuntimeError(
                "all broadcasts resolved to the default — more than f faults?"
            )
        substitute = valid[0]
        out = []
        for sender, v in enumerate(raw):
            if well_formed(v):
                out.append(v)
            else:
                self.defaulted_senders.append(sender)
                out.append(substitute)
        return out

    # ------------------------------------------------------------------ hook
    @abstractmethod
    def decide_from_multiset(self, ctx: Context, S: np.ndarray) -> None:
        """Step 2: decide from the agreed ``(n, d)`` multiset ``S``.

        Called exactly once, at round ``f + 1``, with the same ``S`` at
        every correct process (broadcast agreement).  Implementations call
        ``ctx.decide(...)``.
        """
