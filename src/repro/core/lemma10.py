"""Lemma 10 (Appendix A), executable: input-dependent (δ,p)-consensus is
impossible with ``n <= 3f``.

The proof is the classic Fischer–Lynch–Merritt ring argument: take any
3-process algorithm for ``n = 3, f = 1`` and wire *six* copies of its
process code into a ring

    ... — r1 — p0 — q0 — r0 — p1 — q1 — (r1) ...

where ``p0, q0, r0`` start with input ``0^d`` and ``p1, q1, r1`` with
``1^d``.  Every node runs the unmodified 3-process code; the ring routes
its "to q"/"to r" messages to the adjacent copy of that role.  Then:

* to the pair ``(p0, q0)``, the execution is indistinguishable from a
  3-process run where ``r`` is Byzantine and ``p, q`` both hold ``0^d``
  (scenario B) — with inputs all-0 the input-dependent δ is 0, so
  validity forces them to decide ``0^d``;
* symmetrically ``(p1, q1)`` must decide ``1^d`` (scenario B');
* but to the adjacent pair ``(p0, r1)`` the execution is also a
  3-process run where ``q`` is Byzantine (scenario C) — so agreement
  forces ``p0`` and ``r1`` to decide the *same* value.  Contradiction.

Because the argument quantifies over all algorithms, no simulation can
"prove" it for every algorithm — but it can *execute* it for any concrete
one: :func:`run_ring` builds the six-copy system for a supplied 3-process
protocol, and :func:`lemma10_demo` reports the decisions of ``p0`` and
``r1``, whose disagreement (for any protocol satisfying the two
scenario-B validity obligations) is exactly the contradiction.

The module ships :class:`NaiveAveragingProcess` — a plausible 3-process
"consensus" that satisfies scenario-B validity — so the violation is
observable out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..system.process import Context, Inbox, Node, SyncProcess

__all__ = ["NaiveAveragingProcess", "RingResult", "run_ring", "lemma10_demo"]

# Role indices inside the 3-process protocol.
P, Q, R = 0, 1, 2

#: Ring layout: (role, copy) per node, adjacency = consecutive (cyclic).
RING = [(R, 1), (P, 0), (Q, 0), (R, 0), (P, 1), (Q, 1)]


class NaiveAveragingProcess(SyncProcess):
    """A natural — and by Lemma 10 necessarily broken — 3-process protocol.

    Round 0: broadcast the input.  Round 1: decide the average of the
    three values seen (own + two neighbours; a missing value is replaced
    by one's own).  It satisfies the scenario-B validity obligation (all
    inputs equal ⇒ decide that input), which is all the ring argument
    needs to exhibit the agreement violation.
    """

    def __init__(self, input_value: np.ndarray):
        self.input_value = np.asarray(input_value, dtype=float).ravel()

    def on_round(self, ctx: Context, round: int, inbox: Inbox) -> None:
        if round == 0:
            ctx.broadcast("val", tuple(self.input_value), round=0)
            return
        values = [self.input_value]
        for src in sorted(inbox):
            for tag, payload in inbox[src]:
                if tag == "val" and src != ctx.pid:
                    values.append(np.asarray(payload, dtype=float))
        while len(values) < 3:
            values.append(self.input_value)
        ctx.decide(np.mean(values[:3], axis=0))


@dataclass
class RingResult:
    """Decisions of all six ring nodes, keyed by (role, copy)."""

    decisions: dict[tuple[int, int], np.ndarray]

    @property
    def p0(self) -> np.ndarray:
        return self.decisions[(P, 0)]

    @property
    def r1(self) -> np.ndarray:
        return self.decisions[(R, 1)]

    def agreement_violation(self) -> float:
        """``‖p0 − r1‖∞`` — positive means scenario C's agreement breaks."""
        return float(np.max(np.abs(self.p0 - self.r1)))


def run_ring(
    protocol_factory: Callable[[np.ndarray], SyncProcess],
    d: int = 1,
    *,
    zero: Optional[np.ndarray] = None,
    one: Optional[np.ndarray] = None,
    max_rounds: int = 64,
) -> RingResult:
    """Execute six copies of a 3-process protocol on the Lemma-10 ring.

    Each node runs ``protocol_factory(input)`` believing it is role
    ``p``/``q``/``r`` of a 3-process system; the ring remaps each
    role-addressed message to the adjacent node carrying that role.
    """
    zero = np.zeros(d) if zero is None else np.asarray(zero, dtype=float)
    one = np.ones(d) if one is None else np.asarray(one, dtype=float)

    nodes = [
        Node(role, protocol_factory(one if copy == 1 else zero),
             Context(role, 3, 1, np.random.default_rng(0)))
        for role, copy in RING
    ]

    n_ring = len(RING)

    def neighbour_with_role(i: int, role: int) -> Optional[int]:
        for j in (i - 1, i + 1):
            if RING[j % n_ring][0] == role:
                return j % n_ring
        return None

    inboxes: list[dict[int, list]] = [dict() for _ in range(n_ring)]
    for r in range(max_rounds):
        round_msgs: list[tuple[int, int, str, object]] = []
        for i, node in enumerate(nodes):
            # A decided copy stays silent; every other copy acts each round.
            if node.ctx.decided:
                continue
            for msg in node.round(r, inboxes[i]):
                tgt = i if msg.dst == node.pid else neighbour_with_role(i, msg.dst)
                if tgt is not None:
                    round_msgs.append((i, tgt, msg.tag, msg.payload))
        inboxes = [dict() for _ in range(n_ring)]
        for src_i, dst_i, tag, payload in round_msgs:
            src_role = RING[src_i][0]
            inboxes[dst_i].setdefault(src_role, []).append((tag, payload))
        if all(node.ctx.decided for node in nodes):
            break

    decisions = {
        RING[i]: np.asarray(node.ctx.decision, dtype=float)
        for i, node in enumerate(nodes)
        if node.ctx.decided
    }
    return RingResult(decisions)


def lemma10_demo(d: int = 2) -> RingResult:
    """Run the ring with the naive protocol and return the contradiction.

    In the returned result, scenario-B indistinguishability forces
    ``p0 -> 0^d`` and ``r1 -> 1^d`` for any protocol meeting its validity
    obligations; scenario C demands they agree.  The naive protocol's
    :meth:`RingResult.agreement_violation` is therefore strictly positive
    — the executable content of Lemma 10.
    """
    return run_ring(NaiveAveragingProcess, d=d)
