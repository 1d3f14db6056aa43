"""Iterative Byzantine vector consensus in incomplete graphs.

The paper's related work (§2) cites Vaidya (ICDCN 2014): "a necessary
condition and a sufficient condition for iterative Byzantine vector
consensus were derived ... however, there is a gap between these
necessary and sufficient conditions."  This module implements the
iterative *algorithm* family those conditions analyse — the natural
companion system to the paper's full-information algorithms, and the one
that makes sense on sparse topologies:

* every round, each process sends its current **state vector** to its
  graph neighbours only (no relaying, no exponential information
  gathering);
* on receipt, it forms the multiset ``M`` of its own value plus its
  neighbours' values and moves to a point of

      ``Γ(M) = ∩_{T ⊆ M, |T| = |M| - f} H(T)``

  mixed with its own value: ``v ← (1 - α)·v + α·γ(M)``.  Any point of
  ``Γ(M)`` is in the convex hull of the *honest* values in ``M``
  whichever ``f`` neighbours are faulty, so validity is preserved by
  induction, and the self-mixing (``α < 1``) yields the contraction that
  drives ε-agreement on connected graphs.

Liveness of the update needs ``|M| ≥ (d+1)f + 1`` (Tverberg), i.e. the
*local* degree condition ``deg + 1 ≥ (d+1)f + 1`` — the sufficient side
of the story; :meth:`repro.system.topology.Topology.supports_iterative_bvc`
checks it.  When ``Γ(M)`` is empty (degree too low), the process holds
its value for that round — safety is never traded for progress.

This is a *reproduction of the cited companion system*, not of a claim in
the present paper; EXPERIMENTS.md marks it as an extension.
"""

from __future__ import annotations


import numpy as np

from ..geometry.intersections import gamma_point
from ..obs.tracer import trace_span
from ..system.process import Context, Inbox, SyncProcess
from ..system.topology import Topology

__all__ = ["IterativeBVCProcess", "iterative_update"]


def iterative_update(
    own: np.ndarray,
    neighbour_values: list[np.ndarray],
    f: int,
    *,
    alpha: float = 0.5,
) -> np.ndarray:
    """One iterative-consensus step from a neighbourhood multiset.

    Returns ``(1-α)·own + α·γ(M)`` where ``M = {own} ∪ neighbour_values``
    and ``γ`` is the deterministic point of ``Γ(M)``; returns ``own``
    unchanged when ``Γ(M)`` is empty (insufficient degree) — a safe
    stall, never an unsafe move.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    with trace_span("iterative.update"):
        M = np.vstack([own[None, :]] + [v[None, :] for v in neighbour_values])
        point = gamma_point(M, f)
        if point is None:
            return own.copy()
        return (1.0 - alpha) * own + alpha * point


class IterativeBVCProcess(SyncProcess):
    """One process of iterative approximate BVC on a topology.

    Parameters
    ----------
    n, f, pid:
        System parameters.
    input_value:
        Initial state (the input vector).
    topology:
        The communication graph (only neighbours are addressed).
    num_rounds:
        Iterations before deciding the current state.
    alpha:
        Mixing weight toward the Γ-point (1.0 = jump fully).
    """

    def __init__(
        self,
        n: int,
        f: int,
        pid: int,
        input_value: np.ndarray,
        *,
        topology: Topology,
        num_rounds: int,
        alpha: float = 0.5,
    ):
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        self.n, self.f, self.pid = n, f, pid
        self.topology = topology
        self.num_rounds = int(num_rounds)
        self.alpha = float(alpha)
        self.value = np.asarray(input_value, dtype=float).ravel().copy()
        self.d = self.value.size
        self.history: list[np.ndarray] = [self.value.copy()]
        self.stalled_rounds = 0

    def _send_state(self, ctx: Context, round: int) -> None:
        payload = tuple(float(x) for x in self.value)
        for nbr in self.topology.neighbors(self.pid):
            ctx.send(nbr, "iter", payload, round=round)

    def on_round(self, ctx: Context, round: int, inbox: Inbox) -> None:
        if round == 0:
            self._send_state(ctx, round)
            return
        received: list[np.ndarray] = []
        for src, entries in inbox.items():
            if src == self.pid:
                continue
            for tag, payload in entries:
                if tag == "iter":  # d finite floats: the door checked
                    received.append(np.asarray(payload, dtype=float))
                    break  # one state per neighbour per round
        new_value = iterative_update(
            self.value, received, self.f, alpha=self.alpha
        )
        if np.array_equal(new_value, self.value) and received:
            self.stalled_rounds += 1
        self.value = new_value
        self.history.append(self.value.copy())
        if round >= self.num_rounds:
            ctx.decide(self.value.copy())
            return
        self._send_state(ctx, round)
