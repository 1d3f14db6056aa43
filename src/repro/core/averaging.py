"""Relaxed Verified Averaging — asynchronous (δ,p)-relaxed approximate BVC
(paper §10), plus the δ = 0 baseline (Verified Averaging / safe-area
averaging in the Mendes–Herlihy regime ``n >= (d+2)f + 1``).

Structure (paper Definition 12, on top of Verified Averaging [15]):

* **Round 0**: every process reliably broadcasts its input (Bracha RBC —
  the paper's reference [4]; hence the ``n >= 3f + 1`` floor).
* **Round 1** (the paper's ``H_{(δ,p)}(V, 0)`` step): upon verifying
  ``n - f`` round-0 values ``X``, a process deterministically picks a
  point of ``∩_{C ⊆ X, |C| = |X| - f} H_{(δ,p)}(C)`` — here, the smallest
  feasible δ via the certified :func:`~repro.geometry.minimax.delta_star`
  solver (or δ = 0 via ``Γ(X)`` in the baseline mode).
* **Rounds t >= 2** (the paper's ``t > 0`` step): average of ``n - f``
  verified round ``t-1`` values.

**Verification.**  A round ``t >= 1`` claim does not carry a value at all:
it carries the *reference list* — the ``n - f`` sender ids whose round
``t-1`` values it aggregates.  Every correct process recomputes the value
from the references, so a Byzantine process's only freedom is its choice
of references (exactly the freedom the algorithm grants everyone); it can
never inject an unjustified vector into the averaging.  This is the
standard simulation of Tseng–Vaidya's verified-averaging machinery: it
preserves the two properties Theorem 15 argues about —

* *(δ,p)-validity*: a round-1 point is within δ of the hull of any
  ``|X| - f`` of its references' inputs; since at most ``f`` references
  are faulty, it is within δ of the hull of honest inputs.  Later rounds
  only take convex combinations.
* *ε-agreement*: any two verified round-``t`` values average ``n - f``
  of the *same* at-most-``n`` verified round ``t-1`` values (RBC
  agreement), hence share at least ``n - 2f`` terms, giving per-round
  coordinate-range contraction by ``ρ = f / (n - f) < 1/2``
  (:func:`contraction_factor`, :func:`rounds_for_epsilon`).

RBC totality guarantees liveness: a correct process's references were
delivered at that process, so they are eventually delivered — and
therefore verifiable — everywhere.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Any, Optional, Sequence, Union

import numpy as np

from .bounds import averaging_quorum
from ..geometry.intersections import gamma_delta_p_point, gamma_point
from ..geometry.minimax import delta_star
from ..geometry.tolerance import near_zero
from ..obs.causal import note_decision, note_iteration
from ..obs.tracer import trace_event, trace_span
from ..system.broadcast.interface import make_broadcast
from ..system.process import AsyncProcess, Context

__all__ = [
    "VerifiedAveragingProcess",
    "contraction_factor",
    "rounds_for_epsilon",
    "rb_tag",
]

PNorm = Union[float, int]


def contraction_factor(n: int, f: int) -> float:
    """Per-round coordinate-range contraction ``ρ = f / (n - f)``.

    With ``n >= 3f + 1`` this is at most ``f / (2f + 1) < 1/2``.  ``f = 0``
    gives ρ = 0: one averaging round suffices.
    """
    if not 0 <= f < n:
        raise ValueError(f"need 0 <= f < n, got n={n}, f={f}")
    return f / (n - f)


def rounds_for_epsilon(initial_range: float, n: int, f: int, epsilon: float) -> int:
    """Total rounds ``T`` so round-T values are ε-agreed.

    ``initial_range`` must upper-bound the coordinate range of the
    *round-1* values (e.g. coordinate range of all inputs plus ``2 δ``).
    Returns at least 2 (one selection round + one averaging round).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if initial_range <= epsilon:
        return 2
    rho = contraction_factor(n, f)
    if near_zero(rho):
        return 2
    needed = math.ceil(math.log(initial_range / epsilon) / math.log(1.0 / rho))
    return 1 + max(1, needed)


#: Cross-process memo of every round's claim value, keyed by the bytes of
#: the referenced values (see _round_value and _select_round1).  Cached
#: arrays are read-only: every process that verifies a claim shares one.
_SELECT_CACHE: dict = {}
_SELECT_CACHE_MAX = 4096


def rb_tag(sender: int, round: int) -> str:
    """Network tag of the reliable-broadcast instance ``(sender, round)``."""
    return f"rva:{sender}:{round}"


def _memo_key(rows: Sequence[np.ndarray]) -> tuple[int, bytes]:
    """Key of the claim value over ``rows``: their count and their bytes."""
    return len(rows), b"".join(v.tobytes() for v in rows)


def _remember(key: tuple, value: np.ndarray, *extra: Any) -> tuple:
    """Store ``(value, *extra)`` under ``key``, with ``value`` made read-only."""
    value.flags.writeable = False
    if len(_SELECT_CACHE) > _SELECT_CACHE_MAX:
        _SELECT_CACHE.clear()
    _SELECT_CACHE[key] = entry = (value, *extra)
    return entry


class VerifiedAveragingProcess(AsyncProcess):
    """One process of the Relaxed Verified Averaging algorithm.

    Parameters
    ----------
    n, f, pid:
        System parameters and this process's id.
    input_value:
        The ``d``-dimensional input.
    num_rounds:
        Total rounds ``T >= 1`` (selection round + ``T - 1`` averaging
        rounds); compute from ε via :func:`rounds_for_epsilon`.
    mode:
        ``"optimal"`` — round-1 selection with the smallest feasible δ
        (the paper's §10 algorithm); ``"zero"`` — δ = 0, i.e. classic
        verified averaging, needing ``n >= (d+2)f + 1``; ``"fixed"`` — a
        caller-supplied constant ``delta``.
    p:
        Norm of the (δ,p) relaxation.
    """

    def __init__(
        self,
        n: int,
        f: int,
        pid: int,
        input_value: np.ndarray,
        *,
        num_rounds: int,
        mode: str = "optimal",
        delta: float = 0.0,
        p: PNorm = 2,
    ):
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if mode not in ("optimal", "zero", "fixed"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n, self.f, self.pid = n, f, pid
        self.input_value = np.asarray(input_value, dtype=float).ravel()
        self.d = self.input_value.size
        self.num_rounds = int(num_rounds)
        self.mode = mode
        self.delta = float(delta)
        self.p = p
        self.quorum = averaging_quorum(n, f)

        #: wire tag -> ((sender, round), Bracha RBC machine via
        #: make_broadcast), under rb_tag's spelling of the tag only
        self._rb: dict[str, tuple[tuple[int, int], Any]] = {}
        self._delivered: dict[tuple[int, int], Any] = {}
        #: (sender, round) -> verified value vector
        self.verified: dict[tuple[int, int], np.ndarray] = {}
        #: round -> sorted senders whose claim of that round is verified
        self._ready: dict[int, list[int]] = {}
        #: claims delivered but not yet verifiable (waiting on references)
        self._pending: dict[tuple[int, int], tuple[int, ...]] = {}
        self.current_round = 0  # highest round we have broadcast
        self.my_values: dict[int, np.ndarray] = {0: self.input_value.copy()}
        self.delta_used: Optional[float] = None
        #: δ of the most recent round-1 selection (cache bookkeeping).
        self._claim_delta: Optional[float] = None

    # --------------------------------------------------------------- helpers
    def _machine(self, sender: int, round: int) -> Any:
        tag = rb_tag(sender, round)
        entry = self._rb.get(tag)
        if entry is None:
            entry = self._rb[tag] = (
                (sender, round),
                make_broadcast("bracha", self.n, self.f, sender, self.pid),
            )
        return entry[1]

    def _instance_of(self, tag: str) -> Optional[tuple[int, int]]:
        """``(sender, round)`` named by a delivery's tag, which the door
        has parsed; None for a tag not ours or past the last round."""
        parts = tag.split(":")
        if parts[0] != "rva" or int(parts[2]) > self.num_rounds:
            return None  # cap instance creation against Byzantine tag spam
        return int(parts[1]), int(parts[2])

    def _rb_send(
        self,
        ctx: Context,
        sender: int,
        round: int,
        payloads: list[tuple[str, Any]],
    ) -> None:
        tag = rb_tag(sender, round)
        for payload in payloads:
            ctx.broadcast(tag, payload)

    # ------------------------------------------------------------ lifecycle
    def on_start(self, ctx: Context) -> None:
        value = tuple(float(x) for x in self.input_value)
        self._rb_send(ctx, self.pid, 0, self._machine(self.pid, 0).start(("val", value)))

    def on_stop(self, ctx: Context) -> None:
        for _, machine in self._rb.values():
            machine.publish_counts()

    def on_message(self, ctx: Context, src: int, tag: str, payload: Any) -> None:
        # A hosted instance is found by the tag it was opened under; only
        # a tag not seen before (or not in rb_tag's spelling) is parsed.
        entry = self._rb.get(tag)
        if entry is None:
            key = self._instance_of(tag)
            if key is None:
                return
            machine = self._machine(*key)
        else:
            key, machine = entry
        out = machine.on_message(src, payload)
        if out:
            self._rb_send(ctx, key[0], key[1], out)
        if machine.delivered and key not in self._delivered:
            self._delivered[key] = machine.delivered_value
            self._ingest(key, machine.delivered_value)
            self._progress(ctx)

    # ---------------------------------------------------------- verification
    def _ingest(self, key: tuple[int, int], payload: Any) -> None:
        """Verify a round-0 claim now, queue a later one on its refs (shape: the door's)."""
        if key[1] == 0:
            self.verified[key] = np.asarray(payload[1], dtype=float)
            insort(self._ready.setdefault(0, []), key[0])
        else:
            self._pending[key] = payload[1]

    def _round_value(self, round: int, refs: tuple[int, ...]) -> np.ndarray:
        """Deterministic, read-only value of a round ``round >= 1`` claim.

        Round 1 applies the (δ,p) selection to the referenced inputs;
        later rounds average the referenced previous-round values.
        Identical at every correct process — that is the verification —
        so the average is memoised across process objects by the bytes of
        the referenced values: the simulation averages each distinct
        claim once per run, not once per process.
        """
        rows = [self.verified[(r, round - 1)] for r in refs]
        if round == 1:
            return self._select_round1(rows)
        key = _memo_key(rows)
        cached = _SELECT_CACHE.get(key)
        if cached is None:
            cached = _remember(key, np.stack(rows).mean(axis=0))
        return cached[0]

    def _note_delta(self, value: float) -> None:
        """Fold one verified round-1 claim's δ into :attr:`delta_used`.

        The validity guarantee quantifies over *every* round-1 value that
        enters the averaging — including verified claims from Byzantine
        senders, whose reference sets may force a larger δ than this
        process's own selection.  ``delta_used`` is therefore the running
        max over all round-1 selections this process verified, so the
        checker's ``max`` over correct processes bounds every value any
        decision averaged in.
        """
        self.delta_used = (
            value if self.delta_used is None else max(self.delta_used, value)
        )

    def _select_round1(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Read-only round-1 selection over ``rows`` (the referenced inputs).

        Every correct process recomputes the same deterministic selection
        for the same reference set; it is memoised across process objects,
        under :func:`_memo_key` of the rows and this process's relaxation,
        so the simulation does the convex optimisation once per distinct
        claim and stacks the rows only then.
        """
        key = (self.mode, self.delta, self.p, self.f, *_memo_key(rows))
        cached = _SELECT_CACHE.get(key)
        if cached is not None:
            self._note_delta(cached[1])
            return cached[0]
        with trace_span("averaging.select"):
            point = self._select_round1_uncached(np.stack(rows))
        return _remember(key, point.copy(), self._claim_delta)[0]

    def _select_round1_uncached(self, X: np.ndarray) -> np.ndarray:
        if self.mode == "zero":
            point = gamma_point(X, self.f)
            if point is None:
                raise RuntimeError(
                    f"Γ(X) empty with |X|={X.shape[0]}, d={self.d}, f={self.f}: "
                    "δ=0 averaging requires n >= (d+2)f+1 (Theorem 2)"
                )
            self._claim_delta = 0.0
            self._note_delta(0.0)
            return point
        if self.mode == "fixed":
            point = gamma_delta_p_point(X, self.f, self.delta, self.p)
            if point is None:
                raise RuntimeError(
                    f"Γ_(δ,p)(X) empty for fixed δ={self.delta}: the chosen "
                    "constant relaxation is below δ*(X) (cf. Theorem 6)"
                )
            self._claim_delta = self.delta
            self._note_delta(self.delta)
            return point
        result = delta_star(X, self.f, p=self.p)
        self._claim_delta = result.value
        self._note_delta(result.value)
        return result.point

    def _progress(self, ctx: Context) -> None:
        """Cascade verification, advance our round, decide when done."""
        changed = True
        while changed:
            changed = False
            for key, refs in list(self._pending.items()):
                sender, round = key
                if all((r, round - 1) in self.verified for r in refs):
                    self.verified[key] = self._round_value(round, refs)
                    insort(self._ready.setdefault(round, []), sender)
                    del self._pending[key]
                    changed = True

            # Advance our own round when enough verified values exist.
            while self.current_round < self.num_rounds:
                t = self.current_round
                ready = self._ready.get(t, ())
                if len(ready) < self.quorum:
                    break
                refs = tuple(ready[: self.quorum])
                next_round = t + 1
                self.my_values[next_round] = self._round_value(next_round, refs)
                note_iteration(self.pid, round=next_round, refs=refs)
                self._rb_send(
                    ctx,
                    self.pid,
                    next_round,
                    self._machine(self.pid, next_round).start(("refs", refs)),
                )
                self.current_round = next_round
                changed = True

        if (
            not ctx.decided
            and self.current_round == self.num_rounds
            and self.num_rounds in self.my_values
        ):
            ctx.decide(self.my_values[self.num_rounds].copy())
            note_decision(self.pid, round=self.num_rounds,
                          delta_used=self.delta_used)
            trace_event("core.averaging.decide", pid=self.pid,
                        rounds=self.num_rounds, delta_used=self.delta_used)
