"""Scenario DSL: declarative fault scripts and delivery-schedule scripts.

A :class:`Scenario` is a *plain-data* description of one adversarial
execution — algorithm, system shape, input seed, a **fault script** (who
is Byzantine, doing what, during which window) and a **schedule script**
(how the asynchronous adversary orders deliveries).  Plain data is the
point: scenarios serialise to JSON, round-trip through compact replay
tokens (:mod:`repro.dst.corpus`), and shrink structurally
(:mod:`repro.dst.shrink`), which a closure-based fault description could
never do.

The fault script composes the behaviours the paper's proofs quantify
over: crash-then-recover (a ``silent`` clause with a finite window),
strategy switches mid-run (consecutive clauses for the same pid),
targeted drops, duplication storms, and equivocation — all layered onto
:class:`~repro.system.adversary.ByzantineStrategy` via
:class:`ScriptedStrategy`.  The schedule script drives the async
scheduler's adversarial ordering hook (:class:`ScenarioPolicy`): healing
partitions, targeted delay windows, reorder/FIFO windows.  Both stay
within the model — channels are reliable, schedules eventually fair — so
a surviving invariant violation is a real counterexample, not an
artefact of breaking the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..core.runspec import derive_inputs
from ..exec.grid import min_trial_size
from ..system.adversary import (
    Adversary,
    AdversaryView,
    ByzantineStrategy,
    DuplicateStrategy,
    EquivocateStrategy,
    HonestStrategy,
    MutateStrategy,
    SilentStrategy,
    perturb_payload,
)
from ..system.messages import Message
from ..system.network import Network
from ..system.scheduler import DeliveryPolicy, FifoPolicy, LinkDraw, RandomPolicy

__all__ = [
    "FAULT_KINDS",
    "WINDOW_KINDS",
    "FaultClause",
    "ScheduleWindow",
    "Scenario",
    "ScriptedStrategy",
    "ScenarioPolicy",
    "adversary_from_clauses",
    "build_adversary",
    "build_policy",
    "min_system_size",
]

#: Fault-clause kinds understood by :class:`ScriptedStrategy`.
FAULT_KINDS = ("honest", "silent", "mutate", "equivocate", "duplicate", "drop")

#: Schedule-window kinds understood by :class:`ScenarioPolicy`.
WINDOW_KINDS = ("partition", "delay", "fifo", "reorder")

#: The algorithms a scenario can name ("k1": k-relaxed consensus at k = 1).
_ALGORITHMS = ("exact", "algo", "k1", "averaging")


@dataclass(frozen=True)
class FaultClause:
    """One windowed behaviour of one faulty process.

    ``start``/``end`` delimit a half-open time window: synchronous rounds
    for sync executions, activation count (outbox flushes) for async ones.
    ``end=None`` means "until the run ends".  Outside every clause window
    the process behaves honestly, so ``silent`` with a finite window *is*
    crash-then-recover, and two consecutive clauses are a mid-run strategy
    switch.

    ``param`` is the kind's knob: noise scale for ``mutate``/
    ``equivocate``, copy count for ``duplicate``, drop probability for
    ``drop``; ignored otherwise.
    """

    pid: int
    kind: str = "silent"
    start: int = 0
    end: Optional[int] = None
    param: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choices {FAULT_KINDS}")
        if self.pid < 0:
            raise ValueError(f"pid must be >= 0, got {self.pid}")
        if self.start < 0 or (self.end is not None and self.end <= self.start):
            raise ValueError(f"bad window [{self.start}, {self.end})")

    def active_at(self, t: int) -> bool:
        return self.start <= t and (self.end is None or t < self.end)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultClause":
        return cls(
            pid=int(d["pid"]),
            kind=str(d.get("kind", "silent")),
            start=int(d.get("start", 0)),
            end=None if d.get("end") is None else int(d["end"]),
            param=float(d.get("param", 1.0)),
        )


@dataclass(frozen=True)
class ScheduleWindow:
    """One windowed delivery-ordering regime (async executions only).

    ``[start, end)`` counts delivery steps.  ``partition`` starves links
    that cross ``groups`` (the partition *heals* when the window closes —
    and, to keep the schedule legal, is forced open early if only
    cross-partition traffic remains).  ``delay`` starves messages *to*
    ``victims``.  ``fifo`` delivers globally oldest-first; ``reorder`` is
    seeded-uniform over pending links (the explorer's default outside any
    window too).
    """

    kind: str = "delay"
    start: int = 0
    end: int = 100
    groups: tuple[tuple[int, ...], ...] = ()
    victims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; choices {WINDOW_KINDS}")
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad window [{self.start}, {self.end})")
        if self.kind == "partition" and len(self.groups) < 2:
            raise ValueError("partition window needs >= 2 groups")
        if self.kind == "delay" and not self.victims:
            raise ValueError("delay window needs victims")

    def active_at(self, step: int) -> bool:
        return self.start <= step < self.end

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "groups": [list(g) for g in self.groups],
            "victims": list(self.victims),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScheduleWindow":
        return cls(
            kind=str(d.get("kind", "delay")),
            start=int(d.get("start", 0)),
            end=int(d.get("end", 100)),
            groups=tuple(tuple(int(p) for p in g) for g in d.get("groups", ())),
            victims=tuple(int(v) for v in d.get("victims", ())),
        )


def min_system_size(algorithm: str, d: int, f: int) -> int:
    """Smallest legal n for running ``algorithm`` at dimension d with f
    faults: the sweep grid's floor
    (:func:`repro.exec.grid.min_trial_size`), where the explorer's
    ``"k1"`` is k-relaxed consensus at k = 1."""
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return min_trial_size("krelaxed" if algorithm == "k1" else algorithm, d, f)


@dataclass(frozen=True)
class Scenario:
    """One fully-specified adversarial execution, as plain data.

    Everything an execution needs is derived deterministically from these
    fields: inputs are :func:`~repro.core.runspec.derive_inputs` of them
    and the same seed drives the scheduler, so a scenario *is* its own
    replay token (see :func:`repro.dst.corpus.encode_token`).

    ``inject`` names an outcome-level bug injection from
    :data:`repro.dst.injections.INJECTIONS` — a deliberately broken
    post-processing step used to demo and test the fuzz → shrink → replay
    loop without breaking a real algorithm.
    """

    algorithm: str
    n: int
    d: int
    f: int
    seed: int
    input_scale: float = 3.0
    faults: tuple[FaultClause, ...] = ()
    schedule: tuple[ScheduleWindow, ...] = ()
    inject: Optional[str] = None

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ``ValueError`` when the scenario cannot be executed."""
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        floor = min_system_size(self.algorithm, self.d, self.f)
        if self.n < floor:
            raise ValueError(
                f"{self.algorithm} at d={self.d}, f={self.f} needs n >= {floor}, "
                f"got n={self.n}"
            )
        pids = self.faulty_pids()
        if len(pids) > self.f:
            raise ValueError(f"fault script corrupts {len(pids)} > f={self.f} processes")
        for pid in pids:
            if pid >= self.n:
                raise ValueError(f"fault clause pid {pid} out of range for n={self.n}")
        if self.schedule and self.algorithm != "averaging":
            raise ValueError(
                "schedule windows only apply to the asynchronous algorithm "
                "('averaging'); synchronous rounds deliver in lockstep"
            )
        for w in self.schedule:
            for p in (pid for g in w.groups for pid in g) or ():
                if p >= self.n:
                    raise ValueError(f"partition group pid {p} out of range")
            for v in w.victims:
                if v >= self.n:
                    raise ValueError(f"delay victim {v} out of range")

    def faulty_pids(self) -> tuple[int, ...]:
        return tuple(sorted({c.pid for c in self.faults}))

    def inputs(self) -> np.ndarray:
        """The deterministic input matrix this scenario runs on."""
        return derive_inputs(self.seed, self.input_scale, self.n, self.d)

    def strategy_label(self) -> str:
        """Primary fault kind, for humans ('honest' when no script)."""
        if not self.faults:
            return "honest"
        kinds = [c.kind for c in self.faults]
        return max(set(kinds), key=kinds.count)

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "d": self.d,
            "f": self.f,
            "seed": self.seed,
            "input_scale": self.input_scale,
            "faults": [c.to_dict() for c in self.faults],
            "schedule": [w.to_dict() for w in self.schedule],
            "inject": self.inject,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Scenario":
        scen = cls(
            algorithm=str(d["algorithm"]),
            n=int(d["n"]),
            d=int(d["d"]),
            f=int(d["f"]),
            seed=int(d["seed"]),
            input_scale=float(d.get("input_scale", 3.0)),
            faults=tuple(FaultClause.from_dict(c) for c in d.get("faults", ())),
            schedule=tuple(ScheduleWindow.from_dict(w) for w in d.get("schedule", ())),
            inject=d.get("inject"),
        )
        scen.validate()
        return scen


# ---------------------------------------------------------------------------
# fault script -> ByzantineStrategy
# ---------------------------------------------------------------------------


def _clause_strategy(clause: FaultClause) -> ByzantineStrategy:
    """The stationary strategy a clause applies while active."""
    if clause.kind == "honest":
        return HonestStrategy()
    if clause.kind == "silent":
        return SilentStrategy()
    if clause.kind == "duplicate":
        return DuplicateStrategy(max(2, int(clause.param)))
    scale = clause.param
    if clause.kind == "mutate":
        return MutateStrategy(lambda tag, p, r: perturb_payload(p, r, scale))
    if clause.kind == "equivocate":
        return EquivocateStrategy(
            lambda tag, p, dst, r: perturb_payload(p, r, scale)
        )
    assert clause.kind == "drop"
    return SilentStrategy()  # drop is probabilistic; handled in transform


class ScriptedStrategy(ByzantineStrategy):
    """Plays a fault script: per-window behaviours with honest gaps.

    Time is the synchronous round when the scheduler provides one
    (``view.round``); in asynchronous executions it is this process's
    activation count — each outbox flush advances the clock by one, which
    is deterministic under a fixed delivery schedule.  The *last* clause
    whose window covers the current time wins, so later clauses override
    earlier ones (a strategy switch mid-run).
    """

    def __init__(self, clauses: Sequence[FaultClause]) -> None:
        self.clauses = tuple(clauses)
        self._strategies = [_clause_strategy(c) for c in self.clauses]
        self._activations = 0
        self._last_seen_time: Optional[int] = None

    def _now(self, view: AdversaryView) -> int:
        if view.round is not None:
            return view.round
        return self._activations

    def _active(self, t: int) -> Optional[tuple[FaultClause, ByzantineStrategy]]:
        hit = None
        for clause, strat in zip(self.clauses, self._strategies):
            if clause.active_at(t):
                hit = (clause, strat)
        return hit

    def transform(self, msg: Message, view: AdversaryView) -> list[Message]:
        t = self._now(view)
        self._last_seen_time = t
        hit = self._active(t)
        if hit is None:
            return [msg]
        clause, strat = hit
        if clause.kind == "drop":
            return [] if view.rng.random() < clause.param else [msg]
        return strat.transform(msg, view)

    def inject(self, pid: int, view: AdversaryView) -> list[Message]:
        # Advance the async activation clock once per flush (inject is
        # called exactly once per transform_outbox call).
        if view.round is None:
            self._activations += 1
        hit = self._active(self._last_seen_time if self._last_seen_time is not None
                           else self._now(view))
        if hit is None:
            return []
        return hit[1].inject(pid, view)


def adversary_from_clauses(clauses: Sequence[FaultClause]) -> Adversary:
    """Compile a bare fault script into an :class:`Adversary`."""
    pids = tuple(sorted({c.pid for c in clauses}))
    strategies = {
        pid: ScriptedStrategy([c for c in clauses if c.pid == pid])
        for pid in pids
    }
    return Adversary(faulty=pids, strategies=strategies)


def build_adversary(scenario: Scenario) -> Adversary:
    """Compile a scenario's fault script into an :class:`Adversary`."""
    return adversary_from_clauses(scenario.faults)


# ---------------------------------------------------------------------------
# schedule script -> DeliveryPolicy
# ---------------------------------------------------------------------------


class ScenarioPolicy(DeliveryPolicy):
    """Plays a schedule script on the async scheduler's ordering hook.

    Each ``choose`` call is one delivery step.  Inside a window the link
    pool is filtered per the window kind; if filtering empties the pool
    the starved links are delivered anyway (the schedule must stay legal:
    the scheduler requires *some* pending link and asynchrony only
    permits finite — eventually fair — deferral).  Starvation decisions
    are counted in :attr:`starved` for forensics.
    """

    def __init__(self, windows: Sequence[ScheduleWindow] = ()) -> None:
        self.windows = tuple(windows)
        self.step = 0
        self.starved = 0
        self._random = RandomPolicy()
        self._fifo = FifoPolicy()

    def _window_at(self, step: int) -> Optional[ScheduleWindow]:
        hit = None
        for w in self.windows:
            if w.active_at(step):
                hit = w
        return hit

    @staticmethod
    def _same_group(
        link: tuple[int, int], groups: Sequence[tuple[int, ...]]
    ) -> bool:
        src, dst = link
        if dst < 0:  # atomic broadcast reaches everyone: cross-partition
            return False
        return any(src in g and dst in g for g in groups)

    def choose(
        self,
        links: Sequence[tuple[int, int]],
        network: Network,
        rng: LinkDraw,
    ) -> tuple[int, int]:
        w = self._window_at(self.step)
        self.step += 1
        pool = list(links)
        base = self._random
        if w is not None:
            if w.kind == "partition":
                kept = [lk for lk in pool if self._same_group(lk, w.groups)]
                self.starved += len(pool) - len(kept)
                pool = kept or pool
            elif w.kind == "delay":
                victims = set(w.victims)
                kept = [lk for lk in pool if lk[1] not in victims]
                self.starved += len(pool) - len(kept)
                pool = kept or pool
            elif w.kind == "fifo":
                base = self._fifo
            # "reorder" keeps the seeded-uniform base policy.
        return base.choose(pool, network, rng)


def build_policy(scenario: Scenario) -> Optional[ScenarioPolicy]:
    """Compile the schedule script (None when the scenario has none)."""
    if not scenario.schedule:
        return None
    return ScenarioPolicy(scenario.schedule)
