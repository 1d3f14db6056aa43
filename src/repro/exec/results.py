"""Structured results of a sweep: per-trial records and the aggregate.

Decision vectors are stored as ``float.hex`` strings — exact, JSON-safe
encodings of every coordinate bit — so "serial and parallel sweeps are
bit-identical" is checkable (and checked) at the byte level, not through
a lossy ``repr`` round-trip.

A :class:`TrialResult` separates its **identity** (algorithm, shape,
seed, verdicts, rounds, messages, exact decisions — everything that must
match between execution modes) from its **measurements** (wall time,
rolled-up obs metrics — which legitimately vary with scheduling and
cache warmth).  :meth:`SweepResult.decisions_digest` hashes only the
identity records.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np

__all__ = ["TrialResult", "SweepResult", "decisions_to_hex"]

SCHEMA = "repro.exec.sweep/1"


def decisions_to_hex(
    decisions: dict[int, np.ndarray],
) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """Exact encoding of a decision map: pid-sorted ``float.hex`` tuples."""
    return tuple(
        (int(pid), tuple(float(x).hex() for x in np.asarray(vec).ravel()))
        for pid, vec in sorted(decisions.items())
    )


@dataclass(frozen=True)
class TrialResult:
    """One executed grid cell.

    ``decisions`` holds every correct process's decision vector in exact
    ``float.hex`` coordinates; ``metrics`` is the flat roll-up of the
    trial's :class:`~repro.obs.metrics.MetricsRegistry` (counters
    verbatim, histograms as ``<name>.total``).
    """

    index: int
    algorithm: str
    n: int
    d: int
    f: int
    adversary: str
    rep: int
    seed: int
    ok: bool
    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool
    rounds: int
    messages: int
    bytes_estimate: int
    delta_used: Optional[float]
    decisions: tuple[tuple[int, tuple[str, ...]], ...]
    wall_seconds: float
    metrics: dict[str, float] = field(default_factory=dict)
    #: Total online probe violations (0 when the trial ran without
    #: probes).  Deliberately NOT part of the identity record: probes
    #: observe a run, they never change it, so enabling them must not
    #: move the decisions digest.
    probe_violations: int = 0

    def identity_record(self) -> dict[str, Any]:
        """Everything that must be bit-identical across execution modes
        (excludes wall time, obs metrics, and probe-violation counts,
        which measure the run)."""
        return {
            "index": self.index,
            "algorithm": self.algorithm,
            "n": self.n,
            "d": self.d,
            "f": self.f,
            "adversary": self.adversary,
            "rep": self.rep,
            "seed": self.seed,
            "ok": self.ok,
            "agreement_ok": self.agreement_ok,
            "validity_ok": self.validity_ok,
            "termination_ok": self.termination_ok,
            "rounds": self.rounds,
            "messages": self.messages,
            "bytes_estimate": self.bytes_estimate,
            "delta_used": None if self.delta_used is None
            else float(self.delta_used).hex(),
            "decisions": [[pid, list(coords)] for pid, coords in self.decisions],
        }

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["decisions"] = [[pid, list(coords)] for pid, coords in self.decisions]
        return out


@dataclass
class SweepResult:
    """All trials of one sweep execution, plus how it was executed."""

    trials: list[TrialResult]
    workers: int
    wall_seconds: float
    cpu_count: int
    #: Trials omitted during grid expansion (undersized ``n``, scalar on
    #: vector dimensions) — counted per trial, so ``trial_count +
    #: skipped_trials`` is the grid's full cross product.
    skipped_trials: int = 0
    grid: dict[str, Any] = field(default_factory=dict)
    cache_enabled: bool = True

    @property
    def trial_count(self) -> int:
        return len(self.trials)

    @property
    def ok_count(self) -> int:
        return sum(1 for t in self.trials if t.ok)

    @property
    def probe_violations(self) -> int:
        """Total online probe violations across every trial."""
        return sum(t.probe_violations for t in self.trials)

    def decisions_digest(self) -> str:
        """SHA-256 over the canonical JSON of every identity record.

        Two sweeps of the same grid agree on this digest iff every
        per-trial decision vector and verdict is byte-identical.
        """
        records = [t.identity_record() for t in sorted(self.trials,
                                                      key=lambda t: t.index)]
        payload = json.dumps(records, sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()

    def metric_total(self, name: str) -> float:
        """Sum of one rolled-up metric across every trial."""
        return float(sum(t.metrics.get(name, 0.0) for t in self.trials))

    def summary(self) -> dict[str, Any]:
        """Aggregate view: verdicts, traffic, solver time, cache rates."""
        hits = self.metric_total("geometry.cache.hits")
        misses = self.metric_total("geometry.cache.misses")
        lookups = hits + misses
        per_algorithm: dict[str, dict[str, Any]] = {}
        for t in self.trials:
            agg = per_algorithm.setdefault(t.algorithm, {
                "trials": 0, "ok": 0, "wall_seconds": 0.0,
                "messages": 0, "rounds": 0, "probe_violations": 0,
            })
            agg["trials"] += 1
            agg["ok"] += int(t.ok)
            agg["wall_seconds"] = round(agg["wall_seconds"] + t.wall_seconds, 6)
            agg["messages"] += t.messages
            agg["rounds"] += t.rounds
            agg["probe_violations"] += t.probe_violations
        return {
            "trials": self.trial_count,
            "ok": self.ok_count,
            "probe_violations": self.probe_violations,
            "skipped_trials": self.skipped_trials,
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "wall_seconds": round(self.wall_seconds, 6),
            "cache_enabled": self.cache_enabled,
            "geometry_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
            },
            "delta_star_calls": self.metric_total("geometry.delta_star.calls"),
            "delta_star_seconds": round(
                self.metric_total("geometry.delta_star.seconds.total"), 6),
            "messages": int(self.metric_total("net.messages_sent")),
            "per_algorithm": dict(sorted(per_algorithm.items())),
        }

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "grid": self.grid,
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "wall_seconds": round(self.wall_seconds, 6),
            "skipped_trials": self.skipped_trials,
            "cache_enabled": self.cache_enabled,
            "decisions_digest": self.decisions_digest(),
            "summary": self.summary(),
            "trials": [t.to_dict() for t in self.trials],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: str) -> None:
        """Write the sweep as JSON."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        os.replace(tmp, path)
