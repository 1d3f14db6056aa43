"""The sweep engine: run a grid of trials, serially or across workers.

Determinism contract
--------------------
A trial's outcome is a pure function of its :class:`TrialSpec`: the
per-cell seed is position-independent (hashed from the cell
coordinates), every trial runs under its own fresh
:class:`~repro.obs.metrics.MetricsRegistry`, and the geometry cache keys
on exact argument bytes, so a hit returns exactly the bits the wrapped
kernel would have computed.  Pool workers additionally start from a
*cleared* cache (:func:`pool_map`'s initializer drops any table
inherited through ``fork``), so parallel results are computed
independently rather than replayed from the parent's history.
Consequently ``run_sweep(trials, workers=1)`` and
``run_sweep(trials, workers=8)`` produce byte-identical decision vectors
and verdicts — checked by :func:`compare_grid` and asserted in CI.

Parallel execution is :func:`pool_map` (the DST explorer's pool too):
trials are dealt out in chunks and idle workers take the next chunk, so
a slow cell (a Tverberg search, say) does not serialise the sweep, and
results come back in trial order, so completion order never leaks into
the output.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence, TypeVar

from ..core.runner import run
from ..geometry.cache import cache_enabled, clear_cache, set_cache_enabled
from ..obs.metrics import MetricsRegistry
from .grid import SweepGrid, TrialSpec, build_runspec
from .results import SweepResult, TrialResult, decisions_to_hex

__all__ = ["compare_grid", "pool_map", "run_grid", "run_sweep", "run_trial"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _rollup_metrics(registry: MetricsRegistry) -> dict[str, float]:
    """Flatten a registry snapshot: counters verbatim, histograms as
    ``<name>.total`` (gauges are point-in-time; dropped)."""
    out: dict[str, float] = {}
    for name, record in registry.snapshot().items():
        kind = record.get("type")
        if kind == "counter":
            out[name] = float(record["value"])
        elif kind == "histogram" and record.get("count"):
            out[name + ".total"] = float(record["total"])
    return out


def run_trial(trial: TrialSpec) -> TrialResult:
    """Execute one grid cell under a fresh metrics registry.

    This is the unit of parallel work: it builds the adversary and the
    :class:`~repro.core.runspec.RunSpec` locally (nothing live crosses
    the process boundary) and returns a plain-data record.
    """
    registry = MetricsRegistry()
    spec = replace(build_runspec(trial), metrics=registry)
    start = time.perf_counter()
    outcome = run(spec)
    wall = time.perf_counter() - start
    stats = outcome.result.stats
    report = outcome.report
    return TrialResult(
        index=trial.index,
        algorithm=trial.algorithm,
        n=trial.n,
        d=trial.d,
        f=trial.f,
        adversary=trial.adversary,
        rep=trial.rep,
        seed=trial.seed,
        ok=outcome.ok,
        agreement_ok=report.agreement_ok,
        validity_ok=report.validity_ok,
        termination_ok=report.termination_ok,
        rounds=int(outcome.result.rounds),
        messages=int(stats.messages_sent),
        bytes_estimate=int(stats.bytes_estimate),
        delta_used=None if outcome.delta_used is None
        else float(outcome.delta_used),
        decisions=decisions_to_hex(outcome.decisions),
        wall_seconds=wall,
        metrics=_rollup_metrics(registry),
        probe_violations=int(outcome.probe_violations),
    )


def pool_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    workers: int,
    chunksize: Optional[int] = None,
) -> list[_R]:
    """``[fn(item) for item in items]`` over a pool of ``workers``
    processes, in item order.

    Workers are forked where the platform can (cheap start; the platform
    default elsewhere) and start from a cleared geometry cache.  Items go
    out in chunks of ``chunksize`` (default: ~4 chunks per worker, the
    classic balance between dispatch overhead and tail latency) and an
    idle worker takes the next chunk.
    """
    if chunksize is None:
        chunksize = max(1, math.ceil(len(items) / (workers * 4)))
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    # Under fork the worker inherits the parent's warm cache table.  A
    # parallel pass must compute its results independently — both so the
    # serial-vs-parallel identity check can actually catch cache bugs and
    # so timing comparisons are cold-vs-cold — so every worker starts
    # from an empty table.
    with ctx.Pool(processes=workers, initializer=clear_cache) as pool:
        return pool.map(fn, items, chunksize=chunksize)


def run_sweep(
    trials: Sequence[TrialSpec],
    *,
    workers: int = 1,
    chunksize: Optional[int] = None,
    skipped_trials: int = 0,
    grid: Optional[dict[str, Any]] = None,
) -> SweepResult:
    """Run every trial and aggregate into a :class:`SweepResult`.

    ``workers=1`` runs in-process (no pool, easiest to debug/profile);
    ``workers>1`` fans trials over :func:`pool_map`.  Either way the
    result list is in grid order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    trial_list = list(trials)
    start = time.perf_counter()
    if workers == 1 or len(trial_list) <= 1:
        results = [run_trial(t) for t in trial_list]
    else:
        results = pool_map(
            run_trial, trial_list, workers=workers, chunksize=chunksize
        )
    wall = time.perf_counter() - start
    return SweepResult(
        trials=results,
        workers=workers,
        wall_seconds=wall,
        cpu_count=os.cpu_count() or 1,
        skipped_trials=skipped_trials,
        grid=dict(grid or {}),
        cache_enabled=cache_enabled(),
    )


def run_grid(
    grid: SweepGrid,
    *,
    workers: int = 1,
    chunksize: Optional[int] = None,
) -> SweepResult:
    """Expand a grid and run it."""
    trials, skipped = grid.trials()
    return run_sweep(
        trials,
        workers=workers,
        chunksize=chunksize,
        skipped_trials=skipped,
        grid=grid.to_dict(),
    )


def compare_grid(
    grid: SweepGrid,
    *,
    workers: int,
    chunksize: Optional[int] = None,
    measure_cache: bool = False,
) -> dict[str, Any]:
    """Run a grid serially and in parallel; check bit-identity.

    Returns the comparison document ``repro sweep --compare --out``
    writes: both modes' timings, the shared decisions digest, and —
    with ``measure_cache`` — a third serial pass with the geometry cache
    disabled, quantifying the cache's speedup on the same grid.

    Every timed pass starts from a cleared geometry cache (and pool
    workers clear again in their initializer): the passes must compute
    their results independently for the identity assertion to mean
    anything, and cold-vs-cold keeps the timing ratio apples-to-apples.
    """
    clear_cache()
    serial = run_grid(grid, workers=1, chunksize=chunksize)
    clear_cache()
    parallel = run_grid(grid, workers=workers, chunksize=chunksize)
    serial_digest = serial.decisions_digest()
    parallel_digest = parallel.decisions_digest()
    cpu_count = os.cpu_count() or 1
    doc: dict[str, Any] = {
        "schema": "repro.exec.compare/1",
        "grid": grid.to_dict(),
        "cpu_count": cpu_count,
        "trial_count": serial.trial_count,
        "skipped_trials": serial.skipped_trials,
        "identical": serial_digest == parallel_digest,
        "decisions_digest": {"serial": serial_digest,
                             "parallel": parallel_digest},
        "modes": [
            {"workers": 1, "wall_seconds": round(serial.wall_seconds, 6)},
            {"workers": workers,
             "wall_seconds": round(parallel.wall_seconds, 6)},
        ],
        "parallel_speedup": round(
            serial.wall_seconds / parallel.wall_seconds, 4
        ) if parallel.wall_seconds else None,
        "summary": serial.summary(),
        "trials": [t.to_dict() for t in serial.trials],
    }
    if cpu_count == 1:
        # A 1-core box time-shares the pool: the ratio measures scheduler
        # overhead, not parallelism.  Never report it as a speedup.
        doc["parallel_speedup"] = None
        doc["parallel_speedup_note"] = (
            "unmeasurable: cpu_count == 1 — parallel workers time-share a "
            "single core, so the wall-clock ratio is not a speedup"
        )
    if measure_cache:
        was_enabled = set_cache_enabled(False)
        try:
            clear_cache()
            uncached = run_grid(grid, workers=1, chunksize=chunksize)
        finally:
            set_cache_enabled(was_enabled)
        doc["cache_off"] = {
            "wall_seconds": round(uncached.wall_seconds, 6),
            "identical_to_cached": uncached.decisions_digest() == serial_digest,
            "cache_speedup": round(
                uncached.wall_seconds / serial.wall_seconds, 4
            ) if serial.wall_seconds else None,
        }
    return doc
