"""Experiment E-SWEEP — the deterministic parallel experiment engine.

Not a paper claim: an infrastructure benchmark for :mod:`repro.exec`.
It pins the two properties every other benchmark now leans on:

1. **bit-identity** — the same grid run serially and across a worker
   pool yields byte-identical decision vectors and verdicts (the trials'
   seeds are hashed from cell coordinates, never from position or
   schedule);
2. **geometry-cache effect** — the canonical-key memoization layer
   (:mod:`repro.geometry.cache`) produces identical decisions with a
   measurable hit rate, and disabling it only costs time, never changes
   a bit.

Measured: wall clock per mode and cache hit/miss totals.
"""

from __future__ import annotations

from repro.exec import SweepGrid, run_grid
from repro.geometry import cache_disabled

from ._util import report, sweep_rows


def _grid(reps: int = 2) -> SweepGrid:
    return SweepGrid(
        algorithms=("algo", "exact", "krelaxed"),
        dimensions=(2, 3),
        faults=(1,),
        adversaries=("none", "silent"),
        reps=reps,
        base_seed=11,
    )


class TestSweepEngine:
    def test_serial_parallel_bit_identity(self):
        grid = _grid()
        serial, rows = sweep_rows(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        report(
            "Sweep engine: grid trials (serial order; parallel run is "
            "byte-identical)",
            ["algorithm", "n", "d", "adversary", "ok", "rounds", "msgs",
             "wall(s)"],
            rows,
        )
        assert serial.trial_count == parallel.trial_count > 0
        assert serial.decisions_digest() == parallel.decisions_digest()
        assert serial.ok_count == serial.trial_count

    def test_cache_changes_time_not_bits(self):
        grid = _grid()
        cached = run_grid(grid, workers=1)
        with cache_disabled():
            uncached = run_grid(grid, workers=1)
        hits = cached.metric_total("geometry.cache.hits")
        misses = cached.metric_total("geometry.cache.misses")
        report(
            "Sweep engine: geometry cache effect (identical decisions)",
            ["mode", "wall(s)", "cache hits", "cache misses"],
            [
                ["cache on", round(cached.wall_seconds, 4), int(hits),
                 int(misses)],
                ["cache off", round(uncached.wall_seconds, 4), 0, 0],
            ],
        )
        assert cached.decisions_digest() == uncached.decisions_digest()
        assert hits > 0, "grid of repeated kernels must hit the cache"
        assert uncached.metric_total("geometry.cache.hits") == 0
