"""The sweep engine's headline contract: serial == parallel, bit for bit."""

from __future__ import annotations

import json

import pytest

from repro.exec import (
    SweepGrid,
    compare_grid,
    run_grid,
    run_sweep,
    run_trial,
)
from repro.exec.engine import pool_map
from repro.geometry import cache_disabled
from repro.geometry import cache as cache_mod


def small_grid(**overrides) -> SweepGrid:
    kwargs = dict(algorithms=("algo", "exact"), dimensions=(2,), faults=(1,),
                  adversaries=("none", "silent"), reps=2, base_seed=9)
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


class TestRunTrial:
    def test_trial_is_pure_function_of_spec(self):
        trials, _ = small_grid(reps=1).trials()
        a = run_trial(trials[0])
        b = run_trial(trials[0])
        assert a.decisions == b.decisions
        assert a.identity_record() == b.identity_record()

    def test_trial_records_verdicts_and_traffic(self):
        trials, _ = small_grid(reps=1).trials()
        result = run_trial(trials[0])
        assert result.ok
        assert result.messages > 0 and result.bytes_estimate > 0
        assert result.rounds > 0
        assert result.metrics.get("net.messages_sent") == result.messages

    def test_decisions_round_trip_bit_exact(self):
        trials, _ = small_grid(reps=1).trials()
        result = run_trial(trials[0])
        decoded = {
            pid: [float.fromhex(h) for h in coords]
            for pid, coords in result.decisions
        }
        assert sorted(decoded) == [pid for pid, _ in result.decisions]
        for pid, coords in result.decisions:
            assert tuple(float(x).hex() for x in decoded[pid]) == coords


class TestSerialParallelIdentity:
    def test_bit_identical_decisions_and_verdicts(self):
        grid = small_grid()
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        assert serial.trial_count == parallel.trial_count > 0
        assert serial.decisions_digest() == parallel.decisions_digest()
        for a, b in zip(serial.trials, parallel.trials):
            assert a.identity_record() == b.identity_record()

    def test_parallel_results_in_grid_order(self):
        trials, _ = small_grid().trials()
        result = run_sweep(trials, workers=3, chunksize=1)
        assert [t.index for t in result.trials] == list(range(len(trials)))

    def test_workers_validation(self):
        trials, _ = small_grid(reps=1).trials()
        with pytest.raises(ValueError, match="workers"):
            run_sweep(trials, workers=0)

    def test_pool_workers_start_cold(self):
        """Forked workers must clear the inherited geometry cache:
        otherwise a parallel pass after a warm serial pass just replays
        parent results and the identity check cannot catch cache bugs."""
        grid = small_grid(reps=1)
        run_grid(grid, workers=1)  # warms the parent-process cache
        parallel = run_grid(grid, workers=2)
        assert parallel.metric_total("geometry.cache.misses") > 0

    def test_cache_off_changes_nothing_but_time(self):
        grid = small_grid(reps=1)
        cached = run_grid(grid, workers=1)
        with cache_disabled():
            uncached = run_grid(grid, workers=1)
        assert cached.decisions_digest() == uncached.decisions_digest()
        assert not uncached.cache_enabled and cached.cache_enabled
        assert cached.metric_total("geometry.cache.hits") > 0
        assert uncached.metric_total("geometry.cache.hits") == 0


def _probe_worker(item: int) -> tuple[int, int]:
    return item * item, len(cache_mod._CACHE._store)


class TestPoolMap:
    """The one pool the sweep engine and the DST explorer fan out over."""

    def test_item_order_and_cold_cache(self):
        run_grid(small_grid(reps=1), workers=1)  # warms this process's cache
        assert cache_mod._CACHE._store
        out = pool_map(_probe_worker, list(range(23)), workers=3, chunksize=2)
        assert [square for square, _ in out] == [i * i for i in range(23)]
        assert {entries for _, entries in out} == {0}


class TestAggregation:
    def test_summary_and_metric_totals(self):
        result = run_grid(small_grid(), workers=1)
        summary = result.summary()
        assert summary["trials"] == result.trial_count
        assert summary["ok"] == result.ok_count == result.trial_count
        assert summary["geometry_cache"]["hit_rate"] > 0
        assert summary["messages"] > 0
        assert set(summary["per_algorithm"]) == {"algo", "exact"}

    def test_save_load_round_trip(self, tmp_path):
        result = run_grid(small_grid(reps=1), workers=1)
        path = tmp_path / "sweep.json"
        result.save(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["trials"] == [t.to_dict() for t in result.trials]
        assert loaded["decisions_digest"] == result.decisions_digest()
        assert loaded["grid"] == result.grid


class TestCompareGrid:
    def test_compare_document(self):
        doc = compare_grid(small_grid(reps=1), workers=2, measure_cache=True)
        assert doc["identical"] is True
        assert doc["decisions_digest"]["serial"] == \
            doc["decisions_digest"]["parallel"]
        assert doc["trial_count"] == len(doc["trials"])
        assert doc["cache_off"]["identical_to_cached"] is True
        assert doc["cache_off"]["cache_speedup"] > 0
        assert doc["summary"]["geometry_cache"]["hits"] > 0
