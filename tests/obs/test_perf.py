"""Phase profiler: histograms, path hierarchy, and its place as the second
sink of ``trace_span`` (same spans as a ``Tracer``, O(1) aggregates)."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.obs.perf import (
    BUCKET_BOUNDS,
    PERF_SCHEMA,
    FixedBucketHistogram,
    PhaseProfiler,
    use_profiler,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    trace_event,
    trace_span,
    use_tracer,
)


class TestFixedBucketHistogram:
    def test_bounds_are_a_geometric_ladder(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == pytest.approx(2.0 * lo)

    def test_observe_tracks_exact_extrema_and_total(self):
        h = FixedBucketHistogram()
        for v in (0.001, 0.004, 0.1):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(0.105)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.1)
        assert h.mean == pytest.approx(0.035)

    def test_bucket_assignment_first_bound_geq_value(self):
        h = FixedBucketHistogram()
        h.observe(3e-6)  # between 2µs and 4µs -> bucket bound 4µs
        (bound, count), = h.bucket_pairs()
        assert bound == pytest.approx(4e-6)
        assert count == 1

    def test_overflow_bucket_reports_inf_bound(self):
        h = FixedBucketHistogram()
        h.observe(1e9)
        (bound, count), = h.bucket_pairs()
        assert bound == float("inf")
        assert count == 1

    def test_quantiles_are_bucket_resolution_clamped_to_max(self):
        h = FixedBucketHistogram()
        for _ in range(99):
            h.observe(1e-5)
        h.observe(0.5)
        assert h.quantile(0.5) <= 1.6e-5
        assert h.quantile(1.0) == pytest.approx(0.5)
        # overflow samples never report an infinite latency
        h2 = FixedBucketHistogram()
        h2.observe(1e9)
        assert h2.quantile(0.99) == pytest.approx(1e9)

    def test_quantile_validates_inputs(self):
        h = FixedBucketHistogram()
        with pytest.raises(ValueError):
            h.quantile(0.5)  # empty
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_as_dict_is_json_serialisable(self):
        h = FixedBucketHistogram()
        h.observe(1e-5)
        h.observe(1e9)  # overflow -> "inf" string bound
        doc = json.loads(json.dumps(h.as_dict()))
        assert doc["count"] == 2
        assert ["inf", 1] in doc["buckets"]
        assert json.loads(json.dumps(FixedBucketHistogram().as_dict())) == {
            "count": 0
        }


class TestPhaseHierarchy:
    def test_paths_join_the_open_stack(self):
        p = PhaseProfiler()
        with use_profiler(p):
            with trace_span("core.run"):
                with trace_span("sched.sync.round", round=0):
                    with trace_span("geometry.delta_star"):
                        pass
                with trace_span("sched.sync.round", round=1):
                    pass
        snap = p.snapshot()
        assert set(snap["phases"]) == {
            "core.run",
            "core.run/sched.sync.round",
            "core.run/sched.sync.round/geometry.delta_star",
        }
        assert snap["phases"]["core.run/sched.sync.round"]["count"] == 2
        assert snap["phases"]["core.run/sched.sync.round"]["parent"] == "core.run"
        assert snap["phases"]["core.run"]["parent"] is None

    def test_same_name_under_different_parents_is_two_nodes(self):
        p = PhaseProfiler()
        with use_profiler(p):
            with trace_span("a.x"):
                with trace_span("geometry.tverberg"):
                    pass
            with trace_span("b.y"):
                with trace_span("geometry.tverberg"):
                    pass
        assert "a.x/geometry.tverberg" in p.snapshot()["phases"]
        assert "b.y/geometry.tverberg" in p.snapshot()["phases"]

    def test_wall_and_cpu_recorded_per_phase(self):
        p = PhaseProfiler()
        with use_profiler(p), trace_span("core.run"):
            x = 0
            for i in range(20_000):
                x += i * i
        entry = p.snapshot()["phases"]["core.run"]
        assert entry["wall_seconds"] > 0
        assert entry["cpu_seconds"] > 0
        assert entry["count"] == 1

    def test_exceptions_still_close_the_phase(self):
        p = PhaseProfiler()
        with use_profiler(p):
            with pytest.raises(RuntimeError):
                with trace_span("core.run"):
                    raise RuntimeError("boom")
            assert p.snapshot()["phases"]["core.run"]["count"] == 1
            # the stack unwound: the next span is a root again
            with trace_span("sched.sync.round"):
                pass
        assert "sched.sync.round" in p.snapshot()["phases"]

    def test_tags_and_events_are_dropped(self):
        p = PhaseProfiler()
        with use_profiler(p):
            with trace_span("geometry.delta_star", n=4) as span:
                assert span.tag(value=0.5) is span
            trace_event("demo.start", level="warning", n=4)
        assert set(p.snapshot()["phases"]) == {"geometry.delta_star"}
        p.clear()
        assert len(p) == 0

    def test_snapshot_schema_and_json_round_trip(self):
        p = PhaseProfiler()
        with use_profiler(p), trace_span("core.run"):
            pass
        doc = json.loads(json.dumps(p.snapshot()))
        assert set(doc) == {"schema", "phases"}
        assert doc["schema"] == PERF_SCHEMA
        assert doc["phases"]["core.run"]["name"] == "core.run"


class TestInstallation:
    def test_use_profiler_installs_and_restores(self):
        # the tracer module's slot is the only place a sink is installed
        p = PhaseProfiler()
        assert get_tracer() is NULL_TRACER
        with use_profiler(p) as installed:
            assert installed is p
            assert get_tracer() is p
        assert get_tracer() is NULL_TRACER

    def test_one_sink_at_a_time_innermost_wins(self):
        p, t = PhaseProfiler(), Tracer()
        with use_profiler(p):
            with use_tracer(t):
                with trace_span("core.run"):
                    pass
            with trace_span("sched.sync.round"):
                pass
        assert [s.name for s in t.spans] == ["core.run"]
        assert set(p.snapshot()["phases"]) == {"sched.sync.round"}


def _tree_from_spans(spans):
    """Fold a tracer's span list into {slash-joined path: count}."""
    by_id = {s.span_id: s for s in spans}
    tree: dict[str, int] = {}
    for s in spans:
        names = [s.name]
        while s.parent_id is not None:
            s = by_id[s.parent_id]
            names.append(s.name)
        path = "/".join(reversed(names))
        tree[path] = tree.get(path, 0) + 1
    return tree


class TestTwoSinksOneMechanism:
    """Both sinks see the same spans: the profiler's path -> count tree is
    the tracer's span list folded along its parent links."""

    @pytest.mark.parametrize("algorithm", ["algo", "averaging"])
    def test_profiler_tree_equals_folded_tracer_tree(self, algorithm):
        import repro.core.averaging as avg_mod
        from repro.geometry.cache import clear_cache

        spec = dict(algorithm=algorithm, n=6, d=2, f=1, seed=11)
        profiler, tracer = PhaseProfiler(), Tracer()
        for sink in (use_profiler(profiler), use_tracer(tracer)):
            # solve / select spans open on misses only: same cold caches
            clear_cache()
            avg_mod._SELECT_CACHE.clear()
            with sink:
                assert run(RunSpec(**spec)).ok
        tree = {
            path: entry["count"]
            for path, entry in profiler.snapshot()["phases"].items()
        }
        assert tree == _tree_from_spans(tracer.spans)
        assert tree["core.run"] == 1
        step = "sched.sync.round" if algorithm == "algo" else "sched.async.step"
        assert any(path.endswith(step) for path in tree)
        assert any("geometry.solve." in path for path in tree)


class TestZeroCostOff:
    def test_null_path_allocates_nothing_in_perf_module(self):
        # with no sink installed, the perf module performs zero
        # allocations during a full run (same gate as the causal module)
        import repro.obs.perf as perf_mod

        spec = RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11)
        run(spec)  # warm caches outside the measured window
        tracemalloc.start()
        try:
            run(spec)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        perf_allocs = snapshot.filter_traces([
            tracemalloc.Filter(True, perf_mod.__file__),
        ])
        assert sum(s.size for s in perf_allocs.statistics("filename")) == 0

    def test_enabled_profiler_sees_a_full_run(self):
        p = PhaseProfiler()
        with use_profiler(p):
            outcome = run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11))
        assert outcome.ok
        snap = p.snapshot()
        assert "core.run" in snap["phases"]
        assert any("sched.sync.round" in path for path in snap["phases"])
        assert any("geometry." in path for path in snap["phases"])
