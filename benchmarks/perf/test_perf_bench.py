"""Tests of the benchmark's own machinery (``pytest benchmarks/perf``).

Not part of tier-1 (``testpaths = ["tests"]``): these check that the
instance lists are a pure function of the seed, that the aggregation
arithmetic is what the README says, and that the span wrappers leave the
program exactly as they found it.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import pytest

from benchmarks.perf import orchestrate, report, trace, worker
from benchmarks.perf.__main__ import BENCHMARK_JSON, check
from benchmarks.perf.workloads import WORKLOADS, cells_of, generate, input_bytes, warmups


# ------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_are_a_pure_function_of_the_seed(name):
    first, again, other = generate(name, 2016), generate(name, 2016), generate(name, 7)
    assert [i.id for i in first] == [i.id for i in again] == [i.id for i in other]
    assert input_bytes(first) == input_bytes(again)
    assert input_bytes(first) != input_bytes(other)
    assert len({i.id for i in first}) == len(first) >= 100


def test_lists_are_rep_major_and_warmups_are_outside_them():
    instances = generate("sim-rva", 2016)
    cells = cells_of(WORKLOADS["sim-rva"])
    assert [i.cell for i in instances[: len(cells)]] == cells
    assert {i.rep for i in instances[: len(cells)]} == {0}
    timed = {(i.cell, i.seed) for i in instances}
    warm = warmups("sim-rva", 2016)
    assert [i.cell for i in warm] == cells
    assert not timed & {(i.cell, i.seed) for i in warm}


def test_live_averaging_cells_share_instances_with_their_sim_twins():
    sim = {i.id: i for i in generate("sim-rva", 2016)}
    live = [i for i in generate("live-uds", 2016) if i.cell.algorithm == "averaging"]
    shared = [i for i in live if i.id in sim]
    assert shared
    for inst in shared:
        assert inst.seed == sim[inst.id].seed
        assert inst.inputs.tobytes() == sim[inst.id].inputs.tobytes()


# ----------------------------------------------------------- aggregation


def _sample(i, round_, ms, kind="ok", decisions=4, quanta=(1.0, 1.0)):
    """``quanta`` of 1.0: the pass ran at the reference machine's speed."""
    return {"i": i, "pass": round_, "id": f"inst{i}", "ms": ms, "kind": kind,
            "decisions": decisions, "quanta": list(quanta)}


def test_percentile_interpolates():
    assert report.percentile([10.0, 20.0, 30.0, 40.0, 50.0], 50) == 30.0
    assert report.percentile([10.0, 20.0], 90) == pytest.approx(19.0)
    assert report.percentile([7.0], 90) == 7.0


def test_speed_factors_average_the_quanta_around_each_instance():
    assert report.speed_factors([1.0] * 5) == [1.0] * 4
    # one slow quantum after instance 0 is felt SPEED_WINDOW instances away
    quanta = [1.0, 2.0] + [1.0] * 6
    factors = report.speed_factors(quanta)
    assert len(factors) == 7
    assert factors[0] == pytest.approx(5 / 4)     # quanta 0..3
    assert factors[1] == pytest.approx(6 / 5)     # quanta 0..4
    assert factors[report.SPEED_WINDOW + 1] == 1.0  # quanta 2..7
    # a machine twice as slow throughout halves every latency
    slow = [_sample(i, 0, 20.0, quanta=(2.0, 2.0)) for i in range(3)]
    out = report.aggregate(3, slow, [(4.0, 2.0)], [50.0])
    assert out["metrics"]["instance_ms_p50"] == pytest.approx(10.0)
    assert out["metrics"]["setup_s"] == pytest.approx(2.0)
    assert out["per_round"]["speed"] == [pytest.approx(2.0)]


def test_aggregate_median_of_rounds_failed_and_timed_out():
    samples = [
        # instance 0: ok in all three rounds, median 11 ms
        _sample(0, 0, 12.0), _sample(0, 1, 10.0), _sample(0, 2, 11.0),
        # instance 1: tolerance miss: no decisions in the numerator, not failed
        {**_sample(1, 0, 20.0, "tolerance"), "violation": 3e-7},
        {**_sample(1, 1, 30.0, "tolerance"), "violation": 3e-7},
        # instance 2: raised in the second round: failed
        _sample(2, 0, 40.0), {**_sample(2, 1, 5.0, "failed", 0), "error": "Boom"},
        # instance 3: never returned (cut by the pass timeout): failed, no latency
    ]
    out = report.aggregate(4, samples, setup=[(2.0, 1.0), (1.0, 1.0), (8.0, 2.0)],
                           peak_rss_mb=[100.0, 104.0])
    assert out["failed"] == 2 and out["tolerance_misses"] == 1 and out["samples"] == 3
    m = out["metrics"]
    assert m["failed_share"] == 0.5
    assert m["setup_s"] == 2.0
    assert m["peak_rss_mb"] == 104.0
    # median-of-R latencies are 11, 25 and 22.5 ms; only instance 0 adds decisions
    assert m["decisions_per_s"] == pytest.approx(4 / 0.0585)
    assert m["instance_ms_p50"] == 22.5
    assert m["instance_ms_p90"] == pytest.approx(24.5)
    kinds = {f.get("id", f["i"]): f["kind"] for f in out["known_failures"]}
    assert kinds == {"inst1": "tolerance", "inst2": "failed", 3: "failed"}
    # no round saw all four instances, so there is no per-round latency series
    assert out["per_round"]["instance_ms_p50"] == []


def test_per_round_series_cover_complete_rounds_only():
    samples = [_sample(i, r, 10.0 * (r + 1)) for r in range(2) for i in range(3)]
    samples.append(_sample(0, 2, 1.0))  # a cut third round
    out = report.aggregate(3, samples, [(1.0, 1.0)], [50.0])
    assert out["per_round"]["instance_ms_p50"] == [10.0, 20.0]
    # instance 0's median is over three rounds (10), the others' over two (15)
    assert out["metrics"]["instance_ms_p50"] == 15.0
    assert out["metrics"]["instance_ms_p90"] == 15.0


def test_classify_uses_the_repos_verdict():
    def outcome(ok, *, agreement=True, validity=True, termination=True,
                completed=True, violations=None):
        rep = SimpleNamespace(agreement_ok=agreement, validity_ok=validity,
                              termination_ok=termination, violations=violations or {})
        return SimpleNamespace(ok=ok, report=rep, result=SimpleNamespace(completed=completed))

    assert worker.classify(outcome(True)) == ("ok", 0.0)
    miss = outcome(False, validity=False, violations={0: 3e-7, 1: 2e-7})
    assert worker.classify(miss) == ("tolerance", 3e-7)
    wrong = outcome(False, validity=False, violations={0: 1e-3})
    assert worker.classify(wrong)[0] == "failed"
    assert worker.classify(outcome(False, agreement=False))[0] == "failed"
    assert worker.classify(outcome(True, completed=False))[0] == "failed"


def _doc(p50, rounds, digest="d", msgs=10.0):
    metrics = {"setup_s": 1.0, "decisions_per_s": 100.0, "instance_ms_p50": p50,
               "instance_ms_p90": 20.0, "peak_rss_mb": 100.0, "failed_share": 0.0}
    return {"workloads": {"sim-rva": {
        "metrics": metrics, "digest": digest,
        "per_round": {"instance_ms_p50": rounds},
        "layers": {name: msgs for name in report.EXACT_COUNTS},
    }}}


def test_compare_labels_ok_worse_unresolved_and_exact_counts():
    def verdicts(base, new):
        return {r["metric"]: r["verdict"] for r in report.compare(base, new)}

    bound = report.END_TO_END["instance_ms_p50"][2]
    steady = [10.0, 10.1, 10.2]
    assert verdicts(_doc(10.0, steady), _doc(10.5, steady))["instance_ms_p50"] == "ok"
    worse = 10.0 * (1 + bound) + 0.5
    assert verdicts(_doc(10.0, steady), _doc(worse, steady))["instance_ms_p50"] == "worse"
    noisy = [10.0, 10.0 * (1 + 2 * bound), 11.0]
    assert verdicts(_doc(10.0, noisy), _doc(10.5, steady))["instance_ms_p50"] == "unresolved"
    rows = verdicts(_doc(10.0, steady), _doc(10.0, steady, digest="other", msgs=11.0))
    assert rows["digest"] == "worse"
    assert all(rows[name] == "worse" for name in report.EXACT_COUNTS)


# ---------------------------------------------------------------- tracing


def test_nested_span_self_time_arithmetic():
    recorder = trace.SpanRecorder()
    recorder.keep_raw = True
    outer, inner = ("a", "outer"), ("b", "inner")
    f_outer = recorder.open(outer)
    for _ in range(3):
        recorder.close(recorder.open(inner))
    recorder.close(f_outer)
    out_t, in_t = recorder.totals[outer], recorder.totals[inner]
    assert (out_t.calls, in_t.calls) == (1, 3)
    assert in_t.self_s == pytest.approx(in_t.total_s)
    assert out_t.self_s == pytest.approx(out_t.total_s - in_t.total_s)
    assert out_t.self_s >= 0
    # raw spans carry the same arithmetic
    assert [s[4] for s in recorder.raw] == [-1, 0, 0, 0]
    selfs = trace.self_times(recorder.raw)
    assert selfs[0] == pytest.approx(out_t.self_s)
    assert sum(selfs[1:]) == pytest.approx(in_t.self_s)


def test_self_times_on_synthetic_spans():
    spans = [("l", "root", 0.0, 10.0, -1), ("l", "child", 1.0, 4.0, 0),
             ("l", "grandchild", 2.0, 3.0, 1), ("l", "child", 5.0, 7.0, 0)]
    assert trace.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_recursion_through_a_module_global_is_one_span():
    recorder = trace.SpanRecorder()
    patches = trace.install(recorder)
    try:
        from repro.system import messages

        assert messages.estimate_bytes(((1.0, 2.0), [3, (4, 5)])) > 0
    finally:
        trace.uninstall(patches)
    assert recorder.totals[("system.messages", "estimate_bytes")].calls == 1


def test_generator_wrap_point_counts_one_call_and_times_each_resume():
    from repro.system.messages import Message
    from repro.system.network import Network

    recorder = trace.SpanRecorder()
    patches = trace.install(recorder)
    try:
        net = Network(3)
        for dst in (1, 2):
            net.submit(Message(0, dst, "t", 1.0))
        assert [m.dst for m in net.drain_all()] == [1, 2]
    finally:
        trace.uninstall(patches)
    assert recorder.totals[("system.network", "Network.drain_all")].calls == 1
    assert recorder.totals[("system.network", "Network.submit")].calls == 2
    assert not recorder.stack


def test_install_then_uninstall_restores_every_attribute():
    import importlib

    for points in trace.WRAP_POINTS.values():
        for module_name, _cls, _attr in points:
            importlib.import_module(module_name)
    repro_modules = [m for name, m in sorted(sys.modules.items())
                     if name == "repro" or name.startswith("repro.")]
    before = {(m.__name__, k): v for m in repro_modules for k, v in vars(m).items()}
    methods = {}
    for points in trace.WRAP_POINTS.values():
        for module_name, cls_name, attr in points:
            if cls_name is not None:
                owner = getattr(sys.modules[module_name], cls_name)
                methods[(owner, attr)] = owner.__dict__[attr]

    patches = trace.install(trace.SpanRecorder())
    patched = {(owner, attr) for owner, attr, _ in patches}
    assert set(methods) <= patched
    import repro.core
    import repro.core.runner

    assert repro.core.run is repro.core.runner.run is not before[("repro.core.runner", "run")]
    trace.uninstall(patches)

    for (owner, attr), original in methods.items():
        assert owner.__dict__[attr] is original
    after = {(m.__name__, k): v for m in repro_modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_benchmark():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert check(declared, None) == []
    assert declared["paths"] == ["benchmarks/perf"]
    assert declared["command"][-1] == "benchmarks/perf/bench.py"
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in declared["per_layer"]} == set(report.LAYER_UNITS)
    bounded = {n for n, (_u, _b, bound) in report.END_TO_END.items() if bound is not None}
    assert {m["name"] for m in declared["end_to_end"]} == bounded


def test_layer_metrics_emits_every_declared_name():
    event = {
        "instances": 2, "py_calls": 1000, "cpu_s": 0.5, "wall_s": 1.0, "speed": 1.0,
        "latency_s": {k: 1.0 for k in ("off", "traced", "tracer", "causal", "profiler", "probes")},
        "spans": {"core.run|run": [2, 0.1, 1.0], "core.run|ProblemSpec.check": [2, 0.2, 0.2],
                  "geometry|delta_star": [4, 0.7, 0.7]},
        "counters": {**{name: 0 for name in (
            "geometry.cache.hits", "sched.adversary.messages_in",
            "sched.adversary.messages_out", "bcast.bracha.delivered", "bcast.om.decisions",
            "bcast.ds.accepted", "net.live.frames_sent", "net.live.bytes_sent",
            "net.live.retransmits", "net.live.reconnects", "net.live.backpressure_waits",
            "net.live.handshakes", "queue_depth_peak")},
            "geometry.cache.misses": 2, "decisions": 8, "steps": 16, "messages_sent": 80,
            "messages_delivered": 72, "bytes_estimate": 800, "queue_wait_us": []},
    }
    values = report.layer_metrics(event)
    assert set(values) == set(report.LAYER_UNITS)
    assert values["geometry.self_share"] == pytest.approx(0.7)
    assert values["core.run.self_share"] == pytest.approx(0.3)
    assert values["core.run.check_ms_per_instance"] == pytest.approx(100.0)
    assert values["geometry.solve_ms_mean"] == pytest.approx(350.0)
    assert values["system.network.undelivered_share"] == pytest.approx(0.1)
    assert report.unattributed(event)[0]["callable"] == "ProblemSpec.check"
    # on a machine twice as slow the times halve, the shares and counts stay
    slow = report.layer_metrics({**event, "speed": 2.0})
    assert slow["geometry.solve_ms_mean"] == pytest.approx(175.0)
    assert slow["geometry.self_share"] == pytest.approx(0.7)


def test_entry_point_refuses_a_checkout_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(orchestrate, "ROOT", tmp_path)
    assert not orchestrate.program_present()
