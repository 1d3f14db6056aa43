"""Causal collector: clocks, happens-before, and the zero-cost-off path."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.analysis.timeline import CausalGraph
from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.obs import validate_records
from repro.obs.causal import (
    NULL_COLLECTOR,
    CausalCollector,
    NullCausalCollector,
    get_causal_collector,
    note_decision,
    set_causal_collector,
    use_causal_collector,
)


class TestClocks:
    def test_send_increments_sender_clocks(self):
        c = CausalCollector(3)
        eid = c.on_send(0, 1, "m", time=0)
        ev = c.events[eid]
        assert (ev.kind, ev.pid, ev.lamport) == ("send", 0, 1)
        assert ev.clock == (1, 0, 0)

    def test_deliver_merges_send_clock_and_bumps_lamport(self):
        c = CausalCollector(3)
        s1 = c.on_send(0, 1, "a", time=0)
        s2 = c.on_send(0, 1, "b", time=0)  # sender lamport now 2
        d1 = c.on_deliver(1, c.pop_send(0, 1), time=0)
        ev = c.events[d1]
        assert ev.cause == s1
        assert ev.lamport > c.events[s1].lamport
        # merged: knows sender's first tick, own tick advanced
        assert ev.clock[0] >= 1 and ev.clock[1] == 1
        d2 = c.on_deliver(1, c.pop_send(0, 1), time=0)
        assert c.events[d2].cause == s2
        assert c.events[d2].lamport > c.events[s2].lamport

    def test_fifo_pop_matches_link_order(self):
        c = CausalCollector(2)
        sends = [c.on_send(0, 1, f"m{i}", time=0) for i in range(4)]
        pops = [c.pop_send(0, 1) for _ in range(4)]
        assert pops == sends
        assert c.pop_send(0, 1) is None  # drained
        assert c.pop_send(1, 0) is None  # never used

    def test_clock_state_grows_on_demand(self):
        c = CausalCollector(0)
        eid = c.on_send(2, 5, "late", time=0)
        assert len(c.events[eid].clock) >= 3
        d = c.on_deliver(5, c.pop_send(2, 5), time=0)
        assert len(c.events[d].clock) >= 6


class TestHappensBefore:
    def _chain(self):
        # 0 sends to 1; 1 delivers, then sends to 2; 2 delivers and decides.
        c = CausalCollector(3)
        c.on_send(0, 1, "x", time=0)
        c.on_deliver(1, c.pop_send(0, 1), time=0)
        c.on_send(1, 2, "y", time=1)
        c.on_deliver(2, c.pop_send(1, 2), time=1)
        c.on_mark("decide", 2, time=1)
        return c

    def test_cone_spans_the_whole_chain(self):
        graph = CausalGraph.from_source(self._chain())
        decide = graph.decide_eid(2)
        assert decide is not None
        assert graph.causal_cone(decide) == [0, 1, 2, 3, 4]

    def test_cone_excludes_concurrent_events(self):
        c = self._chain()
        # a concurrent message 0 -> 1 the decide never saw
        c.on_send(0, 1, "late", time=2)
        graph = CausalGraph.from_source(c)
        cone = graph.causal_cone(graph.decide_eid(2))
        assert c.events[-1].eid not in cone

    def test_cone_clock_dominance(self):
        # vector-clock characterisation: everything in the causal past of
        # the decide is componentwise <= the decide's clock
        c = self._chain()
        graph = CausalGraph.from_source(c)
        decide = c.events[graph.decide_eid(2)]
        for eid in graph.causal_cone(decide.eid):
            ev = c.events[eid]
            assert all(
                a <= b for a, b in zip(ev.clock, decide.clock)
            ), f"event {eid} not dominated by the decide clock"

    def test_predecessors_program_order_and_cause(self):
        c = self._chain()
        deliver_at_2 = next(e for e in c.events if e.kind == "deliver" and e.pid == 2)
        preds = CausalGraph.from_source(c).predecessors(deliver_at_2.eid)
        send_from_1 = next(e for e in c.events if e.kind == "send" and e.pid == 1)
        assert send_from_1.eid in preds

    def test_cone_bad_eid_raises(self):
        graph = CausalGraph.from_source(self._chain())
        with pytest.raises(IndexError):
            graph.causal_cone(999)


class TestRecords:
    def test_to_records_validate(self):
        c = CausalCollector(2)
        c.on_send(0, 1, "m", time=0)
        c.on_deliver(1, c.pop_send(0, 1), time=0)
        c.on_mark("decide", 1, time=0, value=[1.0, 2.0])
        records = c.to_records()
        validate_records(records)
        kinds = [r["kind"] for r in records]
        assert kinds == ["send", "deliver", "decide"]
        assert records[1]["cause"] == 0
        assert records[2]["fields"] == {"value": [1.0, 2.0]}

    def test_clear_resets_everything(self):
        c = CausalCollector(2)
        c.on_send(0, 1, "m", time=0)
        c.clear()
        assert not c.events and not c.edges
        assert c.pop_send(0, 1) is None


class TestIntegration:
    def test_run_records_consistent_dag(self):
        spec = RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11)
        collector = CausalCollector(6)
        with use_causal_collector(collector):
            outcome = run(spec)
        assert outcome.ok
        assert collector.events, "instrumented run recorded no events"
        by_eid = {e.eid: e for e in collector.events}
        # every deliver's cause is a send on the same link with the same tag
        for ev in collector.events:
            if ev.kind == "deliver" and ev.cause is not None:
                sent = by_eid[ev.cause]
                assert sent.kind == "send"
                assert (sent.src, sent.tag) == (ev.src, ev.tag)
        # every decided correct pid has a decide event whose cone contains
        # only messages delivered to it (its delivers all have dst == pid
        # or are upstream deliveries at other processes)
        graph = CausalGraph.from_source(collector)
        for pid in outcome.decisions:
            decide = graph.decide_eid(pid)
            assert decide is not None, f"pid {pid} decided without a mark"
            cone = set(graph.causal_cone(decide))
            own_delivers = [
                by_eid[eid] for eid in cone
                if by_eid[eid].kind == "deliver" and by_eid[eid].pid == pid
            ]
            assert own_delivers, "decide cone holds no deliveries at the pid"
            assert all(ev.dst == pid for ev in own_delivers)

    def test_collector_does_not_change_decisions(self):
        spec = RunSpec(algorithm="exact", n=6, d=2, f=1, seed=5)
        plain = run(spec)
        with use_causal_collector(CausalCollector(6)):
            traced = run(spec)
        assert {
            pid: v.tolist() for pid, v in plain.decisions.items()
        } == {pid: v.tolist() for pid, v in traced.decisions.items()}


class TestNullPath:
    def test_default_collector_is_null(self):
        assert get_causal_collector() is NULL_COLLECTOR
        assert not NULL_COLLECTOR.enabled

    def test_instrumented_sites_never_call_null_methods(self):
        # the contract is `if collector.enabled:` *before* any method
        # call; a null collector whose methods explode proves it
        class Exploding(NullCausalCollector):
            def _boom(self, *a, **k):
                raise AssertionError("hot loop called a disabled collector")

            on_send = pop_send = on_deliver = on_mark = _boom

        prev = set_causal_collector(Exploding())
        try:
            outcome = run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11))
        finally:
            set_causal_collector(prev)
        assert outcome.ok

    def test_null_path_allocates_nothing_in_causal_module(self):
        # micro-benchmark: with the null collector installed, the causal
        # module performs zero allocations during a full run
        import repro.obs.causal as causal_mod

        spec = RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11)
        run(spec)  # warm caches outside the measured window
        tracemalloc.start()
        try:
            run(spec)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        causal_allocs = snapshot.filter_traces([
            tracemalloc.Filter(True, causal_mod.__file__),
        ])
        assert sum(s.size for s in causal_allocs.statistics("filename")) == 0

    def test_note_decision_noop_when_disabled(self):
        note_decision(0, time=0)  # must not raise, must not record
        assert not NULL_COLLECTOR.events
