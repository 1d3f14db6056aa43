"""Decision provenance: causal graph reconstruction and rendering."""

from __future__ import annotations

import json

import pytest

from repro.analysis.timeline import (
    CausalGraph,
    causal_records,
    cone_json,
    render_dot,
    render_explanation,
    render_timeline,
)
from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.obs.causal import CausalCollector, use_causal_collector
from repro.system.messages import ALL, BURST


@pytest.fixture(scope="module")
def traced():
    collector = CausalCollector(6)
    with use_causal_collector(collector):
        outcome = run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11))
    assert outcome.ok
    return collector, outcome


class TestCausalGraph:
    def test_graph_matches_collector(self, traced):
        collector, _ = traced
        graph = CausalGraph.from_source(collector)
        assert len(graph) == len(collector.events)
        # vector clocks characterise happens-before exactly: the cone of a
        # decide is every event whose clock its clock dominates
        decide = collector.events[graph.decide_eid(0)]
        by_clock = [
            ev.eid for ev in collector.events
            if all(a <= b for a, b in zip(ev.clock, decide.clock))
        ]
        assert graph.causal_cone(decide.eid) == by_clock

    def test_from_jsonl_records(self, traced):
        collector, _ = traced
        graph = CausalGraph(causal_records(collector.to_records()))
        assert len(graph) == len(collector.events)

    def test_decided_pids(self, traced):
        collector, outcome = traced
        graph = CausalGraph.from_source(collector)
        assert set(graph.decided_pids()) == set(outcome.decisions)

    def test_sparse_eids_rejected(self):
        records = [
            {"type": "causal", "eid": 0, "kind": "send", "pid": 0,
             "lamport": 1, "clock": [1], "time": 0, "src": 0, "dst": 1,
             "tag": "m"},
            {"type": "causal", "eid": 5, "kind": "decide", "pid": 1,
             "lamport": 2, "clock": [1, 1], "time": 0},
        ]
        with pytest.raises(ValueError):
            CausalGraph(records)


class TestRenderers:
    def test_explanation_mentions_cone_and_decide(self, traced):
        collector, _ = traced
        text = render_explanation(collector, 0)
        assert "causal cone" in text
        assert "decide" in text

    def test_timeline_groups_rounds(self, traced):
        collector, _ = traced
        text = render_timeline(collector, pids=(0, 1))
        assert "t=0" in text

    def test_cone_json_shape(self, traced):
        collector, _ = traced
        doc = cone_json(collector, 0)
        json.dumps(doc)  # serialisable
        assert doc["pid"] == 0
        assert 0 < doc["cone_size"] <= doc["total_events"]
        assert all("eid" in e for e in doc["events"])
        # only the cone's events are exported
        eids = {e["eid"] for e in doc["events"]}
        assert len(eids) == doc["cone_size"]
        assert all(a in eids and b in eids for a, b in doc["edges"])

    def test_dot_output_is_a_digraph(self, traced):
        collector, _ = traced
        dot = render_dot(collector, pid=0)
        assert dot.startswith("digraph")
        assert "->" in dot

    def test_explain_unknown_pid_reports_gracefully(self, traced):
        collector, _ = traced
        text = render_explanation(collector, 99)
        assert "no decide event" in text


class TestBurstSend:
    """A burst (``dst = BURST``) is one send event: the renderers show a
    broadcast of one copy to each process, not an atomic ``ALL``."""

    @staticmethod
    def records():
        def ev(eid, kind, pid, clock, **more):
            return {"type": "causal", "eid": eid, "kind": kind, "pid": pid,
                    "lamport": max(clock), "clock": clock, "time": 0, **more}

        return [
            ev(0, "send", 1, [0, 1, 0], src=1, dst=BURST, tag="bc:1"),
            ev(1, "send", 1, [0, 2, 0], src=1, dst=ALL, tag="abc"),
            *(ev(2 + pid, "deliver", pid, [0, 2, 0], src=1, dst=pid,
                 tag="bc:1", cause=0) for pid in range(3)),
            ev(5, "deliver", 0, [2, 2, 0], src=1, dst=0, tag="abc", cause=1),
            ev(6, "decide", 0, [3, 2, 0]),
        ]

    def test_cone_names_a_broadcast_of_n_copies(self):
        text = render_explanation(self.records(), 0)
        assert "[pid 1] broadcast 1->0..2 (3 copies) tag='bc:1'" in text
        assert "send 1->ALL tag='abc'" in text
        assert "-2" not in text

    def test_dot_names_a_broadcast_of_n_copies(self):
        dot = render_dot(self.records(), pid=0)
        assert 'e0 [label="e0\\nbroadcast x3 t=0\\nbc:1", shape=box]' in dot
        assert 'e1 [label="e1\\nsend t=0\\nabc", shape=box]' in dot
        assert "e0 -> e2;" in dot

    def test_a_run_renders_its_bursts_as_broadcasts(self, traced):
        collector, _ = traced
        bursts = [ev for ev in collector.events if ev.kind == "send" and ev.dst == BURST]
        assert bursts
        graph = CausalGraph.from_source(collector)
        assert graph.n == 6
        cone = graph.causal_cone(graph.decide_eid(0))
        assert any(graph.events[e]["dst"] == BURST for e in cone)
        text = render_explanation(collector, 0, max_events=len(cone))
        assert "(6 copies)" in text and "->ALL" not in text
        assert "broadcast x6" in render_dot(collector, pid=0)
