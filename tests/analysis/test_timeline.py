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
