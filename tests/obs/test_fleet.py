"""Fleet stitching and post-hoc probes over synthetic per-node trails.

Trails here are built from *real* per-node CausalCollectors — one
collector per simulated OS process, remote deliveries stamped through
``on_deliver_remote`` exactly as the live transport does — then written
as schema-2 JSONL and stitched back.  That keeps the tests honest about
the only contract that matters: what a node writes, fleet can read.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.runspec import RunSpec
from repro.obs.causal import CausalCollector
from repro.obs.fleet import (
    aggregate_metrics,
    discover_trails,
    fleet_probes,
    load_trail,
    load_trails,
    stitch,
)
from repro.system.messages import BURST

SEED, N, D, SCALE = 7, 2, 2, 1.0


def dump_trail(path, records) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(json.dumps(rec) + "\n")
    return str(path)


def header(pid: int, wall_time: float = 100.0) -> dict:
    return {
        "type": "header", "schema": 2,
        "run_id": f"test-n{pid}", "wall_time": wall_time,
    }


def topology_event(pid: int) -> dict:
    # What run_node logs: the topology document's run knobs, verbatim.
    spec = RunSpec(algorithm="averaging", n=N, d=D, f=0, seed=SEED,
                   input_scale=SCALE, epsilon=0.05, rounds=3)
    return {
        "type": "event", "t": 0.0, "name": "transport.node.topology",
        "level": "info",
        "fields": {"pid": pid, "instance": "test", "kind": "uds",
                   **spec.to_document()},
    }


def decision_event(pid: int, decision) -> dict:
    return {
        "type": "event", "t": 1.0, "name": "transport.node.decision",
        "level": "info",
        "fields": {
            "pid": pid, "decided": True,
            "decision": list(decision), "rounds": 3,
            "completed": True, "delta_used": None,
        },
    }


def two_node_collectors():
    """Node 0 sends one stamped message, node 1 delivers it remotely."""
    c0, c1 = CausalCollector(N), CausalCollector(N)
    e0 = c0.on_send(0, 1, "bc:0", time=0, digest="aaaa", round=0)
    origin_eid, lamport, clock = c0.stamp(e0)
    c1.on_send(1, 0, "bc:1", time=0, digest="bbbb", round=0)
    c1.on_deliver_remote(
        1, 0, origin_eid, lamport, clock, src=0, tag="bc:0", time=1
    )
    return c0, c1


def write_cluster(tmp_path, decisions=None):
    c0, c1 = two_node_collectors()
    if decisions is None:
        decisions = {0: [0.0, 0.0], 1: [0.0, 0.0]}
    paths = []
    for pid, coll in ((0, c0), (1, c1)):
        records = [header(pid), topology_event(pid),
                   decision_event(pid, decisions[pid])]
        records.extend(coll.to_records())
        paths.append(dump_trail(tmp_path / f"trail-n{pid}.jsonl", records))
    return paths


class TestLoading:
    def test_node_id_from_topology_event(self, tmp_path):
        paths = write_cluster(tmp_path)
        trail = load_trail(paths[1])
        assert trail.node_id == 1
        assert trail.run_id == "test-n1"

    def test_node_id_falls_back_to_run_id_suffix(self, tmp_path):
        c0, _ = two_node_collectors()
        path = dump_trail(
            tmp_path / "t.jsonl", [header(3)] + c0.to_records()
        )
        assert load_trail(path).node_id == 3

    def test_duplicate_node_ids_rejected(self, tmp_path):
        c0, _ = two_node_collectors()
        a = dump_trail(tmp_path / "a.jsonl", [header(0)] + c0.to_records())
        b = dump_trail(tmp_path / "b.jsonl", [header(0)] + c0.to_records())
        with pytest.raises(ValueError, match="two trails claim node 0"):
            load_trails([a, b])

    def test_discover_is_sorted_jsonl_glob(self, tmp_path):
        write_cluster(tmp_path)
        (tmp_path / "notes.txt").write_text("ignored")
        found = discover_trails(str(tmp_path))
        assert [p.rsplit("/", 1)[1] for p in found] == [
            "trail-n0.jsonl", "trail-n1.jsonl",
        ]


class TestStitch:
    def test_cross_node_edge_is_stitched(self, tmp_path):
        trails = load_trails(write_cluster(tmp_path))
        graph, report = stitch(trails)
        assert report.complete
        assert report.nodes == (0, 1)
        assert report.stitched_edges == 1
        assert report.orphan_delivers == 0
        assert report.wall_time_skew == 0.0
        # The remote deliver's cause now points at node 0's send, under
        # the merged numbering, and the order is a valid topological one.
        delivers = [e for e in graph.events if e["kind"] == "deliver"]
        (deliver,) = delivers
        cause = graph.events[deliver["cause"]]
        assert cause["kind"] == "send" and cause["pid"] == 0
        assert deliver["lamport"] > cause["lamport"]
        eids = [e["eid"] for e in graph.events]
        assert eids == list(range(len(eids)))

    def test_missing_sender_trail_counts_orphans(self, tmp_path):
        paths = write_cluster(tmp_path)
        (graph, report) = stitch(load_trails(paths[1:]))  # node 0 absent
        assert report.orphan_delivers == 1
        assert not report.complete

    def test_retransmitted_deliver_deduplicated(self, tmp_path):
        paths = write_cluster(tmp_path)
        # Simulate an older writer that logged a retransmit: append a
        # copy of the remote deliver (same origin pair, fresh eid).
        lines = [json.loads(s) for s in open(paths[1])]
        dupe = dict(next(
            r for r in lines
            if r.get("type") == "causal" and r.get("kind") == "deliver"
        ))
        dupe["eid"] = max(
            r["eid"] for r in lines if r.get("type") == "causal"
        ) + 1
        dupe["lamport"] += 1
        dump_trail(paths[1], lines + [dupe])
        graph, report = stitch(load_trails(paths))
        assert report.duplicate_delivers_dropped == 1
        assert report.stitched_edges == 1
        assert sum(1 for e in graph.events if e["kind"] == "deliver") == 1


class TestFleetProbes:
    def _honest_decision(self):
        inputs = np.random.default_rng(SEED).normal(scale=SCALE, size=(N, D))
        return inputs.mean(axis=0)

    def test_honest_run_is_clean(self, tmp_path):
        mean = self._honest_decision()
        paths = write_cluster(
            tmp_path, decisions={0: list(mean), 1: list(mean)}
        )
        trails = load_trails(paths)
        graph, _ = stitch(trails)
        reports, context = fleet_probes(trails, graph)
        assert [r.name for r in reports] == [
            "validity", "agreement", "broadcast",
        ]
        assert all(r.ok for r in reports), [r.to_dict() for r in reports]
        assert context["algorithm"] == "averaging"
        assert context["decided_nodes"] == [0, 1]

    def test_split_brain_injection_trips_probes(self, tmp_path):
        mean = self._honest_decision()
        paths = write_cluster(
            tmp_path, decisions={0: list(mean), 1: list(mean)}
        )
        trails = load_trails(paths)
        graph, _ = stitch(trails)
        reports, context = fleet_probes(trails, graph, inject="split-brain")
        by_name = {r.name: r for r in reports}
        assert not by_name["validity"].ok
        assert not by_name["agreement"].ok
        assert context["inject"] == "split-brain"

    def test_equivocating_sender_trips_broadcast_probe(self, tmp_path):
        # One logical broadcast instance, two receivers, two digests.
        c0 = CausalCollector(3)
        c0.on_send(0, 1, "bc:0", time=0, digest="aaaa", round=0)
        c0.on_send(0, 2, "bc:0", time=0, digest="ffff", round=0)
        mean = self._honest_decision()
        path = dump_trail(
            tmp_path / "t-n0.jsonl",
            [header(0), topology_event(0), decision_event(0, mean)]
            + c0.to_records(),
        )
        trails = load_trails([path])
        graph, _ = stitch(trails)
        reports, _ = fleet_probes(trails, graph, names=("broadcast",))
        (report,) = reports
        assert report.checks == 1
        assert not report.ok
        assert "distinct payload digests" in report.violations[0].detail

    def test_resend_to_same_receiver_is_not_equivocation(self, tmp_path):
        # A second, different payload to the *same* receiver is
        # sequencing; every receiver still saw one face per instance.
        c0 = CausalCollector(3)
        c0.on_send(0, 1, "bc:0", time=0, digest="aaaa", round=0)
        c0.on_send(0, 1, "bc:0", time=1, digest="bbbb", round=0)
        c0.on_send(0, 2, "bc:0", time=1, digest="aaaa", round=0)
        path = dump_trail(
            tmp_path / "t-n0.jsonl",
            [header(0), topology_event(0),
             decision_event(0, self._honest_decision())] + c0.to_records(),
        )
        trails = load_trails([path])
        graph, _ = stitch(trails)
        (report,) = fleet_probes(trails, graph, names=("broadcast",))[0]
        assert report.checks == 1 and report.ok

    def _broadcast_report(self, tmp_path, collector):
        path = dump_trail(
            tmp_path / "t-n0.jsonl",
            [header(0), topology_event(0),
             decision_event(0, self._honest_decision())] + collector.to_records(),
        )
        trails = load_trails([path])
        graph, _ = stitch(trails)
        (report,) = fleet_probes(trails, graph, names=("broadcast",))[0]
        return report

    def test_a_burst_is_sent_to_every_receiver(self, tmp_path):
        # One send event stands for a copy to each of the 3 processes.
        c0 = CausalCollector(3)
        c0.on_send(0, BURST, "bc:0", time=0, digest="aaaa", round=0)
        report = self._broadcast_report(tmp_path, c0)
        assert report.checks == 1 and report.ok

    def test_a_burst_and_a_send_with_another_digest_trip_the_probe(self, tmp_path):
        # Receiver 2 first gets one face point to point, receivers 0 and
        # 1 first get another from the burst: one instance, two faces.
        c0 = CausalCollector(3)
        c0.on_send(0, 2, "bc:0", time=0, digest="ffff", round=0)
        c0.on_send(0, BURST, "bc:0", time=0, digest="aaaa", round=0)
        report = self._broadcast_report(tmp_path, c0)
        assert report.checks == 1
        assert not report.ok
        assert "distinct payload digests" in report.violations[0].detail

    def test_trails_without_topology_event_are_an_error(self, tmp_path):
        c0, _ = two_node_collectors()
        path = dump_trail(
            tmp_path / "t.jsonl", [header(0)] + c0.to_records()
        )
        with pytest.raises(ValueError, match="topology"):
            fleet_probes(load_trails([path]))


    @pytest.mark.parametrize(
        "edit",
        [
            lambda f: f.pop("epsilon"),            # was a KeyError
            lambda f: f.update(seed=str(SEED)),    # was cast and believed
            lambda f: f.update(n=None),
            lambda f: f.update(adversary="none"),
        ],
        ids=["missing-knob", "str-seed", "null-n", "unknown-knob"],
    )
    def test_malformed_topology_event_is_an_error(self, tmp_path, edit):
        # The event is read through the table the topology file is read
        # through: a trail is outside input, not this program's memory.
        event = topology_event(0)
        edit(event["fields"])
        path = dump_trail(
            tmp_path / "t-n0.jsonl",
            [header(0), event, decision_event(0, self._honest_decision())],
        )
        with pytest.raises(ValueError, match="run knob"):
            fleet_probes(load_trails([path]))


class TestAggregateMetrics:
    def _trail(self, tmp_path, pid, metrics):
        return load_trail(dump_trail(
            tmp_path / f"m-n{pid}.jsonl",
            [header(pid), {"type": "metrics", "metrics": metrics}]
            + CausalCollector(1).to_records(),
        ))

    def test_counters_sum_gauges_envelope_histograms_merge(self, tmp_path):
        a = self._trail(tmp_path, 0, {
            "net.live.frames_sent": {"type": "counter", "value": 10},
            "net.live.queue_depth_peak": {
                "type": "gauge", "value": 3, "max": 3, "min": 1, "updates": 2,
            },
            "net.live.queue_wait_us": {
                "type": "histogram", "count": 2, "total": 30.0,
                "mean": 15.0, "min": 10.0, "max": 20.0,
                "p50": 15.0, "p90": 19.0, "p99": 20.0,
            },
        })
        b = self._trail(tmp_path, 1, {
            "net.live.frames_sent": {"type": "counter", "value": 5},
            "net.live.queue_depth_peak": {
                "type": "gauge", "value": 7, "max": 7, "min": 2, "updates": 1,
            },
            "net.live.queue_wait_us": {
                "type": "histogram", "count": 2, "total": 10.0,
                "mean": 5.0, "min": 4.0, "max": 6.0,
                "p50": 5.0, "p90": 6.0, "p99": 6.0,
            },
        })
        merged = aggregate_metrics([a, b])
        assert merged["net.live.frames_sent"]["value"] == 15
        gauge = merged["net.live.queue_depth_peak"]
        assert (gauge["value"], gauge["max"], gauge["min"]) == (7, 7, 1)
        assert gauge["updates"] == 3
        hist = merged["net.live.queue_wait_us"]
        assert hist["count"] == 4
        assert hist["total"] == 40.0
        assert hist["mean"] == 10.0
        assert (hist["min"], hist["max"]) == (4.0, 20.0)
        # the nodes' quantiles do not determine the merged samples' (the
        # p99 of {10, 20, 4, 6} is 19.7; a count-weighted mean says 13.0)
        assert not {"p50", "p90", "p99"} & set(hist)
