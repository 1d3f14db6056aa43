"""Wire-vs-effective delivery accounting and causal stamping in LiveNode.

Retransmitted frames (reconnect replay) arrive on the wire but must be
invisible to everything downstream: delivery stats, causal deliver
events, and the ``net.live.*`` effective-delivery counters all count a
frame at most once.  The split is pinned by two counters —
``wire_frames_received`` (pre-dedup) and ``frames_received``
(post-dedup) — whose difference is exactly ``dupes_dropped``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.core.exact_bvc import ExactBVCProcess
from repro.obs.causal import CausalCollector, use_causal_collector
from repro.obs.metrics import MetricsRegistry
from repro.system.messages import Message
from repro.system.transport import wire
from repro.system.transport.live import LiveNode, LiveTransport, NodeAddress

INSTANCE = "dedup-test"


def make_node(tmp_path, **kwargs) -> LiveNode:
    return LiveNode(
        0, 2, 0, process=None,
        address=NodeAddress(0, "uds", path=str(tmp_path / "n0.sock")),
        instance=INSTANCE,
        **kwargs,
    )


def replay(node: LiveNode, record: tuple, times: int) -> None:
    for _ in range(times):
        node._on_record(1, record)


class TestDeliveryDedup:
    def test_wire_vs_effective_counters(self, tmp_path):
        node = make_node(tmp_path)
        record = wire.decode_body(
            wire.encode_message(Message(1, 0, "bc:1", (1.0,)), 0)[4:]
        )
        replay(node, record, 3)  # original + two retransmits
        assert node.wire_frames_received == 3
        assert node.frames_received == 1
        assert node.dupes_dropped == 2
        assert (
            node.wire_frames_received
            == node.frames_received + node.dupes_dropped
        )

    def test_duplicate_never_reaches_delivery_stats_or_collector(self, tmp_path):
        # Deliveries are stamped at consumption, from the deduped buffer:
        # a retransmitted frame contributes zero deliver events and zero
        # delivery-stat increments even with tracing on.
        collector = CausalCollector(2)
        with use_causal_collector(collector):
            node = make_node(tmp_path)
            stamp = (0, 1, (0, 1))
            record = wire.decode_body(
                wire.encode_message(Message(1, 0, "bc:1", (1.0,)), 0, stamp)[4:]
            )
            replay(node, record, 2)
            for msg, meta in node._pending_msgs.pop(1):
                node._deliver_one(msg, meta, 0)
        assert node.stats.messages_delivered == 1
        delivers = [e for e in collector.events if e.kind == "deliver"]
        assert len(delivers) == 1
        assert delivers[0].fields["origin"] == [1, 0]

    def test_fold_exposes_the_invariant_as_metrics(self, tmp_path):
        node = make_node(tmp_path)
        record = wire.decode_body(
            wire.encode_message(Message(1, 0, "bc:1", (1.0,)), 0)[4:]
        )
        replay(node, record, 2)
        registry = MetricsRegistry()
        node._fold_live_metrics(registry)
        wire_n = registry.counter_value("net.live.wire_frames_received")
        effective = registry.counter_value("net.live.frames_received")
        dupes = registry.counter_value("net.live.dupes_dropped")
        assert (wire_n, effective, dupes) == (2, 1, 1)


class TestChaosReconnectInvariant:
    def test_invariant_holds_across_a_forced_reconnect(self):
        # Full cluster with a chaos-closed link: whatever mix of
        # retransmits and duplicates the reconnect produces, the wire
        # ledger must balance on the merged metrics.
        transport = LiveTransport(
            kind="uds", chaos_drop_link=(0, 1), chaos_drop_after=2
        )
        n, f, d = 5, 1, 2
        inputs = np.random.default_rng(5).normal(size=(n, d))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        result = transport.run_sync(processes, f, seed=5)
        assert result.completed
        m = result.metrics
        assert m.counter_value("net.live.reconnects") >= 1
        assert m.counter_value("net.live.retransmits") >= 1
        assert m.counter_value("net.live.wire_frames_received") == (
            m.counter_value("net.live.frames_received")
            + m.counter_value("net.live.dupes_dropped")
        )
        # Effective deliveries drive the protocol-level stats: the sum of
        # per-tag deliveries cannot exceed effective MSG frames plus
        # self-deliveries (which never touch the wire).
        assert result.stats.messages_delivered <= (
            m.counter_value("net.live.frames_received")
            + result.stats.messages_sent
        )


class DyingWriter:
    """Wraps a link's StreamWriter: the first multi-frame batch is cut
    three bytes short — so the peer gets some whole frames and a torn
    one — and the connection then dies in ``drain()``.  The sender cannot
    tell how much arrived and must retransmit the whole batch."""

    def __init__(self, real, state: dict):
        self.real = real
        self.state = state
        self.dying = False

    def write(self, data: bytes) -> None:
        if not self.state["fired"] and _frame_count(data) >= 2:
            self.state["fired"] = True
            self.state["frames"] = _frame_count(data)
            self.dying = True
            data = data[:-3]
        self.real.write(data)

    async def drain(self) -> None:
        await self.real.drain()
        if self.dying:
            self.real.close()
            raise ConnectionResetError("test: connection died mid-batch")

    def close(self) -> None:
        self.real.close()

    async def wait_closed(self) -> None:
        await self.real.wait_closed()


def _frame_count(data: bytes) -> int:
    count, pos = 0, 0
    while pos < len(data):
        pos += 4 + struct.unpack_from("!I", data, pos)[0]
        count += 1
    return count


class TestConnectionKilledMidBatch:
    @pytest.mark.parametrize(
        "algorithm,knobs",
        [
            ("algo", dict(n=4, d=2, f=1)),  # sync: round barrier
            ("averaging", dict(n=4, d=2, f=1, epsilon=5e-2)),  # async
        ],
        ids=["sync", "async"],
    )
    def test_whole_batch_retransmit_is_exactly_once(
        self, monkeypatch, algorithm, knobs
    ):
        state = {"fired": False, "frames": 0}
        arrivals: list[int] = []  # seqs node 1 sees from node 0, pre-dedup

        connect_peers = LiveNode.connect_peers

        def connect_with_dying_link(self, addresses):
            connect_peers(self, addresses)
            if self.node_id == 0:
                link = self._links[1]
                dial = link.dial

                async def dying_dial():
                    reader, writer = await dial()
                    return reader, DyingWriter(writer, state)

                link.dial = dying_dial
                link.backoff_base = 0.001

        on_record = LiveNode._on_record

        def spy(self, peer_id, record):
            if self.node_id == 1 and peer_id == 0:
                arrivals.append(int(record[1]))
            on_record(self, peer_id, record)

        monkeypatch.setattr(LiveNode, "connect_peers", connect_with_dying_link)
        monkeypatch.setattr(LiveNode, "_on_record", spy)

        outcome = run(
            RunSpec(algorithm=algorithm, seed=16, transport="live-uds", **knobs)
        )
        assert state["fired"], "no multi-frame batch on the 0->1 link"
        assert outcome.result.completed
        assert outcome.ok, outcome.report
        m = outcome.result.metrics
        dupes = m.counter_value("net.live.dupes_dropped")
        # All of the torn batch but its last frame arrived twice.
        assert dupes == state["frames"] - 1
        assert m.counter_value("net.live.retransmits") == state["frames"]
        assert m.counter_value("net.live.reconnects") == 1
        assert m.counter_value("net.live.wire_frames_received") == (
            m.counter_value("net.live.frames_received") + dupes
        )
        # Exactly once: every frame any link sent was effectively
        # received once, and node 1 saw each seq of the torn link, in
        # order, with only the torn batch's head repeated.
        assert m.counter_value("net.live.frames_sent") == (
            m.counter_value("net.live.frames_received")
        )
        assert sorted(set(arrivals)) == list(range(max(arrivals) + 1))
        assert len(arrivals) - len(set(arrivals)) == dupes
        firsts = [s for i, s in enumerate(arrivals) if s not in arrivals[:i]]
        assert firsts == sorted(firsts)


class TestLiveCausalStamping:
    def test_remote_delivers_carry_origin_and_digests(self):
        # End-to-end over live-uds: sends are stamped on the wire and the
        # receiver's deliver events resolve their remote origin.
        collector = CausalCollector(4)
        n, f, d = 4, 1, 2
        inputs = np.random.default_rng(9).normal(size=(n, d))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        with use_causal_collector(collector):
            result = LiveTransport(kind="uds").run_sync(processes, f, seed=9)
        assert result.completed
        sends = [e for e in collector.events if e.kind == "send"]
        delivers = [e for e in collector.events if e.kind == "deliver"]
        assert sends and delivers
        assert all("digest" in e.fields for e in sends)
        remote = [e for e in delivers if "origin" in e.fields]
        assert remote, "no cross-node deliveries were stamped"
        for ev in remote:
            origin_node, origin_eid = ev.fields["origin"]
            assert collector.events[origin_eid].kind == "send"
            assert collector.events[origin_eid].pid == origin_node
            # Causality: the deliver is strictly after its send.
            assert ev.lamport > collector.events[origin_eid].lamport
