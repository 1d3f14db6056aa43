"""LiveNode's drivers and its inbound protocol: wake-ups, hostile bytes,
frame splitting, the run-to-completion bound, metric folds.

The receive path takes no lock and arms no timer per message; what wakes
a waiting driver is one event, set by every effective record *and* by a
link that fails permanently.  These tests pin the cases that event has
to cover, what the listener's protocol does with bytes no honest link
sends, and that folding the per-frame queue-wait samples in bulk gives
exactly the per-sample histogram.
"""

from __future__ import annotations

import asyncio
import pickle
import time

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.core.exact_bvc import ExactBVCProcess
from repro.obs.causal import CausalCollector
from repro.obs.metrics import MetricsRegistry
from repro.system.messages import ALL, BURST, Message, burst_copy
from repro.system.process import AsyncProcess
from repro.system.transport import wire
from repro.system.transport.base import TransportError
from repro.system.transport.live import (
    LiveNode,
    LiveTransport,
    NodeAddress,
    _fold_live_metrics,
    _Inbound,
)

from .sends import send_message


class Silent(AsyncProcess):
    """Sends nothing and never decides."""

    def on_start(self, ctx):
        pass

    def on_message(self, ctx, src, tag, payload):
        pass


class PingSelf(AsyncProcess):
    """Keeps its own inbox non-empty forever and never decides."""

    def on_start(self, ctx):
        ctx.send(ctx.pid, "ping", 0)

    def on_message(self, ctx, src, tag, payload):
        ctx.send(ctx.pid, "ping", payload + 1)


def v2_frame(record: tuple) -> bytes:
    """``record`` as the pickle wire (version 2) framed it."""
    body = pickle.dumps(record, protocol=4)
    return len(body).to_bytes(4, "big") + body


def make_nodes(tmp_path, processes, f=1) -> list[LiveNode]:
    n = len(processes)
    return [
        LiveNode(
            pid, n, f, processes[pid],
            NodeAddress(pid, "uds", path=str(tmp_path / f"n{pid}.sock")),
            instance="driver-test",
        )
        for pid in range(n)
    ]


def catch_loop_errors() -> list[dict]:
    """What the running loop's exception handler is handed from now on
    (a protocol callback that raises lands there)."""
    errors: list[dict] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )
    return errors


class TestDeadLinkWakesTheDriver:
    def _run_with_dead_link(self, tmp_path, processes) -> float:
        """Node 0's link to node 3 dials a socket nobody listens on and
        may fail once; returns how long the cluster took to raise."""

        async def go():
            nodes = make_nodes(tmp_path, processes)
            addresses = {}
            for node in nodes:
                addresses[node.node_id] = await node.start_server()
            for node in nodes:
                node.connect_peers(addresses)
            link = nodes[0]._links[3]
            link.max_dial_failures = 1
            link.dial = NodeAddress(
                3, "uds", path=str(tmp_path / "closed.sock")
            ).dialer()
            tasks = [asyncio.ensure_future(node.run()) for node in nodes]
            start = time.monotonic()
            try:
                with pytest.raises(
                    TransportError, match="failed permanently mid-run"
                ):
                    await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
                return time.monotonic() - start
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                for node in nodes:
                    await node.shutdown()

        return asyncio.run(go())

    def test_sync_barrier_raises_instead_of_waiting_for_run_timeout(self, tmp_path):
        # Regression: only ROUND / DECIDED records used to wake the
        # barrier, so node 0 — every *marker* it waits for arrives, its
        # own link to node 3 is what died — sat there until run_timeout.
        n, f, d = 4, 1, 2
        inputs = np.random.default_rng(4).normal(size=(n, d))
        processes = [ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)]
        assert self._run_with_dead_link(tmp_path, processes) < 5.0

    def test_async_driver_raises_without_waiting_for_traffic(self, tmp_path):
        # Nothing is ever delivered here: the failure itself must wake
        # the driver.
        assert self._run_with_dead_link(tmp_path, [Silent() for _ in range(4)]) < 5.0


class TestHostileConnection:
    """What a listener does with bytes no honest link would send: close
    the connection, deliver nothing, and raise nothing into the loop."""

    GOOD_MSG = (wire.MSG, 0, 1, 0, "iter", (1.0,), 0, None)

    def _feed(self, tmp_path, frames: list[bytes]):
        """Connect to a fresh node 0 (of three) as its peer 1, send
        ``frames``, read to EOF; returns the node and what the listener
        wrote back.  The node must have closed the connection itself,
        and its protocol must have raised nothing into the loop."""

        async def go():
            errors = catch_loop_errors()
            node = make_nodes(tmp_path, [None] * 3)[0]
            await node.start_server()
            reader, writer = await asyncio.open_unix_connection(
                node.address.path
            )
            writer.write(b"".join(frames))
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=1.0)
            writer.close()
            await asyncio.sleep(0)
            assert not node._inbound  # closed on our side too
            await node.shutdown()
            assert errors == []
            return node, answer

        return asyncio.run(go())

    @pytest.mark.parametrize(
        "hello",
        [
            wire.encode_record((wire.HELLO, 1, 1, "driver-test")),  # version 1
            # On the pickle wire these were an uncaught ValueError and a
            # wrong-typed id; now they are no record at all.
            v2_frame((wire.HELLO, 1, "two", "driver-test")),
            v2_frame((wire.HELLO, None, 2, "driver-test")),
            wire.encode_record((wire.HELLO, 1, wire.WIRE_VERSION, "another-run")),
            wire.encode_record(GOOD_MSG),
        ],
        ids=["v1", "str-version", "none-id", "instance", "not-a-hello"],
    )
    def test_bad_hello_gets_no_answer(self, tmp_path, hello):
        node, answer = self._feed(tmp_path, [hello, wire.encode_record(self.GOOD_MSG)])
        assert answer == b""  # closed before our HELLO went out
        assert node.wire_frames_received == 0

    @pytest.mark.parametrize(
        "record",
        [
            (wire.MSG, "0", 1, 0, "iter", (1.0,), 0, None),
            (wire.MSG, 1, 1, 0, "iter", (1.0,), 0, (42, 17)),
            (wire.ROUND, 1, "0", False),
            (wire.MSG, 1, 1, 0, "iter", (1.0,), 0),  # the version-1 shape
        ],
        ids=["str-link-seq", "2-element-stamp", "str-round", "7-tuple"],
    )
    def test_malformed_record_closes_the_connection(self, tmp_path, record):
        # Regression: a wrong-typed link_seq / round reached int() in
        # _on_record and ended the handler task with a ValueError.  No
        # typed frame carries one; the pickle wire's framing of it is no
        # record.
        with pytest.raises(wire.WireError):
            wire.encode_record(record)
        node, answer = self._feed(tmp_path, [
            wire.encode_hello(1, "driver-test"),
            wire.encode_record(self.GOOD_MSG),
            v2_frame(record),
            wire.encode_record((wire.DECIDED, 2, 1)),
        ])
        assert answer == wire.encode_hello(0, "driver-test")
        # The frame before the bad one arrived; nothing at or after it did.
        assert node.frames_received == 1
        assert [entry[0].payload for entry in node._inq] == [(1.0,)]
        assert node._peer_decided == {} and node._peer_round == {}

    @pytest.mark.parametrize(
        "hello_id", [3, -1, 0], ids=["past-n", "negative", "own-id"]
    )
    def test_hello_from_no_peer_gets_no_answer(self, tmp_path, hello_id):
        # Well-typed is not authentic: node 0 of three has peers 1 and 2.
        node, answer = self._feed(tmp_path, [
            wire.encode_hello(hello_id, "driver-test"),
            wire.encode_record(self.GOOD_MSG),
        ])
        assert answer == b""
        assert node.wire_frames_received == 0 and not node._inq

    @pytest.mark.parametrize(
        "record",
        [
            (wire.MSG, 1, 2, 0, "iter", (9.0,), 0, None),
            (wire.MSG, 1, 0, 0, "iter", (9.0,), 0, None),
            (wire.MSG, 1, 1, 2, "iter", (9.0,), 0, None),
            # a burst never crosses the wire: the route expands it
            (wire.MSG, 1, 1, BURST, "iter", (9.0,), 0, None),
        ],
        ids=["forged-src", "forged-own-src", "wrong-dst", "burst-dst"],
    )
    def test_forged_identity_closes_the_connection(self, tmp_path, record):
        # Regression: the async driver handed on_message the src the
        # record claimed, so peer 1 could speak for peer 2.
        node, answer = self._feed(tmp_path, [
            wire.encode_hello(1, "driver-test"),
            wire.encode_record(self.GOOD_MSG),
            wire.encode_record(record),
            wire.encode_record((wire.DECIDED, 2, 1)),
        ])
        assert answer == wire.encode_hello(0, "driver-test")
        # The refused frame left no trace: not counted, its seq still free.
        assert node.wire_frames_received == node.frames_received == 1
        assert node._last_seq == {1: 0}
        assert [entry[0].payload for entry in node._inq] == [(1.0,)]
        assert node._peer_decided == {}

    def test_broadcast_dst_is_accepted(self, tmp_path):
        # What an atomic broadcast carries on every link it fans out to.
        node = make_nodes(tmp_path, [None] * 3)[0]
        node._on_record(1, (wire.MSG, 0, 1, ALL, "abc", (1.0,), 0, None))
        assert node.frames_received == 1 and len(node._inq) == 1

    def test_forger_cannot_reach_a_handler_or_stop_the_run(self, tmp_path):
        """A connection that claims a legitimate id and then forges
        records, against a running cluster: no handler ever sees the
        forged src, the real peer's frames still arrive (a second HELLO
        for its id is a reconnect), and every node decides."""
        n = 4
        seen: list[tuple[int, int, object]] = []
        FORGED = (-1.0,)  # no honest Gossip sends it

        class Gossip(AsyncProcess):
            d = 1  # the door admits its 1-float "iter" payloads

            def on_start(self, ctx):
                self.heard: set[int] = set()
                ctx.broadcast("iter", (float(ctx.pid),))

            def on_message(self, ctx, src, tag, payload):
                seen.append((ctx.pid, src, payload))
                self.heard.add(src)
                if len(self.heard) == n:
                    ctx.decide(np.zeros(1))

        async def go():
            errors = catch_loop_errors()
            nodes = make_nodes(tmp_path, [Gossip() for _ in range(n)])
            addresses = {}
            for node in nodes:
                addresses[node.node_id] = await node.start_server()
            for node in nodes:
                node.connect_peers(addresses)
            reader, writer = await asyncio.open_unix_connection(
                nodes[0].address.path
            )
            writer.write(b"".join([
                wire.encode_hello(1, "driver-test"),
                wire.encode_record((wire.MSG, 0, 2, 0, "iter", FORGED, 0, None)),
                wire.encode_record((wire.MSG, 0, 1, 3, "iter", FORGED, 0, None)),
            ]))
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=1.0)  # closed on us
            writer.close()
            try:
                await asyncio.wait_for(
                    asyncio.gather(*(node.run() for node in nodes)), timeout=5.0
                )
            finally:
                for node in nodes:
                    await node.shutdown()
            assert errors == []
            return nodes

        nodes = asyncio.run(go())
        assert all(node.completed and node.ctx.decided for node in nodes)
        assert FORGED not in [payload for _, _, payload in seen]
        assert sorted((pid, src) for pid, src, _ in seen) == [
            (pid, src) for pid in range(n) for src in range(n)
        ]
        assert all(
            link.stats.reconnects == 0 and link.stats.retransmits == 0
            for node in nodes for link in node._peer_links
        )


class RecordingTransport:
    """What an inbound protocol writes and whether it closed."""

    def __init__(self):
        self.written = b""
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.written += data

    def close(self) -> None:
        self.closed = True


class TestInboundProtocol:
    """The listener's protocol, fed by hand: frame and read boundaries
    are unrelated, a bad prefix closes at once, and a torn tail dies with
    its connection."""

    FRAMES = [
        wire.encode_hello(1, "driver-test"),
        wire.encode_record((wire.MSG, 0, 1, 0, "iter", (1.0,), 0, None)),
        wire.encode_record((wire.MSG, 1, 1, ALL, "abc", (2.0, 3.0), 0, (4, 5, (1, 2, 3)))),
        wire.encode_record((wire.ROUND, 2, 0, True)),
        wire.encode_record((wire.DECIDED, 3, 1)),
    ]

    def _connect(self, tmp_path):
        node = make_nodes(tmp_path, [None] * 3)[0]
        seen: list[tuple] = []
        on_record = node._on_record

        def spy(peer_id, record):
            seen.append((peer_id, record))
            on_record(peer_id, record)

        node._on_record = spy
        transport = RecordingTransport()
        proto = _Inbound(node)
        proto.connection_made(transport)
        return node, proto, transport, seen

    def test_one_byte_at_a_time_gives_the_one_call_records(self, tmp_path):
        stream = b"".join(self.FRAMES)
        _, whole, whole_t, at_once = self._connect(tmp_path)
        whole.data_received(stream)
        _, trickle, trickle_t, by_byte = self._connect(tmp_path)
        for i in range(len(stream)):
            trickle.data_received(stream[i:i + 1])
        assert len(at_once) == len(self.FRAMES) - 1
        assert by_byte == at_once
        assert trickle_t.written == whole_t.written == wire.encode_hello(0, "driver-test")
        assert not whole_t.closed and not trickle_t.closed

    def test_oversized_prefix_closes_before_the_body_is_buffered(self, tmp_path):
        node, proto, transport, seen = self._connect(tmp_path)
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        proto.data_received(self.FRAMES[0] + self.FRAMES[1] + head[:3])
        assert not transport.closed and len(seen) == 1
        proto.data_received(head[3:] + b"x" * 64)
        assert transport.closed
        assert len(seen) == 1  # the frame before the prefix, nothing after
        # Nothing of the announced body was kept.
        assert proto.feed.__self__._buf == b""

    def test_torn_tail_is_dropped_and_the_sender_retransmits_it(self, tmp_path):
        # Over a real socket: the link's one write carries its first two
        # frames whole, tears the third in half and closes (the chaos
        # hook).  The listener drops the half frame when the connection
        # ends; the frame comes again, whole, on the next connection —
        # every frame arrives exactly once, in order.
        async def go():
            errors = catch_loop_errors()
            nodes = make_nodes(tmp_path, [None] * 2, f=0)
            for node in nodes:
                await node.start_server()
            nodes[0].connect_peers({node.node_id: node.address for node in nodes})
            link = nodes[0]._links[1]
            link.chaos_close_after, link.backoff_base = 2, 0.001
            link.start()
            receiver = nodes[1]
            deadline = asyncio.get_running_loop().time() + 5.0
            while link._proto is None:  # connected: the sends share a write
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            for i in range(4):
                assert send_message(link, Message(0, 1, "iter", (float(i),))) is None
            while receiver.frames_received < 4:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await link.close()
            for node in nodes:
                await node.shutdown()
            assert errors == []
            return receiver, link

        receiver, link = asyncio.run(go())
        assert [entry[0].payload for entry in receiver._inq] == [
            (0.0,), (1.0,), (2.0,), (3.0,)
        ]
        assert receiver.wire_frames_received == 4 and receiver.dupes_dropped == 0
        assert link.stats.chaos_closes == 1 and link.stats.reconnects == 1
        assert link.stats.retransmits == 1  # the torn frame, whole


class TestRunTimeout:
    def test_fires_on_an_idle_run_that_never_completes(self):
        transport = LiveTransport(kind="uds", run_timeout=0.3)
        start = time.monotonic()
        result = transport.run_async([Silent() for _ in range(3)], 0, seed=1)
        assert not result.completed
        assert result.decisions == {}
        assert time.monotonic() - start < 3.0

    def test_fires_on_a_node_whose_inbox_never_empties(self):
        # A driver that only yielded on an empty inbox would never give
        # the loop (hence the timeout, the writers and the co-hosted
        # nodes) a turn here; it yields every YIELD_EVERY deliveries.
        # (max_steps bounds the run if that ever regresses: the test
        # then fails on the clock instead of hanging the suite.)
        transport = LiveTransport(kind="uds", run_timeout=0.3)
        start = time.monotonic()
        result = transport.run_async(
            [PingSelf() for _ in range(3)], 0, seed=1, max_steps=3_000_000
        )
        assert not result.completed
        assert time.monotonic() - start < 3.0
        # Co-hosted nodes shared the loop rather than one starving the rest.
        assert all(ctx._seq > 64 for ctx in result.contexts.values())


class TestQueueWaitFold:
    SAMPLES = {
        0: {1: [3.5e-6, 0.0102, 4.0e-4], 2: [1.0e-6]},
        1: {0: [], 2: [7.25e-5, 7.25e-5]},
        2: {0: [0.5], 1: [2.0e-3, 1.0e-9, 3.3e-4, 9.9e-3]},
    }

    def _nodes(self, tmp_path) -> list[LiveNode]:
        nodes = make_nodes(tmp_path, [None] * 3, f=0)
        addresses = {node.node_id: node.address for node in nodes}
        for node in nodes:
            node.connect_peers(addresses)
            for peer_id, samples in self.SAMPLES[node.node_id].items():
                node._links[peer_id].stats.queue_wait_samples = list(samples)
        return nodes

    @staticmethod
    def _reference(per_link_samples) -> dict:
        registry = MetricsRegistry()
        for samples in per_link_samples:
            for sample in samples:
                registry.observe("net.live.queue_wait_us", sample * 1e6)
        return registry.histogram("net.live.queue_wait_us").as_dict()

    def test_node_fold_equals_per_sample_observation(self, tmp_path):
        for node in self._nodes(tmp_path):
            registry = MetricsRegistry()
            _fold_live_metrics(registry, [node])
            per_link = self.SAMPLES[node.node_id]
            folded = registry.histogram("net.live.queue_wait_us")
            assert folded.as_dict() == self._reference(
                per_link[p] for p in sorted(per_link)
            )
            assert folded.count == sum(len(s) for s in per_link.values())

    def test_cluster_merge_equals_per_sample_observation(self, tmp_path):
        nodes = self._nodes(tmp_path)
        merged = LiveTransport(kind="uds")._merge(nodes, [None] * 3, 0, ())
        expected = self._reference(
            self.SAMPLES[pid][p]
            for pid in sorted(self.SAMPLES)
            for p in sorted(self.SAMPLES[pid])
        )
        assert expected["count"] == 11
        got = merged.metrics.histogram("net.live.queue_wait_us").as_dict()
        assert got == expected


class TestOneReceiveQueue:
    @pytest.mark.parametrize(
        "algorithm,knobs,unread",
        [
            ("algo", dict(n=4, d=2, f=1), "_inq"),
            ("averaging", dict(n=4, d=2, f=1, epsilon=5e-2), "_pending_msgs"),
        ],
        ids=["sync", "async"],
    )
    def test_messages_go_only_to_the_drivers_queue(
        self, monkeypatch, algorithm, knobs, unread
    ):
        # A sync driver buckets messages by ROUND marker, an async one
        # pops _inq: a received message is held once, in the queue its
        # node's driver reads, never also in the other one.
        nodes: list[LiveNode] = []
        connect_peers = LiveNode.connect_peers

        def keep(self, addresses):
            nodes.append(self)
            connect_peers(self, addresses)

        monkeypatch.setattr(LiveNode, "connect_peers", keep)
        outcome = run(
            RunSpec(algorithm=algorithm, seed=16, transport="live-uds", **knobs)
        )
        assert outcome.ok, outcome.report
        assert len(nodes) == knobs["n"]
        assert all(node.frames_received > 0 for node in nodes)
        assert all(len(getattr(node, unread)) == 0 for node in nodes)


class TestWriteCoalescing:
    def test_a_write_carries_two_frames_or_more(self):
        # Each link corks what one loop callback sends and writes it once
        # when the callback ends: Bracha's echo / ready fan-out leaves
        # several frames per link per callback.
        outcome = run(
            RunSpec(
                algorithm="averaging", n=4, d=3, f=1, seed=2016,
                transport="live-uds",
            )
        )
        assert outcome.ok, outcome.report
        metrics = outcome.result.metrics
        writes = metrics.counter_value("net.live.writes")
        frames = metrics.counter_value("net.live.frames_sent")
        assert 0 < writes and writes * 2 <= frames, (writes, frames)


class TestBurstRoute:
    """``LiveNode._route`` hands a burst to its links encoded once."""

    BURST_MSG = Message(1, BURST, "iter", (1.0, 2.0), seq=10)

    def _route(self, tmp_path, msgs, collector=None):
        """Node 1 of three routes ``msgs`` to listening peers (under
        ``collector``, if given), then closes its links; returns it and
        what each peer received."""

        async def go():
            nodes = make_nodes(tmp_path, [Silent() for _ in range(3)])
            addresses = {}
            for node in nodes:
                addresses[node.node_id] = await node.start_server()
            node = nodes[1]
            if collector is not None:
                node.collector = collector
            node.connect_peers(addresses)
            for link in node._peer_links:
                link.start()
            await node._route(msgs)
            for link in node._peer_links:
                await link.close()
            await asyncio.sleep(0.05)  # the peers read the last bytes
            received = {
                peer.node_id: ([(tuple(m), meta) for m, meta in peer._inq], peer._last_seq)
                for peer in nodes if peer is not node
            }
            for peer in nodes:
                await peer.shutdown()
            return node, received

        return asyncio.run(go())

    def test_a_burst_accounts_as_its_copies(self, tmp_path):
        copies = [burst_copy(self.BURST_MSG, d) for d in range(3)]
        (tmp_path / "b").mkdir()
        (tmp_path / "c").mkdir()
        whole, whole_received = self._route(tmp_path / "b", [self.BURST_MSG])
        expanded, expanded_received = self._route(tmp_path / "c", copies)
        assert repr(whole.stats.as_dict()) == repr(expanded.stats.as_dict())
        assert whole.stats.messages_sent == 3
        assert [
            (link.stats.frames_sent, link.stats.bytes_sent, link._next_seq)
            for link in whole._peer_links
        ] == [
            (link.stats.frames_sent, link.stats.bytes_sent, link._next_seq)
            for link in expanded._peer_links
        ] == [(1, 40, 1), (1, 40, 1)]
        local = [(tuple(m), meta) for m, meta in whole._inq]
        assert local == [(tuple(m), meta) for m, meta in expanded._inq]
        assert local == [(tuple(copies[1]), None)]
        assert whole_received == expanded_received
        assert whole_received[2][0][0][0][:4] == (1, 2, "iter", (1.0, 2.0))

    def test_a_traced_burst_is_one_send_event_encoded_once(self, tmp_path, monkeypatch):
        # With a causal collector on, the burst is one send event: its
        # record is encoded once and carries that event's stamp to every
        # peer, and the event causes the local copy too.
        encoded = []
        shared_frame = wire.shared_frame

        def counting(record):
            encoded.append(record)
            return shared_frame(record)

        monkeypatch.setattr(wire, "shared_frame", counting)
        collector = CausalCollector(3)
        node, received = self._route(tmp_path, [self.BURST_MSG], collector)
        (send,) = collector.events
        assert (send.kind, send.src, send.dst, send.tag) == ("send", 1, BURST, "iter")
        assert len(encoded) == 1
        remote = ("remote", collector.stamp(send.eid))
        assert {peer: [(m[1], meta) for m, meta in inq]
                for peer, (inq, _) in received.items()} == {
            0: [(0, remote)], 2: [(2, remote)]
        }
        assert [(tuple(m), meta) for m, meta in node._inq] == [
            (tuple(burst_copy(self.BURST_MSG, 1)), ("local", send.eid))
        ]
        assert not collector._in_flight  # no delivery pops a live send

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("refused", ["layout", "size"])
    def test_a_refused_burst_moves_no_link(self, tmp_path, monkeypatch, traced, refused):
        # The record encodes before any link takes a copy: a refusal
        # leaves every link's sequence and queue, and the local inbox,
        # as they were, with no partial broadcast.
        payload = [1.0, 2.0]
        if refused == "size":
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
            payload = (0.0,) * 16
        node = make_nodes(tmp_path, [Silent() for _ in range(3)])[0]
        node.connect_peers({
            pid: NodeAddress(pid, "uds", path=str(tmp_path / f"n{pid}.sock"))
            for pid in range(3)
        })
        if traced:
            node.collector = CausalCollector(3)

        async def go():
            with pytest.raises(wire.WireError):
                await node._route([Message(0, BURST, "iter", payload)])

        asyncio.run(go())
        assert [(link._next_seq, len(link._queue)) for link in node._peer_links] == [
            (0, 0), (0, 0)
        ]
        assert not node._inq
