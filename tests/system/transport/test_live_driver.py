"""LiveNode's drivers: wake-ups, the run-to-completion bound, metric folds.

The receive path takes no lock and arms no timer per message; what wakes
a waiting driver is one event, set by every effective record *and* by a
link that fails permanently.  These tests pin the cases that event has
to cover, and that folding the per-frame queue-wait samples in bulk
gives exactly the per-sample histogram.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.exact_bvc import ExactBVCProcess
from repro.obs.metrics import MetricsRegistry
from repro.system.messages import ALL
from repro.system.process import AsyncProcess
from repro.system.transport import wire
from repro.system.transport.base import TransportError
from repro.system.transport.live import LiveNode, LiveTransport, NodeAddress


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
    the connection, deliver nothing, and end its handler task cleanly."""

    GOOD_MSG = (wire.MSG, 0, 1, 0, "bc:1", (1.0,), 0, None)

    def _feed(self, tmp_path, frames: list[bytes]):
        """Connect to a fresh node 0 (of three) as its peer 1, send
        ``frames``, read to EOF; returns the node and what the listener
        wrote back."""

        async def go():
            node = make_nodes(tmp_path, [None] * 3)[0]
            await node.start_server()
            reader, writer = await asyncio.open_unix_connection(
                node.address.path
            )
            writer.write(b"".join(frames))
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=1.0)
            writer.close()
            (task,) = node._serve_tasks
            await asyncio.wait_for(task, timeout=1.0)
            assert task.exception() is None
            await node.shutdown()
            return node, answer

        return asyncio.run(go())

    @pytest.mark.parametrize(
        "hello",
        [
            (wire.HELLO, 1, 1, "driver-test"),      # version 1: refused now
            (wire.HELLO, 1, "two", "driver-test"),  # was an uncaught ValueError
            (wire.HELLO, None, 2, "driver-test"),
            (wire.HELLO, 1, 2, "another-run"),
            GOOD_MSG,
        ],
        ids=["v1", "str-version", "none-id", "instance", "not-a-hello"],
    )
    def test_bad_hello_gets_no_answer(self, tmp_path, hello):
        node, answer = self._feed(
            tmp_path, [wire.encode_record(hello), wire.encode_record(self.GOOD_MSG)]
        )
        assert answer == b""  # closed before our HELLO went out
        assert node.wire_frames_received == 0

    @pytest.mark.parametrize(
        "record",
        [
            (wire.MSG, "0", 1, 0, "bc:1", (1.0,), 0, None),
            (wire.MSG, 1, 1, 0, "bc:1", (1.0,), 0, (42, 17)),
            (wire.ROUND, 1, "0", False),
            (wire.MSG, 1, 1, 0, "bc:1", (1.0,), 0),  # the version-1 shape
        ],
        ids=["str-link-seq", "2-element-stamp", "str-round", "7-tuple"],
    )
    def test_malformed_record_closes_the_connection(self, tmp_path, record):
        # Regression: a wrong-typed link_seq / round reached int() in
        # _on_record and ended the handler task with a ValueError.
        node, answer = self._feed(tmp_path, [
            wire.encode_hello(1, "driver-test"),
            wire.encode_record(self.GOOD_MSG),
            wire.encode_record(record),
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
            (wire.MSG, 1, 2, 0, "bc:2", (9.0,), 0, None),
            (wire.MSG, 1, 0, 0, "bc:0", (9.0,), 0, None),
            (wire.MSG, 1, 1, 2, "bc:1", (9.0,), 0, None),
        ],
        ids=["forged-src", "forged-own-src", "wrong-dst"],
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

        class Gossip(AsyncProcess):
            def on_start(self, ctx):
                self.heard: set[int] = set()
                ctx.broadcast("hi", ctx.pid)

            def on_message(self, ctx, src, tag, payload):
                seen.append((ctx.pid, src, payload))
                self.heard.add(src)
                if len(self.heard) == n:
                    ctx.decide(np.zeros(1))

        async def go():
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
                wire.encode_record((wire.MSG, 0, 2, 0, "hi", "forged", 0, None)),
                wire.encode_record((wire.MSG, 0, 1, 3, "hi", "forged", 0, None)),
            ]))
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=1.0)  # closed on us
            writer.close()
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(*(node.run() for node in nodes)), timeout=5.0
                )
            finally:
                for node in nodes:
                    await node.shutdown()
            for node in nodes:
                assert all(t.exception() is None for t in node._serve_tasks)
            return nodes, results

        nodes, results = asyncio.run(go())
        assert all(node.completed and result.decisions for node, result in zip(nodes, results))
        assert "forged" not in [payload for _, _, payload in seen]
        assert sorted((pid, src) for pid, src, _ in seen) == [
            (pid, src) for pid in range(n) for src in range(n)
        ]
        assert all(
            link.stats.reconnects == 0 and link.stats.retransmits == 0
            for node in nodes for link in node._peer_links
        )


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
            node._fold_live_metrics(registry)
            per_link = self.SAMPLES[node.node_id]
            folded = registry.histogram("net.live.queue_wait_us")
            assert folded.as_dict() == self._reference(
                per_link[p] for p in sorted(per_link)
            )
            assert folded.count == sum(len(s) for s in per_link.values())

    def test_cluster_merge_equals_per_sample_observation(self, tmp_path):
        results = [node._result() for node in self._nodes(tmp_path)]
        merged = LiveTransport(kind="uds")._merge(results, [None] * 3, 0, ())
        expected = self._reference(
            self.SAMPLES[pid][p]
            for pid in sorted(self.SAMPLES)
            for p in sorted(self.SAMPLES[pid])
        )
        assert expected["count"] == 11
        got = merged.metrics.histogram("net.live.queue_wait_us").as_dict()
        assert got == expected
