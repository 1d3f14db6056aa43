"""PeerLink: handshake, reconnect/backoff, retransmission, backpressure.

Each test stands up a miniature listener that performs the real
listener-side handshake (read HELLO, validate, reply HELLO) and then
collects decoded records — the same sequence ``LiveNode._serve_conn``
runs — so the link under test speaks to a faithful counterpart.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.system.messages import Message
from repro.system.transport import wire
from repro.system.transport.peer import MAX_BATCH_FRAMES, PeerLink

INSTANCE = "test-run"


class MiniListener:
    """UDS listener doing the HELLO exchange, then recording frames."""

    def __init__(
        self,
        path: str,
        node_id: int,
        instance: str = INSTANCE,
        validate: bool = True,
        reply: tuple | None = None,
    ):
        self.path = path
        self.node_id = node_id
        self.instance = instance
        #: The record answered in place of this listener's own HELLO —
        #: lets a test hand the dialer a malformed or foreign one.
        self.reply = reply
        #: False replies with our HELLO without checking theirs — lets a
        #: test hand the dialer a mismatching identity to choke on.
        self.validate = validate
        self.records: list[tuple] = []
        self.connections = 0
        self._server = None
        self._tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._serve, path=self.path
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:  # handlers wake on EOF; drain before asserting
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _serve(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.append(task)
        self.connections += 1
        try:
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            hello = wire.decode_body(await reader.readexactly(length))
            if self.validate:
                wire.check_hello(hello, instance=self.instance)
            writer.write(
                wire.encode_hello(self.node_id, self.instance)
                if self.reply is None else wire.encode_record(self.reply)
            )
            await writer.drain()
            async for record in wire.read_frames(reader):
                self.records.append(record)
        except (wire.WireError, ConnectionError, OSError, EOFError):
            pass
        finally:
            writer.close()


def make_link(path: str, **kwargs) -> PeerLink:
    def dial():
        return asyncio.open_unix_connection(path)

    kwargs.setdefault("instance", INSTANCE)
    return PeerLink(0, 1, dial, **kwargs)


class TestBackoffSchedule:
    def test_capped_exponential_ramp(self, tmp_path):
        link = make_link(str(tmp_path / "x.sock"))
        delays = [link._backoff(a) for a in range(1, 9)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]

    def test_custom_base_and_cap(self, tmp_path):
        link = make_link(
            str(tmp_path / "x.sock"), backoff_base=0.01, backoff_cap=0.04
        )
        assert [link._backoff(a) for a in range(1, 5)] == [
            0.01, 0.02, 0.04, 0.04,
        ]


class TestHandshakeAndDelivery:
    def test_frames_flow_after_handshake(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path)
            link.start()
            await link.send_message(Message(0, 1, "bc:0", (1.0, 2.0)))
            await link.send_decided()
            await link.close()
            await listener.stop()
            return listener, link

        listener, link = asyncio.run(go())
        assert [r[0] for r in listener.records] == [wire.MSG, wire.DECIDED]
        assert link.stats.handshakes == 1
        assert link.stats.frames_sent == 2
        assert link.failed is None

    def test_instance_mismatch_is_permanent(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(
                path, node_id=1, instance="other-run", validate=False
            )
            await listener.start()
            link = make_link(path)
            link.start()
            await link._writer_task  # dies on the mismatched HELLO reply
            assert isinstance(link.failed, wire.WireError)
            with pytest.raises(wire.WireError, match="failed permanently"):
                await link.send_message(Message(0, 1, "bc:0", ()))
            await listener.stop()

        asyncio.run(go())

    def test_unreachable_peer_fails_after_max_dials(self, tmp_path):
        path = str(tmp_path / "never.sock")  # nothing ever listens here

        async def go():
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3,
            )
            link.start()
            await link._writer_task
            assert isinstance(link.failed, ConnectionError)
            assert "unreachable" in str(link.failed)
            with pytest.raises(wire.WireError, match="failed permanently"):
                await link.send_decided()

        asyncio.run(go())


    def test_silent_listener_exhausts_handshake_budget(self, tmp_path):
        # A listener that accepts but drops the connection before its
        # HELLO (e.g. it rejects ours) burns the same attempt budget as a
        # refused dial — the link must not redial forever.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1, instance="other-run")
            await listener.start()
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3,
            )
            link.start()
            await link._writer_task
            await listener.stop()
            return link

        link = asyncio.run(go())
        assert isinstance(link.failed, ConnectionError)
        assert "never completed a handshake" in str(link.failed)


class TestReconnect:
    def test_chaos_close_reconnects_and_retransmits(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(
                path, backoff_base=0.001, chaos_close_after=1
            )
            link.start()
            for i in range(3):
                await link.send_message(Message(0, 1, "bc:0", (float(i),)))
            # Wait for delivery before closing so the assertions below
            # don't depend on the close()-time drain grace.
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(listener.records) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await link.close()
            await listener.stop()
            return listener, link

        listener, link = asyncio.run(go())
        # The forced close is graceful (drained frames arrived); the rest
        # of the batch rides over the reconnect, so the listener sees
        # every sequence number exactly once.
        seqs = [r[1] for r in listener.records if r[0] == wire.MSG]
        assert seqs == [0, 1, 2]
        assert link.stats.chaos_closes == 1
        assert link.stats.reconnects == 1
        # All three frames were queued before the first dial, so they form
        # one batch; the chaos cut drains frame 0 and the other two are
        # handed to the new connection (LinkStats: frames, not batches).
        assert link.stats.retransmits == 2
        assert listener.connections == 2

    def test_close_interrupts_backoff(self, tmp_path):
        # Regression: a writer redialling a peer that exited for good used
        # to serve out its full backoff ramp before noticing close() —
        # stalling cluster teardown for minutes.
        path = str(tmp_path / "gone.sock")

        async def go():
            link = make_link(
                path, backoff_base=30.0, backoff_cap=30.0
            )
            link.start()
            await asyncio.sleep(0.05)  # let the first dial fail
            start = asyncio.get_running_loop().time()
            await link.close()
            return asyncio.get_running_loop().time() - start

        elapsed = asyncio.run(go())
        assert elapsed < 1.0, f"close() waited {elapsed:.1f}s out the backoff"

    def test_close_drains_undelivered_frames_within_grace(self, tmp_path):
        # Regression: a node exiting while a peer link was mid-reconnect
        # used to abandon queued frames — if the abandoned frame was the
        # DECIDED announcement, the peer waited on it forever.  close()
        # now keeps redialling for `drain_grace` when frames remain.
        path = str(tmp_path / "n1.sock")

        async def go():
            link = make_link(path, backoff_base=0.01, backoff_cap=0.02)
            link.start()
            await link.send_decided()
            await asyncio.sleep(0.05)  # dial fails: nothing listening yet
            listener = MiniListener(path, node_id=1)
            await listener.start()
            await link.close()  # must deliver the queued DECIDED first
            await listener.stop()
            return listener

        listener = asyncio.run(go())
        kinds = [r[0] for r in listener.records]
        assert kinds == [wire.DECIDED]

    def test_close_gives_up_when_grace_expires(self, tmp_path):
        path = str(tmp_path / "gone.sock")

        async def go():
            link = make_link(
                path, backoff_base=0.01, backoff_cap=0.02, drain_grace=0.2
            )
            link.start()
            await link.send_decided()
            await asyncio.sleep(0.05)  # dial fails: nothing listening
            start = asyncio.get_running_loop().time()
            await link.close()
            return asyncio.get_running_loop().time() - start

        elapsed = asyncio.run(go())
        # Keeps trying for about the grace window, then stops — it must
        # neither bail instantly nor serve out the full reconnect ramp.
        assert 0.1 < elapsed < 2.0, f"close() took {elapsed:.2f}s"


class TestBackpressure:
    def test_full_queue_counts_and_waits(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, queue_limit=1)
            await link.send_message(Message(0, 1, "bc:0", (0.0,)))  # fills
            blocked = asyncio.ensure_future(
                link.send_message(Message(0, 1, "bc:0", (1.0,)))
            )
            await asyncio.sleep(0)  # the producer is now parked on put()
            assert not blocked.done()
            assert link.stats.backpressure_waits == 1
            link.start()  # the writer drains the queue, unblocking it
            await blocked
            await link.close()
            await listener.stop()
            return listener

        listener = asyncio.run(go())
        assert len(listener.records) == 2


class TestVersionNegotiation:
    STAMP = (7, 12, (5, 12))

    def test_v2_peer_receives_stamp(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path)
            link.start()
            await link.send_message(
                Message(0, 1, "bc:0", (1.0,)), stamp=self.STAMP
            )
            await link.close()
            await listener.stop()
            return listener

        (record,) = asyncio.run(go()).records
        assert wire.message_stamp(record) == self.STAMP

    @pytest.mark.parametrize(
        "reply",
        [
            (wire.HELLO, 1, "two", INSTANCE),  # was a plain ValueError
            (wire.HELLO, None, 2, INSTANCE),   # was a plain TypeError
            (wire.HELLO, 1, 1, INSTANCE),      # version 1: no longer spoken
            (wire.HELLO, 1, 2),
            (wire.ROUND, 0, 0, False),
        ],
        ids=["str-version", "none-id", "v1", "short", "not-a-hello"],
    )
    def test_bad_hello_reply_fails_the_link_for_good(self, tmp_path, reply):
        # Regression: a HELLO with a wrong-typed field used to kill the
        # writer task with an exception nothing caught — link.failed
        # stayed None, on_failure never ran, the node sat out run_timeout.
        path = str(tmp_path / "n1.sock")
        calls: list[int] = []

        async def go():
            listener = MiniListener(path, node_id=1, reply=reply)
            await listener.start()
            link = make_link(path, on_failure=lambda: calls.append(1))
            link.start()
            await asyncio.wait_for(link._writer_task, timeout=1.0)
            await listener.stop()
            return link, listener

        link, listener = asyncio.run(go())
        assert isinstance(link.failed, wire.WireError)
        assert calls == [1]
        assert listener.connections == 1  # permanent: never redialled


class TestLinkTelemetry:
    def test_bytes_and_queue_wait_recorded(self, tmp_path):
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path)
            # Enqueue before starting the writer so frames measurably wait.
            await link.send_message(Message(0, 1, "bc:0", (0.0,)))
            await link.send_message(Message(0, 1, "bc:0", (1.0,)))
            link.start()
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        stats = link.stats
        assert stats.frames_sent == 2
        assert stats.bytes_sent > 0
        assert stats.queue_depth_peak == 2
        assert len(stats.queue_wait_samples) == 2
        assert all(s >= 0.0 for s in stats.queue_wait_samples)
        # as_dict exposes exactly the counter fields — gauges and samples
        # fold into the registry elsewhere, under their own metric types.
        assert set(stats.as_dict()) == set(stats.COUNTER_FIELDS)
        assert stats.as_dict()["bytes_sent"] == stats.bytes_sent

    def test_retransmit_samples_queue_wait_once(self, tmp_path):
        # A frame that rides over a reconnect is retransmitted, but its
        # time-in-queue was already measured: one sample per frame.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, backoff_base=0.001, chaos_close_after=1)
            link.start()
            for i in range(3):
                await link.send_message(Message(0, 1, "bc:0", (float(i),)))
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(listener.records) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        assert link.stats.retransmits == 2  # frames 1 and 2 of the one batch
        assert len(link.stats.queue_wait_samples) == 3


class TestSequenceNumbers:
    def test_monotonic_per_link(self, tmp_path):
        link = make_link(str(tmp_path / "x.sock"))
        assert [link.next_seq() for _ in range(4)] == [0, 1, 2, 3]

    def test_receiver_drops_duplicate_seq(self, tmp_path):
        # Receiver-side dedup lives in LiveNode._on_record; drive it
        # directly with a replayed record, as a retransmitting link would.
        from repro.system.transport.live import LiveNode, NodeAddress

        node = LiveNode(
            0, 2, 0, process=None,
            address=NodeAddress(0, "uds", path=str(tmp_path / "n0.sock")),
            instance=INSTANCE,
        )

        record = wire.decode_body(
            wire.encode_message(Message(1, 0, "bc:1", (1.0,)), 0)[4:]
        )
        node._on_record(1, record)
        node._on_record(1, record)  # exact retransmit
        assert node.dupes_dropped == 1
        assert len(node._pending_msgs[1]) == 1


class FakeWriter:
    """Counts writes; ``drain`` can stall on a gate or fail once."""

    def __init__(self, peer: "FakePeer"):
        self.peer = peer
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        if len(self.writes) == 1:
            return  # our HELLO
        await self.peer.gate.wait()
        if self.peer.fail_drains:
            self.peer.fail_drains -= 1
            raise ConnectionResetError("fake: connection died in drain")
        self.peer.delivered.extend(split_frames(self.writes[-1]))

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class FakePeer:
    """In-memory stand-in for the socket and the remote HELLO: ``dial``
    hands the link a real StreamReader holding the peer's HELLO and a
    :class:`FakeWriter`, one pair per connection."""

    def __init__(self, fail_drains: int = 0):
        self.fail_drains = fail_drains
        self.gate = asyncio.Event()
        self.gate.set()
        self.writers: list[FakeWriter] = []
        #: Records whose batch was drained successfully, in wire order.
        self.delivered: list[tuple] = []

    async def dial(self):
        reader = asyncio.StreamReader()
        reader.feed_data(wire.encode_hello(1, INSTANCE))
        writer = FakeWriter(self)
        self.writers.append(writer)
        return reader, writer

    def link(self, **kwargs) -> PeerLink:
        kwargs.setdefault("backoff_base", 0.001)
        return PeerLink(0, 1, self.dial, instance=INSTANCE, **kwargs)

    def data_writes(self) -> list[bytes]:
        """Every write after each connection's HELLO, in order."""
        return [w for writer in self.writers for w in writer.writes[1:]]


def split_frames(data: bytes) -> list[tuple]:
    records, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack_from("!I", data, pos)
        records.append(wire.decode_body(data[pos + 4:pos + 4 + length]))
        pos += 4 + length
    return records


def msg(i: int) -> Message:
    return Message(0, 1, "bc:0", (float(i),))


class TestBurstWrite:
    def test_queued_burst_goes_out_in_one_write(self):
        k = 9

        async def go():
            peer = FakePeer()
            link = peer.link()
            for i in range(k - 2):
                await link.send_message(msg(i))
            await link.send_round(0, False)
            await link.send_decided()
            link.start()
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        (burst,) = peer.data_writes()
        records = split_frames(burst)
        assert [r[1] for r in records] == list(range(k))
        assert [r[0] for r in records[-2:]] == [wire.ROUND, wire.DECIDED]
        assert link.stats.frames_sent == k
        assert link.stats.bytes_sent == len(burst)
        assert len(link.stats.queue_wait_samples) == k
        assert link.stats.retransmits == 0

    def test_batch_is_capped(self):
        k = 2 * MAX_BATCH_FRAMES + 10

        async def go():
            peer = FakePeer()
            link = peer.link(queue_limit=k)
            for i in range(k):
                await link.send_message(msg(i))
            link.start()
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        sizes = [len(split_frames(w)) for w in peer.data_writes()]
        assert sizes == [MAX_BATCH_FRAMES, MAX_BATCH_FRAMES, 10]
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.frames_sent == k

    def test_failed_drain_retransmits_the_whole_batch(self):
        # Frames leave the in-flight batch only after a successful
        # drain(): the sender cannot know how much of a failed write
        # arrived, so the same bytes go out again on the next connection
        # (the receiver's seq dedup makes that exactly-once).
        k = 5

        async def go():
            peer = FakePeer(fail_drains=1)
            link = peer.link()
            for i in range(k):
                await link.send_message(msg(i))
            link.start()
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        first, second = peer.data_writes()
        assert first == second
        assert len(peer.writers) == 2
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.retransmits == k
        assert link.stats.reconnects == 1
        assert link.stats.frames_sent == k  # counted once, when drained
        assert link.stats.bytes_sent == len(second)
        assert len(link.stats.queue_wait_samples) == k  # none on retransmit

    def test_stalled_peer_blocks_senders_then_delivers_in_order(self):
        k = 20

        async def go():
            peer = FakePeer()
            peer.gate.clear()  # the peer stops reading: drain() stalls
            link = peer.link(queue_limit=4)
            link.start()

            async def produce():
                for i in range(k):
                    await link.send_message(msg(i))

            producer = asyncio.ensure_future(produce())
            for _ in range(50):
                await asyncio.sleep(0)
            assert not producer.done()
            assert link._queue.qsize() == 4  # the bound is in frames
            assert link.stats.backpressure_waits > 0
            assert peer.delivered == []
            peer.gate.set()
            await asyncio.wait_for(producer, timeout=5.0)
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.frames_sent == k
        assert link.stats.queue_depth_peak == 4


class TestEncodeAtEnqueue:
    def test_frame_is_the_snapshot(self):
        # The record is encoded inside send_message: what the sender does
        # to the payload object afterwards never reaches the wire.
        import numpy as np

        async def go():
            peer = FakePeer()
            link = peer.link()
            payload = np.array([1.0, 2.0])
            await link.send_message(Message(0, 1, "bc:0", payload))
            payload[0] = 99.0
            link.start()
            await link.close()
            return peer

        (record,) = asyncio.run(go()).delivered
        assert wire.decode_message(record)[1].payload[0] == 1.0


class TestFailureCallback:
    def test_permanent_failure_calls_on_failure_once(self, tmp_path):
        calls: list[int] = []

        async def go():
            link = make_link(
                str(tmp_path / "never.sock"), backoff_base=0.001,
                max_dial_failures=1, on_failure=lambda: calls.append(1),
            )
            link.start()
            await link._writer_task
            return link

        link = asyncio.run(go())
        assert isinstance(link.failed, ConnectionError)
        assert calls == [1]
