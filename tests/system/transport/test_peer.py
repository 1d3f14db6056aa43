"""PeerLink: handshake, reconnect/backoff, the write queue, retransmission,
backpressure.

Each socket test stands up a miniature listener protocol that performs
the real listener-side handshake (read HELLO, validate, reply HELLO) and
then collects decoded records — the same sequence ``LiveNode``'s inbound
protocol runs — so the link under test speaks to a faithful counterpart.
The in-memory tests (:class:`FakePeer`) put a scripted transport under a
real :class:`LinkProtocol`.  A link has one queue of frames not yet
written to its connection; the "cork" of a test name or comment is what
that queue holds on a connected link: the frames one loop callback sent.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import pickle
import struct
from pathlib import Path

import pytest

from repro.system.messages import Message
from repro.system.transport import wire
from repro.system.transport.live import NodeAddress
from repro.system.transport.peer import LinkProtocol, PeerLink

from . import sends
from .sends import send_decided, send_message, send_round

INSTANCE = "test-run"
#: The link's one send method, and the helpers over it.
SENDS = ("send_shared", "send_message", "send_round", "send_decided")
SRC = Path(__file__).resolve().parents[3] / "src" / "repro"
TESTS = Path(__file__).resolve().parents[2]


def v2_frame(record: tuple) -> bytes:
    """``record`` as the pickle wire (version 2) framed it."""
    body = pickle.dumps(record, protocol=4)
    return len(body).to_bytes(4, "big") + body


class MiniListener:
    """UDS listener doing the HELLO exchange, then recording frames."""

    def __init__(
        self,
        path: str,
        node_id: int,
        instance: str = INSTANCE,
        validate: bool = True,
        reply: bytes | None = None,
    ):
        self.path = path
        self.node_id = node_id
        self.instance = instance
        #: The frame answered in place of this listener's own HELLO —
        #: lets a test hand the dialer a malformed or foreign one.
        self.reply = reply
        #: False replies with our HELLO without checking theirs — lets a
        #: test hand the dialer a mismatching identity to choke on.
        self.validate = validate
        self.records: list[tuple] = []
        self.connections = 0
        self._server = None
        self._transports: set = set()

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_unix_server(
            lambda: _MiniConnection(self), path=self.path
        )

    async def stop(self) -> None:
        for transport in list(self._transports):
            transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.sleep(0)


class _MiniConnection(asyncio.Protocol):
    def __init__(self, listener: MiniListener):
        self.listener = listener
        self.splitter = wire.FrameSplitter()
        self.greeted = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.listener.connections += 1
        self.listener._transports.add(transport)

    def data_received(self, data: bytes) -> None:
        listener = self.listener
        try:
            for body in self.splitter.feed(data):
                record = wire.decode_body(body)
                if self.greeted:
                    listener.records.append(record)
                    continue
                if listener.validate:
                    wire.check_hello(record, instance=listener.instance)
                self.transport.write(
                    wire.encode_hello(listener.node_id, listener.instance)
                    if listener.reply is None else listener.reply
                )
                self.greeted = True
        except wire.WireError:
            self.transport.close()

    def connection_lost(self, exc) -> None:
        self.listener._transports.discard(self.transport)


def make_link(path: str, **kwargs) -> PeerLink:
    kwargs.setdefault("instance", INSTANCE)
    return PeerLink(0, 1, NodeAddress(1, "uds", path=path).dialer(), **kwargs)


async def until(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


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
            assert send_message(link, Message(0, 1, "iter", (1.0, 2.0))) is None
            assert send_decided(link) is None
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
            failed = asyncio.Event()
            link = make_link(path, on_failure=failed.set)
            link.start()
            # Dies on the mismatched HELLO reply.
            await asyncio.wait_for(failed.wait(), timeout=1.0)
            assert isinstance(link.failed, wire.WireError)
            with pytest.raises(wire.WireError, match="failed permanently"):
                send_message(link, Message(0, 1, "iter", ()))
            await listener.stop()

        asyncio.run(go())

    def test_unreachable_peer_fails_after_max_dials(self, tmp_path):
        path = str(tmp_path / "never.sock")  # nothing ever listens here

        async def go():
            failed = asyncio.Event()
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3, on_failure=failed.set,
            )
            link.start()
            await asyncio.wait_for(failed.wait(), timeout=5.0)
            assert isinstance(link.failed, ConnectionError)
            assert "unreachable" in str(link.failed)
            with pytest.raises(wire.WireError, match="failed permanently"):
                send_decided(link)

        asyncio.run(go())

    def test_silent_listener_exhausts_handshake_budget(self, tmp_path):
        # A listener that accepts but drops the connection before its
        # HELLO (e.g. it rejects ours) burns the same attempt budget as a
        # refused dial — the link must not redial forever.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1, instance="other-run")
            await listener.start()
            failed = asyncio.Event()
            link = make_link(
                path, backoff_base=0.001, backoff_cap=0.002,
                max_dial_failures=3, on_failure=failed.set,
            )
            link.start()
            await asyncio.wait_for(failed.wait(), timeout=5.0)
            await listener.stop()
            return link, listener

        link, listener = asyncio.run(go())
        assert isinstance(link.failed, ConnectionError)
        assert "never completed a handshake" in str(link.failed)
        assert listener.connections == 4  # the first dial and 3 retries


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
                assert send_message(link, Message(0, 1, "iter", (float(i),))) is None
            # Wait for delivery before closing so the assertions below
            # don't depend on the close()-time drain grace.
            await until(lambda: {r[1] for r in listener.records} == {0, 1, 2})
            await link.close()
            await listener.stop()
            return listener, link

        listener, link = asyncio.run(go())
        # All three frames were sent before the handshake, so they go out
        # in one write; the chaos hook writes frame 0 and half of frame 1,
        # then closes.  Both were in flight (nothing has seen that
        # connection's buffer empty since), so both go out again, whole
        # and first, on the new connection: the listener saw frame 0
        # twice (the receiver's seq dedup drops the second), the torn
        # half of frame 1 never, and every frame at least once, in order.
        seqs = [r[1] for r in listener.records if r[0] == wire.MSG]
        assert seqs == [0, 0, 1, 2]
        assert link.stats.chaos_closes == 1
        assert link.stats.reconnects == 1
        assert link.stats.retransmits == 2
        assert link.stats.frames_sent == 3
        assert listener.connections == 2

    def test_close_interrupts_backoff(self, tmp_path):
        # Regression: a link redialling a peer that exited for good used
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
        # used to abandon backlogged frames — if the abandoned frame was
        # the DECIDED announcement, the peer waited on it forever.
        # close() keeps redialling for `drain_grace` when frames remain.
        path = str(tmp_path / "n1.sock")

        async def go():
            link = make_link(path, backoff_base=0.01, backoff_cap=0.02)
            link.start()
            assert send_decided(link) is None
            await asyncio.sleep(0.05)  # dial fails: nothing listening yet
            listener = MiniListener(path, node_id=1)
            await listener.start()
            await link.close()  # must deliver the backlogged DECIDED first
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
            assert send_decided(link) is None
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
        # The backlog of a link not yet connected holds queue_limit
        # frames; the sender that finds it full waits for a connection.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, queue_limit=1)
            assert send_message(link, Message(0, 1, "iter", (0.0,))) is None  # fills
            waiter = send_message(link, Message(0, 1, "iter", (1.0,)))
            assert waiter is not None
            blocked = asyncio.ensure_future(waiter)
            await asyncio.sleep(0)  # the sender is now parked
            assert not blocked.done()
            assert link.stats.backpressure_waits == 1
            link.start()  # the handshake flushes the backlog, unblocking it
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
            assert send_message(link, 
                Message(0, 1, "iter", (1.0,)), stamp=self.STAMP
            ) is None
            await link.close()
            await listener.stop()
            return listener

        (record,) = asyncio.run(go()).records
        assert wire.message_stamp(record) == self.STAMP

    @pytest.mark.parametrize(
        "reply",
        [
            v2_frame((wire.HELLO, 1, "two", INSTANCE)),  # pickled: no record
            v2_frame((wire.HELLO, None, 2, INSTANCE)),
            wire.encode_record((wire.HELLO, 1, 1, INSTANCE)),  # version 1
            b"\x00\x00\x00\x03\x00\x00\x01",  # a HELLO cut inside its head
            wire.encode_record((wire.ROUND, 0, 0, False)),
        ],
        ids=["str-version", "none-id", "v1", "short", "not-a-hello"],
    )
    def test_bad_hello_reply_fails_the_link_for_good(self, tmp_path, reply):
        # Regression: a HELLO with a wrong-typed field (on the pickle
        # wire) used to kill the link with an exception nothing caught —
        # link.failed stayed None, on_failure never ran, the node sat
        # out run_timeout.
        path = str(tmp_path / "n1.sock")
        calls: list[int] = []

        async def go():
            listener = MiniListener(path, node_id=1, reply=reply)
            await listener.start()
            failed = asyncio.Event()

            def on_failure():
                calls.append(1)
                failed.set()

            link = make_link(path, on_failure=on_failure)
            link.start()
            await asyncio.wait_for(failed.wait(), timeout=1.0)
            await asyncio.sleep(0.05)  # no redial follows
            await link.close()
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
            # Sent before dialling, so these two measurably wait.
            assert send_message(link, Message(0, 1, "iter", (0.0,))) is None
            assert send_message(link, Message(0, 1, "iter", (1.0,))) is None
            link.start()
            await until(lambda: len(listener.records) == 2)
            # Connected: written when the sender's callback ends, so it
            # waits a little, and far less than a handshake.
            assert send_message(link, Message(0, 1, "iter", (2.0,))) is None
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        stats = link.stats
        assert stats.frames_sent == 3
        assert stats.bytes_sent > 0
        assert stats.queue_depth_peak == 2
        assert len(stats.queue_wait_samples) == 3
        assert all(s > 0.0 for s in stats.queue_wait_samples[:2])
        assert 0.0 < stats.queue_wait_samples[2] < min(stats.queue_wait_samples[:2])
        # as_dict exposes exactly the counter fields — gauges and samples
        # fold into the registry elsewhere, under their own metric types.
        assert set(stats.as_dict()) == set(stats.COUNTER_FIELDS)
        assert stats.as_dict()["bytes_sent"] == stats.bytes_sent

    def test_retransmit_samples_queue_wait_once(self, tmp_path):
        # A frame that rides over a reconnect is retransmitted, but its
        # wait was already measured at its first write: one sample per
        # frame.
        path = str(tmp_path / "n1.sock")

        async def go():
            listener = MiniListener(path, node_id=1)
            await listener.start()
            link = make_link(path, backoff_base=0.001, chaos_close_after=1)
            link.start()
            for i in range(3):
                assert send_message(link, Message(0, 1, "iter", (float(i),))) is None
            await until(lambda: {r[1] for r in listener.records} == {0, 1, 2})
            await link.close()
            await listener.stop()
            return link

        link = asyncio.run(go())
        assert link.stats.retransmits == 2  # frames 0 and 1 of the torn write
        assert len(link.stats.queue_wait_samples) == 3


class TestSequenceNumbers:
    def test_monotonic_per_link(self):
        async def go():
            peer = FakePeer()
            link = peer.link()
            link.start()
            await peer.connected()
            for i in range(3):
                assert send_message(link, msg(i)) is None
            assert send_decided(link) is None
            await link.close()
            return peer

        assert [r[1] for r in asyncio.run(go()).delivered] == [0, 1, 2, 3]

    def test_receiver_drops_duplicate_seq(self, tmp_path):
        # Receiver-side dedup lives in LiveNode._on_record; drive it
        # directly with a replayed record, as a retransmitting link would.
        from repro.system.transport.live import LiveNode

        node = LiveNode(
            0, 2, 0, process=None,
            address=NodeAddress(0, "uds", path=str(tmp_path / "n0.sock")),
            instance=INSTANCE,
        )

        record = wire.decode_body(
            wire.encode_record(wire.message_record(Message(1, 0, "iter", (1.0,)), 0))[4:]
        )
        node._on_record(1, record)
        node._on_record(1, record)  # exact retransmit
        assert node.dupes_dropped == 1
        assert len(node._inq) == 1


def split_frames(data: bytes) -> list[tuple]:
    records, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack_from("!I", data, pos)
        records.append(wire.decode_body(data[pos + 4:pos + 4 + length]))
        pos += 4 + length
    return records


class FakeTransport:
    """A socket transport in memory under a real :class:`LinkProtocol`:
    it answers our HELLO with the peer's, hands written frames to
    :attr:`FakePeer.delivered`, and does what its peer scripts — keep a
    write in its buffer and die, or stop taking writes (pausing the
    protocol past ``FakePeer.high`` frames)."""

    def __init__(self, peer: "FakePeer"):
        self.peer = peer
        self.proto = LinkProtocol()
        self.writes: list[bytes] = []
        #: Frames written but not yet taken by the (stalled) peer.
        self.buffer: list[tuple] = []
        self.closing = False
        self.proto.connection_made(self)

    def get_protocol(self) -> LinkProtocol:
        return self.proto

    def get_write_buffer_size(self) -> int:
        return len(self.buffer)

    def is_closing(self) -> bool:
        return self.closing

    def write(self, data: bytes) -> None:
        assert not self.closing
        self.writes.append(bytes(data))
        loop = asyncio.get_running_loop()
        if len(self.writes) == 1:  # our HELLO: the peer answers with its own
            loop.call_soon(self.proto.data_received, wire.encode_hello(1, INSTANCE))
            return
        peer = self.peer
        peer.data_writes_seen += 1
        if peer.data_writes_seen == peer.reset_at:
            # As asyncio does when send() fails: the transport drops the
            # data and its buffer, is closing at once, and reports the
            # loss on the next loop turn.
            self._lose(ConnectionResetError("fake: reset in send"))
        elif peer.fail_writes:
            # The kernel takes none of it, and the connection dies.
            peer.fail_writes -= 1
            self.buffer.extend(split_frames(data))
            self._lose(ConnectionResetError("fake: connection died"))
        elif peer.stalled:
            self.buffer.extend(split_frames(data))
            if len(self.buffer) >= peer.high and not self.proto.paused:
                self.proto.pause_writing()
        else:
            peer.delivered.extend(split_frames(data))

    def resume(self) -> None:
        self.peer.delivered.extend(self.buffer)
        self.buffer.clear()
        self.proto.resume_writing()

    def close(self) -> None:
        self._lose(None)

    def abort(self) -> None:
        self._lose(None)

    def _lose(self, exc) -> None:
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(self.proto.connection_lost, exc)


class FakePeer:
    """In-memory stand-in for the socket and the remote HELLO: ``dial``
    hands the link a :class:`FakeTransport` and its protocol, one per
    connection."""

    def __init__(self, fail_writes: int = 0, high: int = 4, reset_at: int = 0):
        self.fail_writes = fail_writes
        #: The data write (counted over all connections) that fails as a
        #: reset; 0 for none.
        self.reset_at = reset_at
        self.data_writes_seen = 0
        self.stalled = False
        self.high = high
        self.transports: list[FakeTransport] = []
        #: Records the peer took, in wire order.
        self.delivered: list[tuple] = []

    async def dial(self):
        transport = FakeTransport(self)
        self.transports.append(transport)
        return transport, transport.proto

    def link(self, **kwargs) -> PeerLink:
        kwargs.setdefault("backoff_base", 0.001)
        return PeerLink(0, 1, self.dial, instance=INSTANCE, **kwargs)

    def data_writes(self) -> list[bytes]:
        """Every write after each connection's HELLO, in order."""
        return [w for transport in self.transports for w in transport.writes[1:]]

    async def connected(self) -> None:
        """Wait out the handshake of the first connection."""
        await until(lambda: self.transports and self.transports[0].proto.hello.done())
        await asyncio.sleep(0)


def msg(i: int) -> Message:
    return Message(0, 1, "iter", (float(i),))


class TestBurstWrite:
    def test_queued_burst_goes_out_in_one_write(self):
        # Frames sent before the handshake wait in the backlog and go out
        # together, in one write, right after it.
        k = 9

        async def go():
            peer = FakePeer()
            link = peer.link()
            for i in range(k - 2):
                assert send_message(link, msg(i)) is None
            assert send_round(link, 0, False) is None
            assert send_decided(link) is None
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

    def test_frames_are_written_in_the_senders_turn(self):
        # Once connected there is no queue task and no coroutine per
        # frame: k sends in one loop callback are queued and go out in
        # one write before the next callback runs, and a write the
        # kernel took at once leaves nothing in flight.  Each frame's
        # queue wait runs to that write.
        k = 5

        async def go():
            peer = FakePeer()
            link = peer.link()
            link.start()
            await peer.connected()
            for i in range(k):
                assert send_message(link, msg(i)) is None
            assert peer.data_writes() == []
            await asyncio.sleep(0)  # the next callback
            writes = peer.data_writes()
            inflight = list(link._inflight)
            await link.close()
            return peer, link, writes, inflight

        peer, link, writes, inflight = asyncio.run(go())
        (write,) = writes
        assert [r[1] for r in split_frames(write)] == list(range(k))
        assert inflight == []
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.writes == 1
        assert link.stats.frames_sent == k
        assert link.stats.bytes_sent == len(write)
        assert len(link.stats.queue_wait_samples) == k
        assert all(s > 0.0 for s in link.stats.queue_wait_samples)
        assert link.stats.queue_depth_peak == 0

    def test_failed_drain_retransmits_the_whole_batch(self):
        # A write the kernel did not take, on a connection that then
        # died: the sender cannot know how much of it arrived, so every
        # frame in flight goes out again, whole, on the next connection
        # (the receiver's seq dedup makes that exactly-once).
        k = 5

        async def go():
            peer = FakePeer(fail_writes=1)
            link = peer.link()
            for i in range(k):
                assert send_message(link, msg(i)) is None
            link.start()
            await until(lambda: len(peer.delivered) == k)
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        first, second = peer.data_writes()
        assert first == second
        assert len(peer.transports) == 2
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.retransmits == k
        assert link.stats.reconnects == 1
        assert link.stats.frames_sent == k  # counted once, at the first write
        assert link.stats.bytes_sent == len(second)
        assert len(link.stats.queue_wait_samples) == k  # none on retransmit

    def test_a_write_the_transport_dropped_is_retransmitted(self):
        # A send() that fails makes asyncio drop the frame and close the
        # transport at once.  The frame stays in flight, the next send
        # finds the transport closing and waits for the reconnect, and
        # both go out on the new connection, in order.  One send per
        # callback: each cork is one frame, one write.
        async def go():
            peer = FakePeer(reset_at=2)
            link = peer.link()
            link.start()
            await peer.connected()
            for i in range(4):
                assert send_message(link, msg(i)) is None
                await asyncio.sleep(0)
            await until(lambda: len(peer.delivered) >= 4)
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        assert [r[1] for r in peer.delivered] == [0, 1, 2, 3]
        assert len(peer.transports) == 2
        assert link.stats.retransmits == 1  # frame 1, whose write was dropped
        assert link.stats.reconnects == 1
        assert link.stats.frames_sent == 4

    def test_stalled_peer_blocks_senders_then_delivers_in_order(self):
        # Backpressure on a connected link is the transport's: past its
        # high-water mark it pauses the protocol, and a sender waits for
        # resume_writing.  The cork holds at most queue_limit frames, so
        # a sender that never yields still reaches the pause.
        k = 20

        async def go():
            peer = FakePeer(high=4)
            link = peer.link(queue_limit=4)
            link.start()
            await peer.connected()
            peer.stalled = True  # the peer stops reading

            async def produce():
                for i in range(k):
                    waiter = send_message(link, msg(i))
                    if waiter is not None:
                        await waiter

            producer = asyncio.ensure_future(produce())
            for _ in range(50):
                await asyncio.sleep(0)
            assert not producer.done()
            (transport,) = peer.transports
            assert len(transport.buffer) == 4  # the bound is the water mark
            assert len(link._inflight) == 4
            assert not link._queue
            assert link.stats.backpressure_waits == 1
            assert peer.delivered == []
            peer.stalled = False
            transport.resume()
            await asyncio.wait_for(producer, timeout=5.0)
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.frames_sent == k
        assert link.stats.writes == k // 4
        assert link.stats.queue_depth_peak == 0  # the backlog is for reconnects

    def test_a_dropped_connection_wakes_no_sender(self):
        # The link gives up a connection whose transport is closing before
        # its loss is reported.  When connection_lost does arrive, the
        # link is still redialling with more than queue_limit frames
        # queued: the sender waiting on that bound stays parked.
        async def go():
            peer = FakePeer()
            link = peer.link(queue_limit=2)
            link.start()
            await peer.connected()
            redial = asyncio.get_running_loop().create_future()

            async def dial_pending():
                return await redial

            link.dial = dial_pending
            (transport,) = peer.transports
            transport.closing = True  # lost; connection_lost not yet called
            waiters = [send_message(link, msg(i)) for i in range(3)]
            assert link._proto is None and waiters[:2] == [None, None]
            transport.proto.connection_lost(ConnectionResetError("fake: died"))
            await asyncio.sleep(0)
            parked = not waiters[2].done()
            link.abort()
            return parked

        assert asyncio.run(go())


class TestCork:
    def test_loss_before_the_uncork_requeues_the_cork_behind_the_inflight(self):
        # Frames 0-1 are written but stuck in the stalled transport's
        # buffer (in flight); frames 2-3 are queued when the connection
        # dies.  All four go out on the next connection, in seq order, in
        # one write — nothing queued is lost or reordered, and only the
        # two written before count as retransmits.
        async def go():
            peer = FakePeer(high=100)
            link = peer.link()
            link.start()
            await peer.connected()
            peer.stalled = True
            for i in range(2):
                assert send_message(link, msg(i)) is None
            await asyncio.sleep(0)
            assert len(link._inflight) == 2
            for i in range(2, 4):
                assert send_message(link, msg(i)) is None
            first = peer.transports[0]
            first.closing = True
            first.proto.connection_lost(ConnectionResetError("fake: died"))
            peer.stalled = False
            await until(lambda: len(peer.delivered) == 4)
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        assert len(peer.transports) == 2
        replay = peer.transports[1].writes[1:]
        assert [[r[1] for r in split_frames(w)] for w in replay] == [[0, 1, 2, 3]]
        assert [r[1] for r in peer.delivered] == [0, 1, 2, 3]
        assert link.stats.retransmits == 2  # the 2 in flight; 2-3 were never written
        assert link.stats.frames_sent == 4
        assert link.stats.reconnects == 1

    def test_close_writes_the_cork(self):
        # close() in the callback that corked the frames writes them on
        # the open connection: no redial, no retransmit.
        k = 3

        async def go():
            peer = FakePeer()
            link = peer.link()
            link.start()
            await peer.connected()
            for i in range(k):
                assert send_message(link, msg(i)) is None
            await link.close()
            return peer, link

        peer, link = asyncio.run(go())
        assert len(peer.transports) == 1
        (write,) = peer.data_writes()
        assert [r[1] for r in split_frames(write)] == list(range(k))
        assert [r[1] for r in peer.delivered] == list(range(k))
        assert link.stats.retransmits == 0

    def test_cork_is_bounded_by_queue_limit(self):
        # A sender that never yields writes every queue_limit frames; the
        # remainder goes out when its callback ends.
        async def go():
            peer = FakePeer()
            link = peer.link(queue_limit=3)
            link.start()
            await peer.connected()
            for i in range(7):
                assert send_message(link, msg(i)) is None
            before = [len(split_frames(w)) for w in peer.data_writes()]
            corked = len(link._queue)
            await asyncio.sleep(0)
            after = [len(split_frames(w)) for w in peer.data_writes()]
            await link.close()
            return peer, link, before, corked, after

        peer, link, before, corked, after = asyncio.run(go())
        assert (before, corked, after) == ([3, 3], 1, [3, 3, 1])
        assert [r[1] for r in peer.delivered] == list(range(7))
        assert link.stats.writes == 3

    def test_sends_are_plain_calls_returning_a_waiter_or_none(self):
        # No coroutine per frame: a send is a plain call, and what it
        # returns is None or the backpressure waiter its sender awaits.
        assert not inspect.iscoroutinefunction(PeerLink.send_shared)
        for name in SENDS[1:]:
            assert not inspect.iscoroutinefunction(getattr(sends, name))

        async def go():
            peer = FakePeer()
            link = peer.link(queue_limit=1)
            assert send_message(link, msg(0)) is None
            waiter = send_round(link, 0, False)  # past the backlog's bound
            assert inspect.isawaitable(waiter)
            link.start()
            await asyncio.wait_for(waiter, timeout=5.0)
            assert send_decided(link) is None
            await link.close()
            return peer

        assert [r[0] for r in asyncio.run(go()).delivered] == [
            wire.MSG, wire.ROUND, wire.DECIDED
        ]

    def test_no_call_site_awaits_a_send_or_drops_its_waiter(self):
        # Awaiting a send's None is a TypeError; dropping its waiter loses
        # the backpressure.  In the package every send's result is kept
        # (and awaited when it is a waiter); in the tests no send is
        # awaited directly.
        for root, in_package in ((SRC, True), (TESTS, False)):
            for path in sorted(root.rglob("*.py")):
                text = path.read_text(encoding="utf-8")
                if not any(name in text for name in SENDS):
                    continue
                tree = ast.parse(text)
                parents = {
                    child: node
                    for node in ast.walk(tree)
                    for child in ast.iter_child_nodes(node)
                }
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name not in SENDS:
                        continue
                    where = f"{path}:{node.lineno}"
                    parent = parents[node]
                    assert not isinstance(parent, ast.Await), where
                    if in_package:
                        assert not isinstance(parent, ast.Expr), where


class TestEncodeAtEnqueue:
    def test_frame_is_the_snapshot(self):
        # The record is encoded inside the send: what the sender does
        # to the payload object afterwards never reaches the wire.  A
        # payload its family's layout refuses raises there, before it
        # takes a sequence number — a live sender raises on what the
        # simulator's receiving door would count and drop.
        async def go():
            peer = FakePeer()
            link = peer.link()
            payload = [1.0, 2.0]
            with pytest.raises(wire.WireError, match="not a tuple"):
                # A payload the sender could mutate later has no layout.
                send_message(link, Message(0, 1, "iter", payload))
            assert send_message(link, Message(0, 1, "iter", tuple(payload))) is None
            payload[0] = 99.0
            link.start()
            await link.close()
            return peer

        (record,) = asyncio.run(go()).delivered
        assert wire.decode_message(record)[1].payload[0] == 1.0
        assert record[1] == 0  # the refused payload left no gap


class TestFailureCallback:
    def test_permanent_failure_calls_on_failure_once(self, tmp_path):
        calls: list[int] = []

        async def go():
            failed = asyncio.Event()

            def on_failure():
                calls.append(1)
                failed.set()

            link = make_link(
                str(tmp_path / "never.sock"), backoff_base=0.001,
                max_dial_failures=1, on_failure=on_failure,
            )
            link.start()
            await asyncio.wait_for(failed.wait(), timeout=5.0)
            await asyncio.sleep(0.05)
            return link

        link = asyncio.run(go())
        assert isinstance(link.failed, ConnectionError)
        assert calls == [1]
