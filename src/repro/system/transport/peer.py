"""One outgoing peer link: dial, handshake, one write queue, retransmit.

Each live node keeps one :class:`PeerLink` per remote peer.  A link holds
one queue of the frames not yet written to its current connection, and
one method, ``_write``, hands the whole queue to the socket transport in
one ``transport.write``.  No queue task and no coroutine per frame sit on
the data path:

* **Handshake** — on every (re)connect the dialer sends its HELLO and
  awaits the listener's, which :class:`LinkProtocol` reads in
  ``data_received``.  A malformed HELLO, another wire version, instance
  or identity permanently fails the link.  The handshake writes the
  queue, and the connector task ends.
* **Sending** — ``send_shared`` is a plain call.  It takes a record its
  sender encoded once for all its links
  (:func:`~repro.system.transport.wire.shared_frame`): those bytes are
  the payload's snapshot, and the link only stamps its next sequence
  number (and a burst copy's ``dst``) in the frame's head, so only a
  record that encoded takes one.  It is the link's one send method: a
  record for this link alone is a shared frame too.  The frame joins
  the queue with its send time.  On a connected link the queue is written
  at the end of the loop callback that sent its first frame
  (``loop.call_soon``), or at once when it holds ``queue_limit`` frames.
  A send returns the backpressure waiter the sender must await, or
  ``None``.
* **In flight** — the frames written since the transport's write buffer
  was last empty (a clean close flushed them all), and any written to a
  transport that was closing (a failed write drops its buffer).  A
  closing transport takes no further write: the link counts the
  connection as lost, and the frames in flight go back to the head of
  the queue, ahead of the unwritten ones, to go out again, whole, on the
  next connection; the receiver's per-link sequence dedup makes delivery
  exactly-once.  ``close()`` writes the queue before it closes the
  connection.
* **Reconnect** — capped exponential backoff (``min(base * 2**attempt,
  cap)``), reset by a handshake.  The connector runs only while the link
  is disconnected: at once after a loss that left frames queued,
  otherwise at the next send.
* **Backpressure** — one waiter: a sender waits while its transport has
  paused writing (``pause_writing`` / ``resume_writing``), or while a
  disconnected link queues more than ``queue_limit`` frames, until the
  transport resumes, a new connection takes the queue, or the link
  fails.

The backoff schedule is a fixed ramp — links carry no randomness of
their own.  ``_write`` is the one place that counts frames, bytes,
writes and retransmits, and takes one queue-wait sample per frame (on
the event loop's clock, from the send call to the write that carried
it); the link also records the deepest its disconnected queue
got (``queue_depth_peak``).  The node folds all of it into
``net.live.*``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Awaitable, Callable, Optional

from . import wire

__all__ = ["LinkProtocol", "LinkStats", "PeerLink"]

#: ``(transport, conn)`` as ``loop.create_connection(LinkProtocol, ...)``
#: returns it: the link writes through ``conn`` (``write``, ``close``)
#: and reads the HELLO and the connection's end off
#: ``transport.get_protocol()``.
Dialer = Callable[[], Awaitable[tuple[Any, Any]]]


class LinkStats:
    """Counters and samples one link maintains.

    The fields named in :data:`COUNTER_FIELDS` are plain monotonic
    counters — :meth:`as_dict` exposes exactly those, and the node sums
    them across links into ``net.live.*`` counters.  ``queue_depth_peak``
    and ``queue_wait_samples`` are *not* counters (a peak maxes, samples
    concatenate) and are folded explicitly.

    ``frames_sent`` / ``bytes_sent`` count a frame once, at its first
    write.  ``writes`` counts the ``transport.write`` calls that carried
    frames, so ``frames_sent / writes`` is the coalescing.
    ``retransmits`` counts frames written *again*: each frame in flight
    when a connection died, each time it goes out on a new one.
    """

    COUNTER_FIELDS = (
        "frames_sent",
        "writes",
        "retransmits",
        "reconnects",
        "handshakes",
        "backpressure_waits",
        "chaos_closes",
        "bytes_sent",
    )

    __slots__ = COUNTER_FIELDS + ("queue_depth_peak", "queue_wait_samples")

    def __init__(self) -> None:
        self.frames_sent = 0
        self.writes = 0
        self.retransmits = 0
        self.reconnects = 0
        self.handshakes = 0
        self.backpressure_waits = 0
        self.chaos_closes = 0
        self.bytes_sent = 0
        self.queue_depth_peak = 0
        self.queue_wait_samples: list[float] = []

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}


class LinkProtocol(asyncio.Protocol):
    """The dialer's end of one connection.

    It reads one record, the listener's HELLO, into :attr:`hello` (the
    listener sends nothing after it; later bytes are dropped unread),
    keeps ``pause_writing`` / ``resume_writing`` in :attr:`paused`, and
    resolves :attr:`closed` with ``connection_lost``'s exception.  Its
    ``write`` is the transport's own.
    """

    write: Callable[[bytes], None]

    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.hello: asyncio.Future[tuple] = loop.create_future()
        self.closed: asyncio.Future[Optional[BaseException]] = loop.create_future()
        #: Called as ``on_lost(self, exc)`` from ``connection_lost``.
        self.on_lost: Optional[Callable[[Any, Optional[BaseException]], None]] = None
        #: Called (no arguments) when the transport takes writes again,
        #: and when the connection is lost.
        self.on_resume: Optional[Callable[[], None]] = None
        self.paused = False
        self.transport: Any = None
        self._splitter = wire.FrameSplitter()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.write = transport.write

    def data_received(self, data: bytes) -> None:
        if self.hello.done():
            return
        try:
            for body in self._splitter.feed(data):
                self.hello.set_result(wire.decode_body(body))
                return
        except wire.WireError as exc:
            self.hello.set_exception(exc)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self.hello.done():
            self.hello.set_exception(
                ConnectionResetError("connection closed before the peer's HELLO")
            )
        self.closed.set_result(exc)
        self.resume_writing()
        if self.on_lost is not None:
            self.on_lost(self, exc)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.on_resume is not None:
            self.on_resume()

    def close(self) -> None:
        self.transport.close()


class PeerLink:
    """Reliable, ordered, deduplicatable frame stream to one peer."""

    def __init__(
        self,
        self_id: int,
        peer_id: int,
        dial: Dialer,
        *,
        instance: str,
        queue_limit: int = 256,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_dial_failures: int = 120,
        drain_grace: float = 5.0,
        chaos_close_after: Optional[int] = None,
        on_failure: Optional[Callable[[], None]] = None,
    ) -> None:
        self.self_id = int(self_id)
        self.peer_id = int(peer_id)
        self.dial = dial
        self.instance = str(instance)
        self.queue_limit = int(queue_limit)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.max_dial_failures = int(max_dial_failures)
        #: How long a *disconnected* link keeps redialling after close()
        #: while frames are still undelivered.  Without the grace, a node
        #: exiting during a peer's reconnect window could abandon its
        #: queued DECIDED announcement and leave that peer waiting
        #: forever.
        self.drain_grace = float(drain_grace)
        #: After this many frames sent, the link writes half of the next
        #: one and closes its own connection, once — the fault-injection
        #: hook the reconnect tests (and the disconnect-survival
        #: acceptance run) flip on.  On a connected link the frames sent
        #: before it are written first, on their own; the torn frame, and
        #: any written with it, stays in flight and goes out whole after
        #: the reconnect.
        self.chaos_close_after = chaos_close_after
        #: Called (no arguments) when the link fails permanently, so an
        #: owner blocked on something else learns of it at once.
        self.on_failure = on_failure
        self.stats = LinkStats()
        #: Frames not yet written to the current connection, oldest first:
        #: ``(frame, send time)``, or ``(frame, None)`` for one that was in
        #: flight on a lost connection.
        self._queue: deque[tuple[bytes, Optional[float]]] = deque()
        #: Frames written since the transport's buffer was last empty.
        self._inflight: list[bytes] = []
        self._next_seq = 0
        #: The handshaken connection while connected, else None.
        self._proto: Optional[LinkProtocol] = None
        self._conn: Any = None
        self._connector: Optional[asyncio.Task[None]] = None
        #: The backpressure waiter: resolved when the transport resumes,
        #: a new connection takes the queue, or the link fails.
        self._room: Optional[asyncio.Future[None]] = None
        self._started = False
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._closing = asyncio.Event()
        self._close_deadline: Optional[float] = None

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start dialling (idempotent)."""
        if not self._started:
            self._started = True
            self._connect()

    async def close(self) -> None:
        """Close the connection once what was sent is written.

        A connected link writes its queue and closes its transport, which
        flushes the write buffer first.  A link stuck in the dial/backoff
        path with nothing left to deliver returns immediately: the peer it
        is redialling has typically exited for good (the cluster is past
        its decision), so waiting out the full reconnect ramp would stall
        teardown for minutes.  If frames *are* still undelivered — e.g. a
        DECIDED announcement sent while the connection was down — the
        link keeps redialling for ``drain_grace`` seconds before giving
        up, so the last frames of a run are not silently dropped.
        """
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        proto = self._proto
        if proto is not None:
            self._write()
            proto.close()
            await proto.closed  # _on_lost requeues what an error left in flight
        if self._queue and self._started and self._failure is None:
            self._connect()
        if self._connector is not None:
            try:
                await self._connector
            except asyncio.CancelledError:
                pass

    def abort(self) -> None:
        """Tear the link down immediately (run teardown path)."""
        self._closed = True
        if self._connector is not None:
            self._connector.cancel()
        if self._proto is not None:
            self._proto.transport.abort()

    @property
    def failed(self) -> Optional[BaseException]:
        """The permanent failure that killed this link, if any."""
        return self._failure

    # ------------------------------------------------------------- sending
    def send_shared(
        self, shared: wire.SharedFrame, dst: Optional[int] = None
    ) -> Optional[Awaitable[None]]:
        """Queue this link's frame of ``shared``, stamped with the next
        sequence number (and ``dst``, for a burst's copy); returns what
        the sender must await, if anything."""
        if self._failure is not None:
            raise self._broken()
        frame = wire.link_frame(shared, self._next_seq, dst)
        self._next_seq += 1
        loop = asyncio.get_running_loop()
        queue = self._queue
        if self.stats.frames_sent + len(queue) == self.chaos_close_after:
            self._write()  # the hook tears its frame in a write of its own
        queue.append((frame, loop.time()))
        depth = len(queue)
        proto = self._proto
        if proto is not None:
            if depth >= self.queue_limit:
                self._write()
            elif depth == 1:
                loop.call_soon(self._write)
            return self._wait() if proto.paused else None
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth
        if self._started and not self._closed:
            self._connect()
        return self._wait() if depth > self.queue_limit else None

    def _write(self) -> None:
        """Write the queue to the connection in one write: the frames
        that were in flight on a lost connection first, then the ones
        sent since.  A no-op while disconnected or when the queue is
        empty.  The chaos hook cuts the write inside the frame past
        ``chaos_close_after`` and closes the connection."""
        queue, proto = self._queue, self._proto
        if proto is None or not queue:
            return
        transport = proto.transport
        if transport.is_closing():
            # The peer closed the connection or a write failed: the
            # transport drops what it is handed now, and may have dropped
            # what is in flight.
            self._lost()
            return
        stats = self.stats
        samples = stats.queue_wait_samples
        now = asyncio.get_running_loop().time()
        frames: list[bytes] = []
        torn = False
        while queue and not torn:
            frame, since = queue.popleft()
            frames.append(frame)
            if since is None:
                stats.retransmits += 1
                continue
            torn = stats.frames_sent == self.chaos_close_after
            stats.frames_sent += 1
            stats.bytes_sent += len(frame)
            samples.append(now - since)
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        stats.writes += 1
        if torn:
            self.chaos_close_after = None
            stats.chaos_closes += 1
            self._conn.write(data[: len(data) - len(frames[-1]) // 2])
            self._conn.close()
            self._inflight += frames
            self._lost()
            return
        self._conn.write(data)
        if transport.get_write_buffer_size() or transport.is_closing():
            self._inflight += frames
        elif self._inflight:
            self._inflight = []

    def _wait(self) -> Awaitable[None]:
        """The backpressure waiter, shared by every sender that waits."""
        self.stats.backpressure_waits += 1
        if self._room is None or self._room.done():  # done: its sender was cancelled
            self._room = asyncio.get_running_loop().create_future()
        return self._room

    def _wake(self) -> None:
        room, self._room = self._room, None
        if room is None or room.done():
            return
        if self._failure is None:
            room.set_result(None)
        else:
            room.set_exception(self._broken())

    def _broken(self) -> wire.WireError:
        error = wire.WireError(
            f"link to node {self.peer_id} failed permanently: {self._failure}"
        )
        error.__cause__ = self._failure
        return error

    # ---------------------------------------------------------- connection
    def _fail(self, failure: BaseException) -> None:
        self._failure = failure
        self._wake()
        if self.on_failure is not None:
            self.on_failure()

    def _connect(self) -> None:
        if self._connector is None or self._connector.done():
            self._connector = asyncio.get_running_loop().create_task(
                self._connect_loop(),
                name=f"peerlink-{self.self_id}->{self.peer_id}",
            )

    def _lost(self) -> None:
        """Count the connection as lost: the frames in flight go back to
        the head of the queue, ahead of the unwritten ones, and the link
        redials if anything is queued."""
        self._proto.on_resume = None  # its connection_lost wakes no sender
        self._proto = self._conn = None
        if self._inflight:
            self._queue.extendleft((frame, None) for frame in reversed(self._inflight))
            self._inflight = []
        if self._queue and not self._closed:
            self._connect()

    def _on_lost(self, proto: LinkProtocol, exc: Optional[BaseException]) -> None:
        if proto is not self._proto:
            return  # a connection the link already gave up
        if exc is None:
            # A clean close wrote every buffered byte.
            self._inflight = []
        self._lost()

    async def _connect_loop(self) -> None:
        attempt = 0
        while True:
            try:
                transport, conn = await self.dial()
            except (ConnectionError, OSError):
                attempt += 1
                if attempt > self.max_dial_failures:
                    self._fail(ConnectionError(
                        f"node {self.peer_id} unreachable after "
                        f"{attempt - 1} attempts"
                    ))
                    return
                if await self._backoff_or_closing(attempt):
                    return
                continue
            proto = transport.get_protocol()
            try:
                conn.write(wire.encode_hello(self.self_id, self.instance))
                wire.check_hello(
                    await proto.hello, instance=self.instance,
                    expected_id=self.peer_id,
                )
            except (wire.WireError, ConnectionError, OSError) as exc:
                conn.close()
                if isinstance(exc, wire.WireError):
                    self._fail(exc)  # malformed or mismatching HELLO: permanent
                    return
                attempt += 1
                if attempt > self.max_dial_failures:
                    # A peer that accepts but never completes the
                    # handshake counts against the same budget as one
                    # that refuses outright.
                    self._fail(ConnectionError(
                        f"node {self.peer_id} never completed a handshake "
                        f"in {attempt - 1} attempts"
                    ))
                    return
                if await self._backoff_or_closing(attempt):
                    return
                continue
            if self.stats.handshakes:
                self.stats.reconnects += 1
            attempt = 0
            self.stats.handshakes += 1
            self._proto, self._conn = proto, conn
            proto.on_lost, proto.on_resume = self._on_lost, self._wake
            self._write()
            self._wake()
            if self._proto is None:
                # The write tore or met a closing transport: whatever this
                # connection had in flight goes out first on the next one.
                attempt += 1
                if await self._backoff_or_closing(attempt):
                    return
                continue
            if not self._closed:
                return
            # close() is waiting on this delivery: finish it, and redial
            # (within the grace) if the close left frames in flight.
            proto.close()
            await proto.closed
            if not self._queue:
                return

    async def _backoff_or_closing(self, attempt: int) -> bool:
        """Back off before the next dial; True if the connector should stop.

        close() interrupts the ramp, but a closing link that still holds
        undelivered frames keeps redialling until ``drain_grace`` runs
        out — dropping the tail of a run (a DECIDED announcement, the
        last round marker) would strand peers that are still waiting on
        it.
        """
        delay = self._backoff(attempt)
        if not self._closing.is_set():
            try:
                await asyncio.wait_for(self._closing.wait(), timeout=delay)
                # close() arrived mid-backoff; fall through to the
                # drain-grace decision below.
            except asyncio.TimeoutError:
                return False
        if not self._queue:
            return True
        loop = asyncio.get_running_loop()
        if self._close_deadline is None:
            self._close_deadline = loop.time() + self.drain_grace
        remaining = self._close_deadline - loop.time()
        if remaining <= 0:
            return True
        await asyncio.sleep(min(delay, remaining))
        return False

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
