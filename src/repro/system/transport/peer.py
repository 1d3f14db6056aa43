"""One outgoing peer link: dial, handshake, retransmit, backpressure.

Each live node keeps one :class:`PeerLink` per remote peer.  The link
owns a bounded send queue and a writer task:

* **Handshake** — on every (re)connect the dialer sends its HELLO
  (node id, wire version, instance id) and reads the listener's HELLO
  back (:func:`repro.system.transport.wire.read_hello`).  A malformed
  HELLO, another wire version, another instance or another identity
  permanently fails the link (such a peer will never become right).
* **Reconnect** — connection refusal or loss triggers capped exponential
  backoff (``delay = min(base * 2**attempt, cap)``); the attempt counter
  resets after a successful handshake.  The batch being written when
  the connection died is retransmitted first, whole — frames only leave
  the in-flight batch after a successful ``drain()``.  The receiver
  deduplicates by the per-link sequence number, so retransmission is
  exactly-once at the protocol layer.
* **Backpressure** — ``send()`` awaits when the queue holds
  ``queue_limit`` frames, propagating slowness to the producing
  protocol loop instead of buffering without bound.

The queue holds *encoded frames*: a record is encoded once, when it is
enqueued, and those bytes are the snapshot of its payload (nothing the
sender does to the object later can reach the wire).  The writer takes
everything queued — up to :data:`MAX_BATCH_FRAMES` — and hands it to
the socket in one ``write`` and one ``drain``.

Timings use the event loop's monotonic clock only (never the wall
clock), and the backoff schedule is a fixed deterministic ramp — links
carry no randomness of their own.

Beyond the six link counters, each link records transport telemetry the
node folds into its registry: bytes written (``bytes_sent``), the
deepest the send queue ever got (``queue_depth_peak``), and per-frame
queue-wait times (``queue_wait_samples``, seconds from enqueue to first
write attempt, i.e. to the moment the writer takes the frame into a
batch — exported as the ``net.live.queue_wait_us`` histogram).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional

from . import wire

__all__ = ["LinkStats", "PeerLink"]

#: (reader, writer) pair as returned by asyncio.open_connection.
Dialer = Callable[[], Awaitable[tuple[Any, Any]]]

#: Most frames one ``write`` carries (and one reconnect retransmits): a
#: full default queue, ~12 KiB of the ~50-byte protocol frames — well
#: inside one socket buffer, so the single ``drain`` rarely has to wait.
MAX_BATCH_FRAMES = 256


class LinkStats:
    """Counters and samples one link maintains.

    The fields named in :data:`COUNTER_FIELDS` are plain monotonic
    counters — :meth:`as_dict` exposes exactly those, and the node sums
    them across links into ``net.live.*`` counters.  ``queue_depth_peak``
    and ``queue_wait_samples`` are *not* counters (a peak maxes, samples
    concatenate) and are folded explicitly.

    ``frames_sent`` / ``bytes_sent`` count a frame once, when the
    ``drain()`` of the batch carrying it succeeds.  ``retransmits``
    counts frames handed to a socket *again*: every frame of the batch
    that was in flight when a connection died, each time that batch is
    written to a new connection.
    """

    COUNTER_FIELDS = (
        "frames_sent",
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
        #: How long a *disconnected* writer keeps redialling after
        #: close() while frames are still undelivered.  Without the
        #: grace, a node exiting during a peer's reconnect window could
        #: abandon its queued DECIDED announcement and leave that peer
        #: waiting forever.
        self.drain_grace = float(drain_grace)
        #: After this many successfully written frames, the link aborts
        #: its own socket once — the fault-injection hook the reconnect
        #: tests (and the disconnect-survival acceptance run) flip on.
        #: A batch that would cross the count is cut there: the head is
        #: written and drained, the rest rides over the reconnect.
        self.chaos_close_after = chaos_close_after
        #: Called (no arguments) when the link fails permanently, so an
        #: owner blocked on something else learns of it at once.
        self.on_failure = on_failure
        self.stats = LinkStats()
        #: ``(encoded frame, enqueue time)``; ``None`` is close()'s sentinel.
        self._queue: asyncio.Queue[Optional[tuple[bytes, float]]] = (
            asyncio.Queue(maxsize=self.queue_limit)
        )
        #: Frames taken off the queue and not yet drained to a socket —
        #: the unit that is retransmitted, whole, after a reconnect.
        self._batch: list[bytes] = []
        self._next_seq = 0
        self._writer_task: Optional[asyncio.Task[None]] = None
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._closing = asyncio.Event()
        self._close_deadline: Optional[float] = None

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the writer task (idempotent)."""
        if self._writer_task is None:
            self._writer_task = asyncio.get_running_loop().create_task(
                self._writer_loop(), name=f"peerlink-{self.self_id}->{self.peer_id}"
            )

    async def close(self) -> None:
        """Flush nothing further; stop the writer after the queue drains.

        A *connected* writer drains the queue before exiting.  A writer
        stuck in the dial/backoff path with nothing left to deliver
        returns immediately: the peer it is redialling has typically
        exited for good (the cluster is past its decision), so waiting
        out the full reconnect ramp would stall teardown for minutes.
        If frames *are* still undelivered — e.g. a DECIDED announcement
        queued while the connection was down — the writer keeps
        redialling for ``drain_grace`` seconds before giving up, so the
        last frames of a run are not silently dropped.
        """
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        await self._queue.put(None)
        if self._writer_task is not None:
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass

    def abort(self) -> None:
        """Tear the link down immediately (run teardown path)."""
        self._closed = True
        if self._writer_task is not None:
            self._writer_task.cancel()

    @property
    def failed(self) -> Optional[BaseException]:
        """The permanent failure that killed this link, if any."""
        return self._failure

    # ------------------------------------------------------------- sending
    def next_seq(self) -> int:
        """Allocate the next per-link sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    async def send_message(self, msg: Any, stamp: Optional[tuple] = None) -> None:
        """Queue one protocol message, optionally with its causal stamp."""
        await self._put(wire.message_record(msg, self.next_seq(), stamp))

    async def send_round(self, round: int, decided: bool) -> None:
        await self._put((wire.ROUND, self.next_seq(), int(round), bool(decided)))

    async def send_decided(self) -> None:
        await self._put((wire.DECIDED, self.next_seq(), self.self_id))

    async def _put(self, record: tuple) -> None:
        if self._failure is not None:
            raise wire.WireError(
                f"link to node {self.peer_id} failed permanently: "
                f"{self._failure}"
            ) from self._failure
        # Encoded here, once: the bytes are the payload's snapshot.
        item = (
            wire.encode_for_version(record, wire.WIRE_VERSION),
            asyncio.get_running_loop().time(),
        )
        if self._queue.full():
            self.stats.backpressure_waits += 1
            await self._queue.put(item)
        else:
            self._queue.put_nowait(item)
        depth = self._queue.qsize()
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth

    # -------------------------------------------------------- writer task
    def _fail(self, failure: BaseException) -> None:
        self._failure = failure
        if self.on_failure is not None:
            self.on_failure()

    async def _writer_loop(self) -> None:
        attempt = 0
        batch = self._batch
        closing = False  # close()'s sentinel has been taken off the queue
        frames_written = 0
        chaos_at = self.chaos_close_after  # None once it has fired
        while True:
            try:
                reader, writer = await self.dial()
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
            try:
                await self._handshake(reader, writer)
            except (wire.WireError, ConnectionError, OSError, EOFError) as exc:
                writer.close()
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
            try:
                while True:
                    if batch:
                        # First iteration after a reconnect: the batch in
                        # flight when the connection died goes out again.
                        self.stats.retransmits += len(batch)
                    else:
                        closing = await self._take_batch()
                    cut = len(batch)
                    if chaos_at is not None and frames_written + cut > chaos_at:
                        cut = chaos_at - frames_written
                    if cut:
                        data = b"".join(batch[:cut])
                        writer.write(data)
                        await writer.drain()
                        self.stats.frames_sent += cut
                        self.stats.bytes_sent += len(data)
                        frames_written += cut
                        del batch[:cut]
                    if batch:
                        # Fault injection (only the chaos cut leaves frames
                        # behind): drop the connection (graceful FIN, so
                        # drained frames still arrive) and force the
                        # reconnect path; the rest of the batch rides over it.
                        chaos_at = None
                        self.stats.chaos_closes += 1
                        writer.close()
                        raise ConnectionResetError("chaos: forced close")
                    if closing:
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except (ConnectionError, OSError):
                            pass
                        return
            except (ConnectionError, OSError, EOFError):
                # Connection died mid-stream: whatever was being written
                # stays in `batch` and goes out first after reconnect.
                writer.close()
                attempt += 1
                if await self._backoff_or_closing(attempt):
                    return

    async def _take_batch(self) -> bool:
        """Wait for a frame, then move everything queued (at most
        :data:`MAX_BATCH_FRAMES`) into the batch, sampling each frame's
        queue wait once; True when close()'s sentinel was reached."""
        batch = self._batch
        item = await self._queue.get()
        now = asyncio.get_running_loop().time()
        waits = self.stats.queue_wait_samples
        while item is not None:
            frame, enqueued_at = item
            batch.append(frame)
            waits.append(max(0.0, now - enqueued_at))
            if len(batch) == MAX_BATCH_FRAMES or self._queue.empty():
                return False
            item = self._queue.get_nowait()
        return True

    async def _backoff_or_closing(self, attempt: int) -> bool:
        """Back off before the next dial; True if the writer should stop.

        close() interrupts the ramp, but a closing writer that still
        holds undelivered frames (an in-flight batch or anything queued
        beyond the close() sentinel) keeps redialling until
        ``drain_grace`` runs out — dropping the tail of a run (a DECIDED
        announcement, the last round marker) would strand peers that are
        still waiting on it.
        """
        delay = self._backoff(attempt)
        if not self._closing.is_set():
            try:
                await asyncio.wait_for(self._closing.wait(), timeout=delay)
                # close() arrived mid-backoff; fall through to the
                # drain-grace decision below.
            except asyncio.TimeoutError:
                return False
        if not self._batch and self._queue.qsize() <= 1:
            # Nothing left but the close() sentinel: stop immediately.
            return True
        loop = asyncio.get_running_loop()
        if self._close_deadline is None:
            self._close_deadline = loop.time() + self.drain_grace
        remaining = self._close_deadline - loop.time()
        if remaining <= 0:
            return True
        await asyncio.sleep(min(delay, remaining))
        return False

    async def _handshake(self, reader: Any, writer: Any) -> None:
        writer.write(wire.encode_hello(self.self_id, self.instance))
        await writer.drain()
        await wire.read_hello(
            reader, instance=self.instance, expected_id=self.peer_id
        )

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
