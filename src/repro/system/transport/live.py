"""Live backend: real asyncio nodes over loopback TCP or Unix sockets.

Each :class:`LiveNode` owns one protocol process, one listening socket,
and one outgoing :class:`~repro.system.transport.peer.PeerLink` per
peer, and drives the process through the exact same
:class:`~repro.system.process.Context` surface the simulator uses — the
protocol code cannot tell the backends apart.  Execution models:

* **Synchronous** — lockstep rounds over an asynchronous network via
  round-barrier markers: after emitting its round-``r`` traffic a node
  sends ``ROUND(r, decided)`` on every link; per-link FIFO order makes
  the marker a fence, so once every peer's marker for round ``r`` has
  arrived, the full round-``r`` inbox has too, and round ``r + 1`` may
  start.  This preserves the synchronous abstraction ("every message
  sent in round r is delivered at the start of round r+1") without a
  global clock.
* **Asynchronous** — event-driven delivery in real arrival order; a
  node announces ``DECIDED`` once its process decides and stops when
  every peer has announced.

The live backend executes *honest* runs only: the simulator's rushing
adversary, delivery policies, and transcript determinism intrinsically
require the in-process backend (which stays the deterministic one).
Requesting an adversarial live run raises
:class:`~repro.system.transport.base.TransportError`.

Both backends surface the same ``net.*`` metrics; the live one adds
``net.live.*`` counters (handshakes, reconnects, retransmits, dedup
drops, backpressure waits, bytes, wire vs effective frame deliveries)
plus a send-queue wait histogram and depth-peak gauge.

When a :class:`~repro.obs.causal.CausalCollector` is installed
(ambient, per process), every node stamps its sends and deliveries: the
send event's ``(eid, lamport, clock)`` rides on the MSG frame and the
receiver merges it via ``on_deliver_remote``, so N per-node
trails stitch into one cross-process happens-before graph
(:mod:`repro.obs.fleet`).  With the default null collector all of this
is skipped — the hot path only checks ``collector.enabled``.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ...obs.causal import get_causal_collector
from ...obs.metrics import MetricsRegistry, active_registry
from ...obs.probes import Probe, ProbeView
from ..adversary import Adversary
from ..messages import ALL, Message, canonical_bytes
from ..network import NetworkStats
from ..process import AsyncProcess, Context, Node, SyncProcess
from ..scheduler import RunResult, _finish_probes, _fold_network_stats
from ..topology import Topology
from . import wire
from .base import Transport, TransportError
from .peer import LinkStats, PeerLink

__all__ = ["LiveNode", "LiveTransport", "NodeAddress", "node_seeds"]

#: Deliveries the async driver handles back to back before it yields to
#: the event loop once: long enough to amortise the loop turn, short
#: enough that link writers, co-hosted nodes and ``run_timeout`` get a
#: turn after about a millisecond of handler work (~15 us a delivery).
YIELD_EVERY = 64


#: Keys of a node entry (``NodeAddress.as_dict``) and their JSON types.
_ADDRESS_FIELDS = {"id": int, "kind": str, "host": str, "port": int, "path": str}


@dataclass(frozen=True)
class NodeAddress:
    """Where one node listens: loopback TCP or a Unix-domain socket."""

    node_id: int
    kind: str  # "tcp" | "uds"
    host: str = "127.0.0.1"
    port: int = 0
    path: str = ""

    def dialer(self) -> Callable[[], Any]:
        """Zero-argument coroutine factory opening a connection here."""
        if self.kind == "tcp":
            host, port = self.host, self.port

            def dial_tcp() -> Any:
                return asyncio.open_connection(host, port)

            return dial_tcp
        path = self.path

        def dial_uds() -> Any:
            return asyncio.open_unix_connection(path)

        return dial_uds

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.node_id,
            "kind": self.kind,
            "host": self.host,
            "port": self.port,
            "path": self.path,
        }

    @staticmethod
    def from_dict(doc: Any) -> "NodeAddress":
        """The address a topology-file node entry names; ``ValueError``
        unless it has ``id`` and ``kind`` and every field its type."""
        if not isinstance(doc, dict) or not {"id", "kind"} <= set(doc):
            raise ValueError(f"node entry needs 'id' and 'kind': {doc!r}")
        for key, value in doc.items():
            if type(value) is not _ADDRESS_FIELDS.get(key):
                raise ValueError(f"bad node entry field {key!r}: {value!r}")
        return NodeAddress(
            node_id=doc["id"],
            kind=doc["kind"],
            host=doc.get("host", "127.0.0.1"),
            port=doc.get("port", 0),
            path=doc.get("path", ""),
        )


def node_seeds(seed: int, n: int) -> list[int]:
    """Per-node context seeds derived from the master seed.

    Every node of a cluster derives the identical list locally, so
    subprocess nodes need only the master seed from the topology file.
    """
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


class LiveNode:
    """One consensus node: a process, a listener, and n-1 peer links."""

    def __init__(
        self,
        node_id: int,
        n: int,
        f: int,
        process: Any,
        address: NodeAddress,
        *,
        instance: str,
        seed: int = 0,
        max_rounds: int = 10_000,
        max_steps: int = 1_000_000,
        chaos_drop_peer: Optional[int] = None,
        chaos_drop_after: int = 0,
    ) -> None:
        self.node_id = int(node_id)
        self.n = int(n)
        self.f = int(f)
        self.process = process
        self.address = address
        self.instance = str(instance)
        self.seed = int(seed)
        self.max_rounds = int(max_rounds)
        self.max_steps = int(max_steps)
        #: Force-close the link to this peer once, after that many frames
        #: — the disconnect-survival knob (see PeerLink.chaos_close_after).
        self.chaos_drop_peer = chaos_drop_peer
        self.chaos_drop_after = int(chaos_drop_after)

        ctx_seed = node_seeds(self.seed, self.n)[self.node_id]
        self.ctx = Context(
            self.node_id, self.n, self.f, np.random.default_rng(ctx_seed)
        )
        self.node = Node(self.node_id, process, self.ctx)
        self.stats = NetworkStats()
        self.rounds_done = 0
        self.completed = False
        self.dupes_dropped = 0
        #: Frames arriving on the wire, *including* retransmitted
        #: duplicates — vs ``frames_received``, which counts only the
        #: effective (post-dedup) deliveries.  Invariant:
        #: ``wire_frames_received == frames_received + dupes_dropped``.
        self.wire_frames_received = 0
        self.frames_received = 0
        #: Ambient causal collector, re-captured at run() start.  The
        #: null default keeps every stamp site a single attribute check.
        self.collector = get_causal_collector()

        self._links: dict[int, PeerLink] = {}
        #: The links in peer-id order, fixed once by connect_peers.
        self._peer_links: tuple[PeerLink, ...] = ()
        self._server: Any = None
        self._server_conns: list[Any] = []
        self._serve_tasks: list[Any] = []
        # Receive state: plain containers, written by the connection
        # handlers and read by the driver on the one event loop (no
        # threads, and no await inside an update, so no lock).
        # Message buffers hold (Message, meta) pairs where meta describes
        # the delivery's causal provenance: ("local", send_eid) for
        # self-deliveries, ("remote", (origin_eid, lamport, clock)) for
        # stamped frames, None for unstamped frames or tracing off.
        self._last_seq: dict[int, int] = {}
        self._pending_msgs: dict[int, list[tuple[Message, Any]]] = {}
        self._round_msgs: dict[int, dict[int, list[tuple[Message, Any]]]] = {}
        self._peer_round: dict[int, int] = {}
        self._peer_decided: dict[int, bool] = {}
        self._inq: deque[tuple[Message, Any]] = deque()
        #: The driver's one wake-up: set by every effective record and by
        #: a link failing permanently; the driver clears it before it waits.
        self._wake: asyncio.Event = asyncio.Event()

    # ------------------------------------------------------------ lifecycle
    async def start_server(self) -> NodeAddress:
        """Bind the listener; returns the (possibly port-resolved) address."""
        if self.address.kind == "tcp":
            self._server = await asyncio.start_server(
                self._serve_conn, host=self.address.host, port=self.address.port
            )
            port = self._server.sockets[0].getsockname()[1]
            self.address = NodeAddress(
                self.node_id, "tcp", host=self.address.host, port=int(port)
            )
        elif self.address.kind == "uds":
            self._server = await asyncio.start_unix_server(
                self._serve_conn, path=self.address.path
            )
        else:
            raise TransportError(f"unknown address kind {self.address.kind!r}")
        return self.address

    def connect_peers(self, addresses: dict[int, NodeAddress]) -> None:
        """Create (but do not yet dial) one outgoing link per peer."""
        for peer_id in range(self.n):
            if peer_id == self.node_id:
                continue
            chaos = (
                self.chaos_drop_after
                if self.chaos_drop_peer == peer_id
                else None
            )
            self._links[peer_id] = PeerLink(
                self.node_id,
                peer_id,
                addresses[peer_id].dialer(),
                instance=self.instance,
                chaos_close_after=chaos,
                on_failure=self._wake.set,
            )
        self._peer_links = tuple(self._links.values())

    async def shutdown(self) -> None:
        for link in self._peer_links:
            link.abort()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (ConnectionError, OSError):
                pass
        for writer in self._server_conns:
            writer.close()
        # Drain the handler tasks now (they wake on the EOF the close
        # above produced) so loop teardown finds nothing to cancel.
        if self._serve_tasks:
            await asyncio.gather(*self._serve_tasks, return_exceptions=True)

    # ------------------------------------------------------- incoming side
    async def _serve_conn(self, reader: Any, writer: Any) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serve_tasks.append(task)
        try:
            peer_id = await wire.read_hello(reader, instance=self.instance)
            if peer_id == self.node_id or not 0 <= peer_id < self.n:
                raise wire.WireError(f"HELLO from node {peer_id}: not a peer")
            writer.write(wire.encode_hello(self.node_id, self.instance))
            await writer.drain()
        except (wire.WireError, ConnectionError, OSError, EOFError):
            writer.close()
            return
        self._server_conns.append(writer)
        try:
            async for record in wire.read_frames(reader):
                self._on_record(peer_id, record)
        except (wire.WireError, ConnectionError, OSError):
            pass
        finally:
            writer.close()

    def _on_record(self, peer_id: int, record: tuple) -> None:
        kind, seq = record[0], record[1]
        if kind == wire.MSG:
            # The handshake's peer id is the only src a handler ever sees;
            # a record that claims otherwise is refused before it is counted.
            _, msg = wire.decode_message(record)
            if msg.src != peer_id or msg.dst not in (self.node_id, ALL):
                raise wire.WireError(
                    f"link from node {peer_id} carried {msg.src} -> {msg.dst}"
                )
        self.wire_frames_received += 1
        if seq <= self._last_seq.get(peer_id, -1):
            self.dupes_dropped += 1  # retransmit after reconnect
            return
        self._last_seq[peer_id] = seq
        self.frames_received += 1
        if kind == wire.MSG:
            stamp = wire.message_stamp(record)
            entry = (msg, ("remote", stamp) if stamp is not None else None)
            self._pending_msgs.setdefault(peer_id, []).append(entry)
            self._inq.append(entry)
        elif kind == wire.ROUND:
            _, _, round_, decided = record
            bucket = self._round_msgs.setdefault(round_, {})
            bucket[peer_id] = self._pending_msgs.pop(peer_id, [])
            self._peer_round[peer_id] = round_
            if decided:
                self._peer_decided[peer_id] = True
        elif kind == wire.DECIDED:
            self._peer_decided[peer_id] = True
        self._wake.set()

    # ------------------------------------------------------- outgoing side
    async def _route(
        self, msgs: Sequence[Message], round_: Optional[int] = None
    ) -> None:
        """Send what a handler queued: peer links, plus local delivery."""
        collector = self.collector
        for msg in msgs:
            self.stats.record_send(msg)
            stamp = None
            send_eid: Optional[int] = None
            if collector.enabled:
                # One send event per message, like the simulator — an
                # atomic broadcast fans its single stamp to every link.
                # The payload digest lets the post-hoc broadcast-
                # integrity probe compare what each receiver was sent.
                digest = hashlib.sha256(
                    canonical_bytes(msg.payload)
                ).hexdigest()[:16]
                send_eid = collector.on_send(
                    msg.src, msg.dst, msg.tag,
                    time=round_, seq=msg.seq, round=msg.round, digest=digest,
                )
                stamp = collector.stamp(send_eid)
            if msg.dst == ALL:
                for link in self._peer_links:
                    await link.send_message(msg, stamp=stamp)
                self._deliver_local(msg, round_, send_eid)
            elif msg.dst == self.node_id:
                self._deliver_local(msg, round_, send_eid)
            else:
                await self._links[msg.dst].send_message(msg, stamp=stamp)

    def _deliver_local(
        self, msg: Message, round_: Optional[int], send_eid: Optional[int]
    ) -> None:
        meta = ("local", send_eid) if send_eid is not None else None
        if round_ is not None:
            bucket = self._round_msgs.setdefault(round_, {})
            bucket.setdefault(self.node_id, []).append((msg, meta))
        else:
            self._inq.append((msg, meta))

    # ------------------------------------------------------------- driving
    async def run(self) -> RunResult:
        """Drive the process to decision; returns this node's RunResult."""
        self.collector = get_causal_collector()
        for link in self._peer_links:
            link.start()
        try:
            if isinstance(self.process, SyncProcess):
                await self._run_sync()
            elif isinstance(self.process, AsyncProcess):
                await self._run_async()
            else:
                raise TransportError(
                    f"process {type(self.process).__name__} is neither "
                    "SyncProcess nor AsyncProcess"
                )
        finally:
            self.process.on_stop(self.ctx)
            for link in self._peer_links:
                await link.close()
        return self._result()

    def _check_links(self) -> None:
        if any(link.failed is not None for link in self._peer_links):
            raise TransportError("a peer link failed permanently mid-run")

    async def _run_sync(self) -> None:
        inbox: dict[int, list[tuple[str, Any]]] = {}
        for r in range(self.max_rounds):
            self.rounds_done = r
            await self._route(self.node.round(r, inbox), round_=r)
            decided = self.ctx.decided
            for link in self._peer_links:
                await link.send_round(r, decided)
            # Barrier: every peer's round-r marker (hence all its round-r
            # traffic, by per-link FIFO) must arrive before round r+1.
            # A link that fails permanently wakes the wait and ends the run.
            while True:
                self._check_links()
                if all(self._peer_round.get(p, -1) >= r for p in self._links):
                    break
                self._wake.clear()
                await self._wake.wait()
            arrived = self._round_msgs.pop(r, {})
            all_decided = decided and all(
                self._peer_decided.get(p, False) for p in self._links
            )
            inbox = {}
            for src in sorted(arrived):
                entries = []
                for msg, meta in arrived[src]:
                    self._deliver_one(msg, meta, r)
                    entries.append((msg.tag, msg.payload))
                inbox[src] = entries
            if all_decided:
                self.rounds_done = r + 1
                self.completed = True
                return

    def _deliver_one(
        self, msg: Message, meta: Any, time_: Optional[int]
    ) -> None:
        """Count one effective delivery and stamp its causal event.

        Deliveries are stamped at *consumption* (when the message enters
        the process's inbox), so retransmitted duplicates — dropped in
        ``_on_record`` — never produce a deliver event or double-count
        the delivery stats.
        """
        self.stats.record_delivery(msg)
        collector = self.collector
        if not collector.enabled:
            return
        if meta is None:
            # Unstamped frame (the sender traced nothing): keep program
            # order faithful with a cause-less deliver event.
            collector.on_deliver(self.node_id, None, time=time_)
        elif meta[0] == "local":
            collector.on_deliver(self.node_id, meta[1], time=time_)
        else:
            origin_eid, lamport, clock = meta[1]
            collector.on_deliver_remote(
                self.node_id, msg.src, origin_eid, lamport, clock,
                src=msg.src, tag=msg.tag, time=time_,
            )

    async def _run_async(self) -> None:
        await self._route(self.node.start())
        inq = self._inq
        announced = False
        steps = 0
        since_yield = 0
        while steps < self.max_steps:
            if self.ctx.decided and not announced:
                announced = True
                for link in self._peer_links:
                    await link.send_decided()
            if announced and all(
                self._peer_decided.get(p, False) for p in self._links
            ):
                self.completed = True
                break
            if not inq:
                # Only an empty inbox arms the idle timer.  A permanently
                # failed link wakes the wait and surfaces as an error
                # (mirroring the sync barrier) rather than a silent hang.
                since_yield = 0
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    # Idle for a whole second: re-announce DECIDED to
                    # peers that have not echoed one back, in case the
                    # original announcement was lost to a connection
                    # that died and recovered.
                    if announced:
                        for link in self._peer_links:
                            if not self._peer_decided.get(link.peer_id, False):
                                await link.send_decided()
                self._check_links()
                continue
            if since_yield == YIELD_EVERY:
                since_yield = 0
                await asyncio.sleep(0)
            since_yield += 1
            msg, meta = inq.popleft()
            steps += 1
            self.rounds_done = steps
            self._deliver_one(msg, meta, steps)
            await self._route(self.node.deliver(msg))

    def _result(self) -> RunResult:
        decisions = (
            {self.node_id: self.ctx.decision} if self.ctx.decided else {}
        )
        registry = MetricsRegistry()
        _fold_network_stats(registry, self.stats)
        self._fold_live_metrics(registry)
        return RunResult(
            decisions=decisions,
            rounds=self.rounds_done,
            stats=self.stats,
            contexts={self.node_id: self.ctx},
            faulty=frozenset(),
            completed=self.completed,
            metrics=registry,
        )

    def _fold_live_metrics(self, registry: MetricsRegistry) -> None:
        totals = {name: 0 for name in LinkStats.COUNTER_FIELDS}
        depth_peak = 0
        wait_samples: list[float] = []
        for link in self._peer_links:
            stats = link.stats
            for name, value in stats.as_dict().items():
                totals[name] += value
            depth_peak = max(depth_peak, stats.queue_depth_peak)
            wait_samples.extend(stats.queue_wait_samples)
        for name in sorted(totals):
            registry.counter(f"net.live.{name}").value = totals[name]
        registry.counter("net.live.dupes_dropped").value = self.dupes_dropped
        registry.counter("net.live.wire_frames_received").value = (
            self.wire_frames_received
        )
        registry.counter("net.live.frames_received").value = (
            self.frames_received
        )
        if depth_peak:
            registry.set_gauge("net.live.queue_depth_peak", depth_peak)
        if wait_samples:
            registry.histogram("net.live.queue_wait_us").samples.extend(
                sample * 1e6 for sample in wait_samples
            )


class LiveTransport(Transport):
    """In-process cluster of :class:`LiveNode` objects on one event loop.

    ``run(spec)`` uses this backend for ``transport="live-tcp"`` /
    ``"live-uds"``: every node gets a real socket on loopback (or a Unix
    socket in a private temp directory) and the run completes when all
    nodes decide.  Subprocess-per-node deployments use the same
    :class:`LiveNode` through ``python -m repro node`` instead.
    """

    deterministic = False

    def __init__(
        self,
        kind: str = "tcp",
        *,
        run_timeout: float = 120.0,
        chaos_drop_link: Optional[tuple[int, int]] = None,
        chaos_drop_after: int = 8,
    ) -> None:
        if kind not in ("tcp", "uds"):
            raise ValueError(f"unknown live transport kind {kind!r}")
        self.kind = kind
        self.name = f"live-{kind}"
        self.run_timeout = float(run_timeout)
        #: ``(src, dst)``: force-close src's link to dst once mid-run.
        self.chaos_drop_link = chaos_drop_link
        self.chaos_drop_after = int(chaos_drop_after)

    # --------------------------------------------------------------- entry
    def run_sync(
        self,
        processes: Sequence[SyncProcess],
        f: int,
        *,
        adversary: Optional[Adversary] = None,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 10_000,
        sign: Optional[Callable[[int, Any], Any]] = None,
        topology: Optional[Topology] = None,
        probes: Sequence[Probe] = (),
        seed: int = 0,
    ) -> RunResult:
        self._check_honest(adversary, len(processes))
        self._check_topology(topology, len(processes))
        return self._execute(
            list(processes), f, probes=probes, seed=seed, max_rounds=max_rounds
        )

    def run_async(
        self,
        processes: Sequence[AsyncProcess],
        f: int,
        *,
        adversary: Optional[Adversary] = None,
        policy: Optional[Any] = None,
        rng: Optional[np.random.Generator] = None,
        max_steps: int = 1_000_000,
        probes: Sequence[Probe] = (),
        seed: int = 0,
    ) -> RunResult:
        self._check_honest(adversary, len(processes))
        if policy is not None:
            raise TransportError(
                "delivery policies are a simulator concept; the live "
                "backend delivers in real arrival order"
            )
        return self._execute(
            list(processes), f, probes=probes, seed=seed, max_steps=max_steps
        )

    # ------------------------------------------------------------ internals
    def _check_honest(self, adversary: Optional[Adversary], n: int) -> None:
        if adversary is not None and (
            adversary.faulty or adversary.custom_processes
        ):
            raise TransportError(
                "the live backend executes honest runs only; adversarial "
                "schedules and corruptions require the deterministic "
                "simulator (transport='sim')"
            )

    def _check_topology(self, topology: Optional[Topology], n: int) -> None:
        if topology is None:
            return
        complete = all(
            topology.allows(i, j)
            for i in range(n)
            for j in range(n)
            if i != j
        )
        if not complete:
            raise TransportError(
                "the live backend wires a complete graph; incomplete "
                "topologies require the simulator (transport='sim')"
            )

    def _execute(
        self,
        processes: list[Any],
        f: int,
        *,
        probes: Sequence[Probe],
        seed: int,
        max_rounds: int = 10_000,
        max_steps: int = 1_000_000,
    ) -> RunResult:
        n = len(processes)
        instance = f"inproc-{self.kind}-{seed}-{n}"
        try:
            results = asyncio.run(
                self._cluster(
                    processes, f, n, instance,
                    seed=seed, max_rounds=max_rounds, max_steps=max_steps,
                )
            )
        except RuntimeError as exc:
            if "running event loop" in str(exc):
                raise TransportError(
                    "LiveTransport cannot be entered from inside a "
                    "running asyncio event loop"
                ) from exc
            raise
        return self._merge(results, processes, f, probes)

    async def _cluster(
        self,
        processes: list[Any],
        f: int,
        n: int,
        instance: str,
        *,
        seed: int,
        max_rounds: int,
        max_steps: int,
    ) -> list[RunResult]:
        tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if self.kind == "uds":
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-uds-")
        nodes: list[LiveNode] = []
        try:
            for pid in range(n):
                if self.kind == "tcp":
                    addr = NodeAddress(pid, "tcp", host="127.0.0.1", port=0)
                else:
                    assert tmpdir is not None
                    addr = NodeAddress(
                        pid, "uds", path=os.path.join(tmpdir.name, f"n{pid}.sock")
                    )
                chaos_peer: Optional[int] = None
                if self.chaos_drop_link is not None and (
                    self.chaos_drop_link[0] == pid
                ):
                    chaos_peer = self.chaos_drop_link[1]
                nodes.append(
                    LiveNode(
                        pid, n, f, processes[pid], addr,
                        instance=instance, seed=seed,
                        max_rounds=max_rounds, max_steps=max_steps,
                        chaos_drop_peer=chaos_peer,
                        chaos_drop_after=self.chaos_drop_after,
                    )
                )
            addresses: dict[int, NodeAddress] = {}
            for node in nodes:
                addresses[node.node_id] = await node.start_server()
            for node in nodes:
                node.connect_peers(addresses)
            gathered = asyncio.gather(*(node.run() for node in nodes))
            try:
                return list(
                    await asyncio.wait_for(gathered, timeout=self.run_timeout)
                )
            except asyncio.TimeoutError:
                # Incomplete run: report whatever state the nodes reached.
                return [node._result() for node in nodes]
        finally:
            for node in nodes:
                await node.shutdown()
            if tmpdir is not None:
                tmpdir.cleanup()

    def _merge(
        self,
        results: list[RunResult],
        processes: list[Any],
        f: int,
        probes: Sequence[Probe],
    ) -> RunResult:
        n = len(processes)
        decisions: dict[int, Any] = {}
        contexts: dict[int, Context] = {}
        stats = NetworkStats()
        rounds = 0
        completed = bool(results)
        registry = active_registry() or MetricsRegistry()
        for result in results:
            decisions.update(result.decisions)
            contexts.update(result.contexts)
            rounds = max(rounds, result.rounds)
            completed = completed and result.completed
            stats.merge(result.stats)
            for name, metric in result.metrics.snapshot().items():
                if not name.startswith("net.live."):
                    continue
                kind = metric.get("type")
                if kind == "counter":
                    registry.inc(name, int(metric["value"]))
                elif kind == "gauge" and metric.get("updates"):
                    # Peaks max across nodes rather than summing.
                    gauge = registry.gauge(name)
                    if not gauge.updates or metric["value"] > gauge.value:
                        gauge.set(metric["value"])
                elif kind == "histogram" and metric.get("count"):
                    # The per-node registry is in-process: merge the
                    # exact samples, not the snapshot's summary stats.
                    registry.histogram(name).samples.extend(
                        result.metrics.histogram(name).samples
                    )
        _fold_network_stats(registry, stats)
        view = ProbeView(n, f, contexts, dict(enumerate(processes)), frozenset())
        for probe in probes:
            probe.attach(view)
        probe_reports = _finish_probes(probes, view, rounds)
        return RunResult(
            decisions=decisions,
            rounds=rounds,
            stats=stats,
            contexts=contexts,
            faulty=frozenset(),
            completed=completed,
            metrics=registry,
            probes=probe_reports,
        )
