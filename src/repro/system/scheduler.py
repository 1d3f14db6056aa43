"""Execution engines: lockstep synchronous rounds and adversarial async.

:class:`SynchronousScheduler`
    Runs :class:`~repro.system.process.SyncProcess` objects in rounds.
    Every message sent in round ``r`` arrives at the start of round
    ``r+1``.  Correct processes act first each round; the (rushing)
    adversary then transforms the faulty processes' traffic with full
    knowledge of the correct messages.

:class:`AsyncScheduler`
    Event-driven delivery, one message at a time, in an order chosen by a
    :class:`DeliveryPolicy`.  The built-in policies are seeded-random
    (fair with probability 1), global-FIFO, and :class:`DelayPolicy`
    (starve chosen victims as long as anything else is deliverable — the
    strongest schedule that is still *eventually* fair, which is what the
    asynchronous model permits).

Both are drivers over :class:`~repro.system.process.Node`, the one place a
handler runs: they pick the next event, count and stamp it, and route
what the handler queued.  ``run()`` is ``start()``, then ``step()`` until
the run is done; ``run()`` returns a :class:`RunResult` carrying
decisions, transcript statistics and the per-process contexts for
post-hoc assertions.  Between two ``step()`` calls the state is plain
values, so ``copy.deepcopy(scheduler)`` forks a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..obs import metrics as _obs
from ..obs.causal import get_causal_collector, use_causal_collector
from ..obs.metrics import MetricsRegistry, active_registry, use_registry
from ..obs.probes import Probe, ProbeReport, ProbeView
from ..obs.tracer import get_tracer, trace_span
from .adversary import Adversary, AdversaryView
from .ids import validate_system_size
from .messages import ALL, BURST, Message, burst_copy, expand_bursts
from .network import Network, NetworkStats
from .process import AsyncProcess, Context, Node, SyncProcess

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

__all__ = [
    "RunResult",
    "SynchronousScheduler",
    "DeliveryPolicy",
    "LinkDraw",
    "RandomPolicy",
    "FifoPolicy",
    "DelayPolicy",
    "AsyncScheduler",
]


@dataclass
class RunResult:
    """Outcome of one execution.

    Attributes
    ----------
    decisions:
        pid -> decided value, for every process that decided (faulty
        processes running honest logic may appear here too; filter with
        ``correct_decisions``).
    rounds:
        Rounds executed (synchronous) or delivery steps (asynchronous).
    stats:
        Network transcript statistics.
    contexts:
        pid -> Context (exposes per-process state for assertions).
    faulty:
        The adversary's corruption set.
    completed:
        False when the run hit its round/step cap before all correct
        processes decided.
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry` — network
        counters (``net.messages_sent``, ``net.bytes_estimate``, per-tag
        send/delivery counts), scheduler counters, and whatever the
        protocol/geometry layers recorded during the run (e.g.
        ``geometry.delta_star.seconds``).  Use ``metrics.snapshot()`` for
        a plain-data view.
    probes:
        One :class:`~repro.obs.probes.ProbeReport` per installed probe
        (empty when the run carried no probes).
    causal:
        The run's :class:`~repro.obs.causal.CausalCollector` when causal
        collection was enabled, else ``None``.
    """

    decisions: dict[int, Any]
    rounds: int
    stats: NetworkStats
    contexts: dict[int, Context]
    faulty: frozenset[int]
    completed: bool
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    probes: tuple[ProbeReport, ...] = ()
    causal: Optional[Any] = None

    @property
    def probe_violations(self) -> int:
        """Total invariant violations recorded across all probes."""
        return sum(len(report.violations) for report in self.probes)

    @property
    def correct_decisions(self) -> dict[int, Any]:
        """Decisions of the non-faulty processes only."""
        return {pid: v for pid, v in self.decisions.items() if pid not in self.faulty}


def _fold_network_stats(registry: MetricsRegistry, stats: NetworkStats) -> None:
    """Mirror the transcript statistics into the run's metric namespace."""
    registry.counter("net.messages_sent").value = stats.messages_sent
    registry.counter("net.messages_delivered").value = stats.messages_delivered
    registry.counter("net.bytes_estimate").value = stats.bytes_estimate
    for tag, count in stats.per_tag.items():
        registry.counter(f"net.sent.{tag}").value = count
    for tag, count in stats.per_tag_delivered.items():
        registry.counter(f"net.delivered.{tag}").value = count


def _make_contexts(
    n: int, f: int, rng: np.random.Generator
) -> dict[int, Context]:
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return {
        pid: Context(pid, n, f, np.random.default_rng(int(seeds[pid])))
        for pid in range(n)
    }


def _finish_probes(
    probes: Sequence[Probe], probe_view: Optional[ProbeView], rounds: int
) -> tuple[ProbeReport, ...]:
    """Close every probe on ``probe_view`` and collect the reports."""
    if probe_view is not None:
        for probe in probes:
            probe.on_finish(probe_view, rounds)
    return tuple(probe.report() for probe in probes)


class _Simulator:
    """What the two simulators share: how one is set up, the ambient
    context a run executes under, the probe lifecycle, and how a finished
    run becomes a :class:`RunResult`.  A subclass is a driver: ``start``,
    ``step`` (one event), and ``_step_until_done`` (when the run ends)."""

    _span = ""

    def __init__(self, processes, f, adversary, rng, metrics, probes, collector):
        n = len(processes)
        validate_system_size(n, f)
        adversary = adversary or Adversary.none()
        if len(adversary.faulty) > f:
            raise ValueError(
                f"adversary corrupts {len(adversary.faulty)} > f={f} processes"
            )
        self.n, self.f = n, f
        self.adversary = adversary
        self.processes: dict[int, Any] = {}
        for pid, proc in enumerate(processes):
            custom = adversary.custom_processes.get(pid)
            self.processes[pid] = custom if custom is not None else proc
        self.rng = rng or np.random.default_rng(0)
        self.metrics = (
            metrics
            if metrics is not None
            else (active_registry() or MetricsRegistry())
        )
        self.probes = tuple(probes)
        self.collector = (
            collector if collector is not None else get_causal_collector()
        )
        self.network = Network(n)
        self.network.collector = self.collector
        self.contexts = _make_contexts(n, f, self.rng)
        self._adv_rng = np.random.default_rng(int(self.rng.integers(0, 2**63 - 1)))
        self.nodes = [
            Node(pid, self.processes[pid], self.contexts[pid],
                 adversary if adversary.is_faulty(pid) else None, self.metrics)
            for pid in range(n)
        ]
        self.started = False
        self._probe_view: Optional[ProbeView] = None
        self._span_tags: dict[str, Any] = {}

    def run(self) -> RunResult:
        """``start()`` unless the run has started, then ``step()`` until
        every correct process has decided (or the cap), then the result."""
        with use_causal_collector(self.collector), use_registry(
            self.metrics
        ), trace_span(self._span, n=self.n, f=self.f, **self._span_tags):
            if not self.started:
                self.start()
            return self._finish(*self._step_until_done())

    def start(self) -> None:
        """Attach the probes; a subclass then starts its processes."""
        if self.started:
            raise RuntimeError("the run has already started")
        self.started = True
        if self.probes:
            self._probe_view = ProbeView(self.n, self.f, self.contexts,
                                         self.processes, self.adversary.faulty)
            for probe in self.probes:
                probe.attach(self._probe_view)

    def _finish(self, rounds: int, completed: bool) -> RunResult:
        for pid, proc in self.processes.items():
            proc.on_stop(self.contexts[pid])
        probes = _finish_probes(self.probes, self._probe_view, rounds)
        decisions = {
            pid: ctx.decision for pid, ctx in self.contexts.items() if ctx.decided
        }
        _fold_network_stats(self.metrics, self.network.stats)
        return RunResult(
            decisions=decisions,
            rounds=rounds,
            stats=self.network.stats,
            contexts=self.contexts,
            faulty=self.adversary.faulty,
            completed=completed,
            metrics=self.metrics,
            probes=probes,
            causal=self.collector if self.collector.enabled else None,
        )


#: A message's sender and receiver (``Message`` is a tuple).
_SRC, _DST = itemgetter(0), itemgetter(1)


class SynchronousScheduler(_Simulator):
    """Lockstep-round executor with a rushing Byzantine adversary."""

    _span = "sched.sync.run"

    def __init__(
        self,
        processes: Sequence[SyncProcess],
        f: int,
        adversary: Optional[Adversary] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        max_rounds: int = 10_000,
        sign: Optional[Callable[[int, Any], Any]] = None,
        topology: Optional["Topology"] = None,
        metrics: Optional[MetricsRegistry] = None,
        probes: Sequence[Probe] = (),
        collector: Optional[Any] = None,
    ):
        super().__init__(
            processes, f, adversary, rng, metrics, probes, collector,
        )
        if topology is not None and topology.n != self.n:
            raise ValueError(
                f"topology has {topology.n} nodes for {self.n} processes"
            )
        self.max_rounds = int(max_rounds)
        self.sign = sign
        self.topology = topology
        #: The next round to run.
        self.round = 0
        self._correct = [nd for nd in self.nodes if nd.adversary is None]
        self._faulty = [nd for nd in self.nodes if nd.adversary is not None]
        self._inboxes: dict[int, dict[int, list[tuple[str, Any]]]] = {
            pid: {} for pid in range(self.n)
        }
        self._pids = frozenset(range(self.n))
        self._dsts = self._pids | {ALL, BURST}

    def _step_until_done(self) -> tuple[int, bool]:
        while not all(nd.ctx.decided or nd.ctx.halted for nd in self._correct):
            if self.round >= self.max_rounds:
                # A capped run reports the index of its last round.
                return max(self.round - 1, 0), False
            self._round()
        return self.round, True

    def step(self) -> list[Message]:
        """Run one round; returns the messages it submitted, one per copy
        (topology drops excluded), which arrive at the start of the next
        round."""
        return list(expand_bursts(self._round(), self.n))

    def _round(self) -> list[Message]:
        r = self.round
        reg = self.metrics
        collector = self.collector
        if collector.enabled:
            collector.now = r
        with trace_span("sched.sync.round", round=r) as round_span:
            inboxes = self._inboxes

            # 1. Correct processes act on this round's inbox.
            correct_msgs: list[Message] = []
            for node in self._correct:
                correct_msgs.extend(node.round(r, inboxes[node.pid]))

            # 2. Faulty processes act; the rushing adversary transforms
            #    their traffic with the correct messages in view.
            view = AdversaryView(
                round=r,
                n=self.n,
                f=self.f,
                rng=self._adv_rng,
                correct_queued=correct_msgs,
                sign=self.sign,
            )
            faulty_msgs: list[Message] = []
            for node in self._faulty:
                faulty_msgs.extend(node.round(r, inboxes[node.pid], view))

            # 3. Deliver everything for the next round (per-link FIFO).
            submitted = self._exchange(correct_msgs + faulty_msgs, r)
            reg.inc("sched.sync.rounds")
            round_span.tag(
                sends=len(correct_msgs) + len(faulty_msgs)
                + (self.n - 1) * list(map(_DST, correct_msgs)).count(BURST),
                adversary_sends=len(faulty_msgs),
            )

            if self._probe_view is not None:
                for probe in self.probes:
                    probe.on_boundary(self._probe_view, r)
        self.round = r + 1
        return submitted

    def _exchange(self, msgs: list[Message], r: int) -> list[Message]:
        """Move round ``r``'s messages into next round's inboxes; returns
        the ones that were sent, in submission order.

        A lockstep round delivers everything it sends, so no message
        waits in a :class:`Network` buffer: the endpoints are checked,
        the sends are counted in submission order and the deliveries in
        link order — ``(src, dst)`` ascending, an atomic broadcast's
        ``dst = ALL`` first, FIFO within a link — which is the order of
        ``Network.drain_all``.  A burst is ``n`` sends and deliveries,
        sized once: sorted by source alone (``ALL`` first), every inbox
        gets its one entry in that order.  A causal collector records
        each envelope as one send event, a burst too, and each delivery
        from the loop that fills the inboxes, so every process sees its
        deliveries in link order.  In an incomplete graph there is no
        channel across a missing edge: bursts are expanded, and such a
        message is dropped at submission, for a Byzantine sender too (it
        cannot conjure wires), but only once its endpoints are known to
        exist.
        """
        n = self.n
        if not (self._pids.issuperset(map(_SRC, msgs))
                and self._dsts.issuperset(map(_DST, msgs))):
            bad = next(m for m in msgs
                       if m.src not in self._pids or m.dst not in self._dsts)
            raise ValueError(f"message endpoints out of range: {bad!r}")
        topology = self.topology
        if topology is not None:
            msgs = list(expand_bursts(msgs, n))
            sent = [m for m in msgs
                    if m.dst == ALL or topology.allows(m.src, m.dst)]
            if len(sent) < len(msgs):
                self.metrics.inc("sched.sync.topology_drops",
                                 len(msgs) - len(sent))
            msgs = sent
        stats = self.network.stats
        stats.record_sends(msgs, n)
        collector = self.collector
        traced = collector.enabled
        if traced:
            for m in msgs:
                collector.on_send(m.src, m.dst, m.tag, seq=m.seq, round=m.round)
        if ALL in map(_DST, msgs):
            ordered = [m for m in msgs if m.dst == ALL] + [m for m in msgs if m.dst != ALL]
        else:
            ordered = msgs
        ordered = sorted(ordered, key=_SRC)
        stats.record_deliveries(ordered, n)
        self._inboxes = inboxes = {pid: {} for pid in range(n)}
        everyone = range(n)
        for src, dst, tag, payload, _, _ in ordered:
            if dst >= 0:
                targets: Sequence[int] = (dst,)
            elif topology is None:
                targets = everyone  # ALL, or a burst
            else:
                targets = (*topology.neighbors(src), src)
            send_eid = collector.pop_send(src, dst) if traced else None
            entry = (tag, payload)
            for t in targets:
                if traced:
                    collector.on_deliver(t, send_eid, time=r)
                box = inboxes[t]
                if src in box:
                    box[src].append(entry)
                else:
                    box[src] = [entry]
        return msgs


# ---------------------------------------------------------------------------
# asynchronous execution
# ---------------------------------------------------------------------------


_WORD = 0xFFFFFFFF
#: 64-bit PCG64 outputs fetched per refill of a :class:`LinkDraw`.
_RAW_BATCH = 256


class LinkDraw:
    """``Generator.integers(low, high)`` for one PCG64 stream, answered
    from a buffer of raw words instead of one NumPy call per draw.

    Each draw equals ``int(rng.integers(low, high))`` on a twin of
    ``rng``: NumPy's Lemire bounded-int32 method over the same 32-bit
    words (the low, then the high half of each 64-bit output, starting
    from the state's buffered half-word).  Building it reads ``rng``'s
    state; from then on the draw owns the stream, and ``rng`` itself
    must not be drawn from again.  ``integers`` is the whole interface:
    it is what a :class:`DeliveryPolicy` receives as ``rng``.
    """

    __slots__ = ("_rng", "_words")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(
                f"LinkDraw replicates PCG64 only, not {type(bitgen).__name__}"
            )
        state = bitgen.state
        self._rng = rng
        # Words still to hand out, next one last (``list.pop`` order).
        self._words = [state["uinteger"]] if state["has_uint32"] else []

    def _refill(self) -> list[int]:
        raw = self._rng.bit_generator.random_raw(_RAW_BATCH)
        halves = np.column_stack((raw & _WORD, raw >> 32))  # low, high
        self._words = halves.ravel()[::-1].tolist()
        return self._words

    def integers(self, low: int, high: int) -> int:
        """A uniform int in ``[low, high)``, exactly as NumPy draws it."""
        k = high - low
        if k == 1:  # NumPy draws no word for a one-value range
            return low
        if not 1 < k <= 1 << 32:
            raise ValueError(f"range size {k} outside [1, 2**32]")
        words = self._words or self._refill()
        m = words.pop() * k
        if m & _WORD < k:
            reject_below = ((1 << 32) - k) % k
            while m & _WORD < reject_below:
                words = self._words or self._refill()
                m = words.pop() * k
        return low + (m >> 32)


class DeliveryPolicy:
    """Chooses which pending link delivers next.

    ``rng`` is the scheduler's :class:`LinkDraw`: a policy draws with
    ``rng.integers(low, high)``, and every draw is part of the schedule.
    """

    def choose(
        self, links: Sequence[tuple[int, int]], network: Network, rng: LinkDraw
    ) -> tuple[int, int]:
        raise NotImplementedError


class RandomPolicy(DeliveryPolicy):
    """Uniformly random pending link (fair with probability 1)."""

    def choose(self, links, network, rng):
        return links[int(rng.integers(0, len(links)))]


class FifoPolicy(DeliveryPolicy):
    """Deliver the globally oldest message (by sender sequence number)."""

    def choose(self, links, network, rng):
        def age(link):
            msg = network.peek(link)
            return (msg.seq, link)

        return min(links, key=age)


class DelayPolicy(DeliveryPolicy):
    """Starve messages *to* the victim set while anything else is pending.

    Still eventually fair — victims' messages are delivered once nothing
    else remains — so this is a legal asynchronous schedule, and the worst
    one for convergence-style protocols.
    """

    def __init__(self, victims: Sequence[int], fallback: Optional[DeliveryPolicy] = None):
        self.victims = frozenset(int(v) for v in victims)
        self.fallback = fallback or RandomPolicy()
        #: Victim links skipped over the policy's lifetime (also mirrored
        #: to the ambient metrics registry as ``sched.policy.starved_links``).
        self.starved_links = 0

    def choose(self, links, network, rng):
        preferred = [lk for lk in links if lk[1] not in self.victims]
        if preferred and len(preferred) < len(links):
            starved = len(links) - len(preferred)
            self.starved_links += starved
            _obs.inc("sched.policy.starved_links", starved)
        pool = preferred if preferred else list(links)
        return self.fallback.choose(pool, network, rng)


#: Delivery steps between two ``on_boundary`` calls of the online probes.
PROBE_INTERVAL = 25


class AsyncScheduler(_Simulator):
    """Event-driven executor: deliver one message per step, policy-ordered."""

    _span = "sched.async.run"

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        f: int,
        adversary: Optional[Adversary] = None,
        *,
        policy: Optional[DeliveryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        max_steps: int = 1_000_000,
        metrics: Optional[MetricsRegistry] = None,
        probes: Sequence[Probe] = (),
        collector: Optional[Any] = None,
    ):
        super().__init__(
            processes, f, adversary, rng, metrics, probes, collector,
        )
        self.policy = policy or RandomPolicy()
        self._span_tags = {"policy": type(self.policy).__name__}
        self.max_steps = int(max_steps)
        #: Messages delivered so far.
        self.steps = 0
        self._view = AdversaryView(round=None, n=self.n, f=self.f,
                                   rng=self._adv_rng)
        # Built after the contexts and the adversary are seeded from
        # ``self.rng``: from here on only the delivery policy draws from
        # it.  It lives on the scheduler, so a deepcopy forks its buffer.
        self._draw = LinkDraw(self.rng)
        #: Correct processes yet to decide.  A process decides only inside
        #: its own handler, so one look after each handler keeps this exact.
        self._undecided: set[int] = set()

    def start(self) -> None:
        """Run every process's ``on_start`` and submit what it queued."""
        super().start()
        if self.collector.enabled:
            self.collector.now = 0
        submit = self.network.submit
        for node in self.nodes:
            for msg in node.start(self._view):
                submit(msg)
        self._undecided = {
            nd.pid for nd in self.nodes
            if nd.adversary is None and not nd.ctx.decided
        }

    def _step_until_done(self) -> tuple[int, bool]:
        while self._undecided and self.steps < self.max_steps:
            if self._step() is None:
                break
        self.metrics.counter("sched.async.steps").value = self.steps
        self.metrics.counter("sched.async.undelivered").value = (
            self.network.pending_count()
        )
        return self.steps, not self._undecided

    def step(self) -> Optional[Message]:
        """Deliver one message on the link the policy picks; returns it
        (of a burst, the copy this step delivered), or ``None`` when
        nothing is pending."""
        taken = self._step()
        if taken is None:
            return None
        msg, dst = taken
        return burst_copy(msg, dst) if msg.dst == BURST else msg

    def _step(self) -> Optional[tuple[Message, int]]:
        """:meth:`step`, returning the popped envelope and its receiver
        (``ALL`` for an atomic broadcast): no copy of a burst is built."""
        network = self.network
        links = network.pending_links()
        if not links:
            return None
        link = self.policy.choose(links, network, self._draw)
        msg = network.pop(link)
        dst = link[1]
        self.steps += 1
        send_eid = None
        if self.collector.enabled:
            self.collector.now = self.steps
            send_eid = self.collector.pop_send(msg.src, dst)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("sched.async.step", step=self.steps, src=msg.src,
                             dst=dst, tag=msg.tag):
                self._deliver(msg, dst, send_eid)
        else:
            self._deliver(msg, dst, send_eid)
        if self._probe_view is not None and self.steps % PROBE_INTERVAL == 0:
            for probe in self.probes:
                probe.on_boundary(self._probe_view, self.steps)
        return msg, dst

    def _deliver(self, msg: Message, dst: int, send_eid: Any) -> None:
        """Hand one popped message to its receiver(s) — everyone when
        ``dst`` is ``ALL`` — and submit what their handlers queued."""
        collector = self.collector
        submit = self.network.submit
        for node in self.nodes if dst == ALL else (self.nodes[dst],):
            if collector.enabled and not node.ctx.halted:
                collector.on_deliver(node.pid, send_eid, time=self.steps)
            for out in node.deliver(msg, self._view):
                submit(out)
            if node.ctx.decided:
                self._undecided.discard(node.pid)
