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

Both return a :class:`RunResult` carrying decisions, transcript statistics
and the per-process contexts for post-hoc assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..obs import metrics as _obs
from ..obs.causal import get_causal_collector, use_causal_collector
from ..obs.metrics import MetricsRegistry, active_registry, use_registry
from ..obs.probes import Probe, ProbeReport, ProbeView
from ..obs.tracer import get_tracer, trace_span
from .adversary import Adversary, AdversaryView
from .ids import validate_system_size
from .messages import ALL, Message
from .network import Network, NetworkStats
from .process import AsyncProcess, Context, SyncProcess

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

__all__ = [
    "RunResult",
    "SynchronousScheduler",
    "DeliveryPolicy",
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
    #: (round-or-step, message) pairs when recording was requested.
    transcript: Optional[list[tuple[int, Message]]] = None
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


class _Simulator:
    """What the two simulators share: how one is set up, the ambient
    context a run executes under, the probe lifecycle, and how a finished
    loop becomes a :class:`RunResult`.  A subclass adds its own knobs,
    the name (and extra tags) of its run span, and ``_run`` — the loop."""

    _span = ""

    def __init__(
        self, processes, f, adversary, rng, sign, record_transcript,
        metrics, probes, collector,
    ):
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
        self.sign = sign
        self.record_transcript = bool(record_transcript)
        self.metrics = (
            metrics
            if metrics is not None
            else (active_registry() or MetricsRegistry())
        )
        self.probes = tuple(probes)
        self.collector = collector
        self.network = Network(n)
        self.contexts = _make_contexts(n, f, self.rng)
        self._adv_rng = np.random.default_rng(int(self.rng.integers(0, 2**63 - 1)))
        self._span_tags: dict[str, Any] = {}

    def run(self) -> RunResult:
        """Run the loop until every correct process has decided (or cap)."""
        if self.collector is None:
            self.collector = get_causal_collector()
        self.network.collector = self.collector
        with use_causal_collector(self.collector), use_registry(
            self.metrics
        ) as reg, trace_span(self._span, n=self.n, f=self.f, **self._span_tags):
            return self._run(reg)

    def _attach_probes(self) -> Optional[ProbeView]:
        if not self.probes:
            return None
        probe_view = ProbeView(self.n, self.f, self.contexts, self.processes,
                               self.adversary.faulty)
        for probe in self.probes:
            probe.attach(probe_view)
        return probe_view

    def _finish(
        self,
        reg: MetricsRegistry,
        probe_view: Optional[ProbeView],
        rounds: int,
        completed: bool,
        transcript: Optional[list[tuple[int, Message]]],
    ) -> RunResult:
        for pid, proc in self.processes.items():
            proc.on_stop(self.contexts[pid])
        if probe_view is not None:
            for probe in self.probes:
                probe.on_finish(probe_view, rounds)
        decisions = {
            pid: ctx.decision for pid, ctx in self.contexts.items() if ctx.decided
        }
        _fold_network_stats(reg, self.network.stats)
        return RunResult(
            decisions=decisions,
            rounds=rounds,
            stats=self.network.stats,
            contexts=self.contexts,
            faulty=self.adversary.faulty,
            completed=completed,
            transcript=transcript,
            metrics=reg,
            probes=tuple(probe.report() for probe in self.probes),
            causal=self.collector if self.collector.enabled else None,
        )


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
        record_transcript: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        probes: Sequence[Probe] = (),
        collector: Optional[Any] = None,
    ):
        super().__init__(
            processes, f, adversary, rng, sign, record_transcript,
            metrics, probes, collector,
        )
        if topology is not None and topology.n != self.n:
            raise ValueError(
                f"topology has {topology.n} nodes for {self.n} processes"
            )
        self.max_rounds = int(max_rounds)
        self.topology = topology

    def _run(self, reg: MetricsRegistry) -> RunResult:
        transcript: Optional[list[tuple[int, Message]]] = (
            [] if self.record_transcript else None
        )
        inboxes: dict[int, dict[int, list[tuple[str, Any]]]] = {
            pid: {} for pid in range(self.n)
        }
        completed = False
        rounds_done = 0
        collector = self.collector
        probe_view = self._attach_probes()
        for r in range(self.max_rounds):
            rounds_done = r
            if collector.enabled:
                collector.now = r
            with trace_span("sched.sync.round", round=r) as round_span:
                correct_ids = [
                    p for p in range(self.n) if not self.adversary.is_faulty(p)
                ]
                faulty_ids = [
                    p for p in range(self.n) if self.adversary.is_faulty(p)
                ]

                # 1. Correct processes act on this round's inbox.
                for pid in correct_ids:
                    ctx = self.contexts[pid]
                    if ctx.halted:
                        continue
                    ctx.outbox = []
                    self.processes[pid].on_round(ctx, r, inboxes[pid])
                correct_msgs: list[Message] = []
                for pid in correct_ids:
                    correct_msgs.extend(self.contexts[pid].outbox)

                # 2. Faulty processes act; the rushing adversary transforms
                #    their traffic with the correct messages in view.
                view = AdversaryView(
                    round=r,
                    n=self.n,
                    f=self.f,
                    rng=self._adv_rng,
                    correct_outbox=tuple(correct_msgs),
                    sign=self.sign,
                )
                faulty_msgs: list[Message] = []
                for pid in faulty_ids:
                    ctx = self.contexts[pid]
                    if ctx.halted:
                        continue
                    ctx.outbox = []
                    self.processes[pid].on_round(ctx, r, inboxes[pid])
                    honest_count = len(ctx.outbox)
                    transformed = self.adversary.transform_outbox(
                        pid, ctx.outbox, view
                    )
                    faulty_msgs.extend(transformed)
                    reg.inc("sched.adversary.messages_in", honest_count)
                    reg.inc("sched.adversary.messages_out", len(transformed))

                # 3. Deliver everything for the next round (per-link FIFO).
                #    In incomplete graphs there is no channel across missing
                #    edges: those messages are dropped at submission — for
                #    Byzantine senders too (they cannot conjure wires).
                for msg in correct_msgs + faulty_msgs:
                    if (
                        self.topology is not None
                        and not msg.is_atomic_broadcast
                        and not self.topology.allows(msg.src, msg.dst)
                    ):
                        reg.inc("sched.sync.topology_drops")
                        continue
                    if transcript is not None:
                        transcript.append((r, msg))
                    self.network.submit(msg)
                reg.inc("sched.sync.rounds")
                round_span.tag(
                    sends=len(correct_msgs) + len(faulty_msgs),
                    adversary_sends=len(faulty_msgs),
                )
                inboxes = {pid: {} for pid in range(self.n)}
                for msg in self.network.drain_all():
                    send_eid = (
                        collector.pop_send(msg.src, msg.dst)
                        if collector.enabled else None
                    )
                    if msg.is_atomic_broadcast:
                        targets: Sequence[int] = (
                            range(self.n)
                            if self.topology is None
                            else (*self.topology.neighbors(msg.src), msg.src)
                        )
                    else:
                        targets = (msg.dst,)
                    for dst in targets:
                        if collector.enabled:
                            collector.on_deliver(dst, send_eid, time=r)
                        inboxes[dst].setdefault(msg.src, []).append(
                            (msg.tag, msg.payload)
                        )

                if probe_view is not None:
                    for probe in self.probes:
                        probe.on_boundary(probe_view, r)
                if all(
                    self.contexts[pid].decided or self.contexts[pid].halted
                    for pid in correct_ids
                ):
                    completed = True
                    rounds_done = r + 1
                    break

        return self._finish(reg, probe_view, rounds_done, completed, transcript)


# ---------------------------------------------------------------------------
# asynchronous execution
# ---------------------------------------------------------------------------


class DeliveryPolicy:
    """Chooses which pending link delivers next."""

    def choose(
        self, links: Sequence[tuple[int, int]], network: Network, rng: np.random.Generator
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
        sign: Optional[Callable[[int, Any], Any]] = None,
        stop_when_correct_decided: bool = True,
        record_transcript: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        probes: Sequence[Probe] = (),
        collector: Optional[Any] = None,
    ):
        super().__init__(
            processes, f, adversary, rng, sign, record_transcript,
            metrics, probes, collector,
        )
        self.policy = policy or RandomPolicy()
        self._span_tags = {"policy": type(self.policy).__name__}
        self.max_steps = int(max_steps)
        self.stop_when_correct_decided = stop_when_correct_decided

    def _flush_outbox(self, pid: int) -> None:
        ctx = self.contexts[pid]
        msgs = ctx.outbox
        ctx.outbox = []
        if self.adversary.is_faulty(pid):
            view = AdversaryView(
                round=None,
                n=self.n,
                f=self.f,
                rng=self._adv_rng,
                sign=self.sign,
            )
            honest_count = len(msgs)
            msgs = self.adversary.transform_outbox(pid, msgs, view)
            self.metrics.inc("sched.adversary.messages_in", honest_count)
            self.metrics.inc("sched.adversary.messages_out", len(msgs))
        submit = self.network.submit
        for msg in msgs:
            submit(msg)

    def _deliver(
        self, msg: Message, steps: int, send_eid: Any, undecided: set[int]
    ) -> None:
        """Hand one popped message to its receiver(s) and collect what
        their handlers queued."""
        collector = self.collector
        faulty = self.adversary.faulty
        for dst in range(self.n) if msg.dst == ALL else (msg.dst,):
            ctx = self.contexts[dst]
            if ctx.halted:
                continue
            if collector.enabled:
                collector.on_deliver(dst, send_eid, time=steps)
            self.processes[dst].on_message(ctx, msg.src, msg.tag, msg.payload)
            if ctx.decided:
                undecided.discard(dst)
            # Most handlers queue nothing; a faulty process is flushed
            # regardless, its strategy may inject into an empty outbox.
            if ctx.outbox or dst in faulty:
                self._flush_outbox(dst)

    def _run(self, reg: MetricsRegistry) -> RunResult:
        transcript: Optional[list[tuple[int, Message]]] = (
            [] if self.record_transcript else None
        )
        queue_gauge = reg.gauge(
            f"sched.async.queue_depth.{type(self.policy).__name__}"
        )
        collector = self.collector
        if collector.enabled:
            collector.now = 0
        # The span sink is installed around the run, never inside it.
        tracer = get_tracer()
        probe_view = self._attach_probes()
        for pid in range(self.n):
            self.processes[pid].on_start(self.contexts[pid])
            self._flush_outbox(pid)

        # Correct processes yet to decide.  A process decides only inside
        # its own handler, so one look after each handler keeps this exact.
        undecided = {
            p for p in range(self.n)
            if not self.adversary.is_faulty(p) and not self.contexts[p].decided
        }
        steps = 0
        completed = False
        while steps < self.max_steps:
            if self.stop_when_correct_decided and not undecided:
                completed = True
                break
            links = self.network.pending_links()
            if not links:
                completed = not undecided
                break
            queue_gauge.set(self.network.pending_count())
            link = self.policy.choose(links, self.network, self.rng)
            msg = self.network.pop(link)
            steps += 1
            send_eid = None
            if collector.enabled:
                collector.now = steps
                send_eid = collector.pop_send(msg.src, msg.dst)
            if transcript is not None:
                transcript.append((steps, msg))
            if tracer.enabled:
                with tracer.span("sched.async.step", step=steps, src=msg.src,
                                 dst=msg.dst, tag=msg.tag):
                    self._deliver(msg, steps, send_eid, undecided)
            else:
                self._deliver(msg, steps, send_eid, undecided)
            if probe_view is not None and steps % PROBE_INTERVAL == 0:
                for probe in self.probes:
                    probe.on_boundary(probe_view, steps)

        reg.counter("sched.async.steps").value = steps
        reg.counter("sched.async.undelivered").value = self.network.pending_count()
        return self._finish(reg, probe_view, steps, completed, transcript)
