"""``Context.broadcast`` queues one burst for its ``n`` copies.

The lockstep round consumes it whole (``test_sync_exchange.py`` holds
that against ``Network.submit`` + ``drain_all``); the asynchronous
network buffers it as one envelope on each of its ``n`` links until a
receiver takes its copy.  A causal collector records it as one send
event with a deliver edge to each copy.  Everything else sees the copies
that ``n`` sends would have queued: a faulty process's strategy, the
rushing adversary's view of the correct traffic, the delivery policies
and the messages ``step()`` returns.  No strategy may make a burst of
its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dst.scenarios import ScenarioPolicy, ScheduleWindow
from repro.obs.causal import CausalCollector
from repro.system.adversary import Adversary, ByzantineStrategy
from repro.system.messages import BURST, Message
from repro.system.network import Network
from repro.system.process import AsyncProcess, Context, SyncProcess
from repro.system.scheduler import (
    AsyncScheduler,
    DelayPolicy,
    FifoPolicy,
    RandomPolicy,
    SynchronousScheduler,
)

from .causal_match import assert_same_run

N = 4


def _to_all(ctx, tag, payload, by_broadcast, round=None):
    """One payload object to every process, by ``Context.broadcast`` or
    by ``n`` sends."""
    if by_broadcast:
        ctx.broadcast(tag, payload, round=round)
    else:
        for dst in range(N):
            ctx.send(dst, tag, payload, round=round)


def _sends(ctx, by_broadcast, round=None):
    """A point-to-point send on each side of a broadcast."""
    ctx.send((ctx.pid + 1) % N, "p", (float(ctx.pid),), round=round)
    _to_all(ctx, "b", (1.0, 2.0), by_broadcast, round=round)
    ctx.send((ctx.pid + 2) % N, "q", (float(ctx.pid),), round=round)


class SyncSender(SyncProcess):
    def __init__(self, by_broadcast):
        self.by_broadcast = by_broadcast

    def on_round(self, ctx, r, inbox):
        if r < 2:
            _sends(ctx, self.by_broadcast, round=r)
        else:
            ctx.decide(0)


class AsyncSender(AsyncProcess):
    def __init__(self, by_broadcast):
        self.by_broadcast = by_broadcast

    def on_start(self, ctx):
        _sends(ctx, self.by_broadcast)

    def on_message(self, ctx, src, tag, payload):
        if not ctx.decided:
            ctx.decide(0)


class Recorder(ByzantineStrategy):
    """Honest, but draws from the adversary's generator for every
    message it is handed and writes down what it saw."""

    def __init__(self):
        self.seen = []

    def transform(self, msg, view):
        correct = [(m.src, m.dst, m.tag, m.seq) for m in view.correct_outbox]
        self.seen.append((msg.src, msg.dst, msg.tag, msg.seq,
                          float(view.rng.random()), correct))
        return [msg]


def _run(kind, by_broadcast):
    strategy = Recorder()
    adversary = Adversary(faulty=[0], strategy=strategy)
    if kind == "sync":
        procs = [SyncSender(by_broadcast) for _ in range(N)]
        sched = SynchronousScheduler(procs, f=1, adversary=adversary,
                                     rng=np.random.default_rng(3))
        sched.start()
        steps = [[(m.src, m.dst, m.tag, m.seq) for m in sched.step()]
                 for _ in range(3)]
    else:
        procs = [AsyncSender(by_broadcast) for _ in range(N)]
        sched = AsyncScheduler(procs, f=1, adversary=adversary,
                               rng=np.random.default_rng(3))
        sched.start()
        steps = []
        while (msg := sched.step()) is not None:
            steps.append((msg.src, msg.dst, msg.tag, msg.seq))
    res = sched.run()
    return strategy.seen, steps, res


@pytest.mark.parametrize("kind", ["sync", "async"])
def test_a_strategy_sees_the_copies_n_sends_would_queue(kind):
    seen, steps, res = _run(kind, by_broadcast=True)
    ref_seen, ref_steps, ref_res = _run(kind, by_broadcast=False)
    # Same copies in the same order, same seqs, same draws, same view of
    # the correct processes' copies.
    assert seen == ref_seen
    assert [(dst, seq) for _, dst, tag, seq, _, _ in seen if tag == "b"][:N] == [
        (0, 1), (1, 2), (2, 3), (3, 4)
    ]
    if kind == "sync":
        assert len(seen[0][5]) == 3 * (N + 2)  # three correct senders
    assert steps == ref_steps
    assert res.stats.as_dict() == ref_res.stats.as_dict()
    assert res.metrics.snapshot() == ref_res.metrics.snapshot()


@pytest.mark.parametrize("kind", ["sync", "async"])
def test_no_strategy_makes_a_burst(kind):
    class Burster(ByzantineStrategy):
        def inject(self, pid, view):
            return [Message(pid, BURST, "b", (1.0, 2.0), round=view.round)]

    adversary = Adversary(faulty=[3], strategy=Burster())
    if kind == "sync":
        sched = SynchronousScheduler([SyncSender(True) for _ in range(N)], f=1,
                                     adversary=adversary)
    else:
        sched = AsyncScheduler([AsyncSender(True) for _ in range(N)], f=1,
                               adversary=adversary)
    with pytest.raises(ValueError, match="message endpoints out of range"):
        sched.run()


# ---------------------------------------------------------------------------
# asynchronous runs: a burst rides the network as one envelope
# ---------------------------------------------------------------------------


class Relay(AsyncProcess):
    """Starts like :class:`AsyncSender`; answers each of its first two
    ``b`` deliveries with a send back and a broadcast of the payload it
    got (one object for all copies), and decides on its sixth delivery —
    so a run ends with messages still buffered."""

    def __init__(self, by_broadcast):
        self.by_broadcast = by_broadcast
        self.relayed = self.heard = 0

    def on_start(self, ctx):
        _sends(ctx, self.by_broadcast)

    def on_message(self, ctx, src, tag, payload):
        self.heard += 1
        if tag == "b" and self.relayed < 2:
            self.relayed += 1
            ctx.send(src, "p", (float(ctx.pid),))
            _to_all(ctx, "e", payload, self.by_broadcast)
        if self.heard == 6:
            ctx.decide(float(ctx.pid))


POLICIES = {
    "random": RandomPolicy,
    "fifo": FifoPolicy,
    "delay": lambda: DelayPolicy([1]),
    "scenario": lambda: ScenarioPolicy([
        ScheduleWindow("partition", 0, 12, groups=((0, 1), (2, 3))),
        ScheduleWindow("fifo", 12, 40),
    ]),
}


def _async(by_broadcast, policy, causal, *, stepped):
    """One run of :class:`Relay` processes, faulty 0 honest but recorded:
    the copies ``step()`` returned (payloads as first-seen indices, so
    identity is compared), what the strategy saw, the result, the causal
    DAG and the number of envelopes the network accepted."""
    strategy = Recorder()
    collector = CausalCollector(N) if causal else None
    sched = AsyncScheduler(
        [Relay(by_broadcast) for _ in range(N)], f=1,
        adversary=Adversary(faulty=[0], strategy=strategy),
        policy=POLICIES[policy](), rng=np.random.default_rng(5),
        collector=collector,
    )
    submit = sched.network.submit
    envelopes = []

    def counting_submit(msg):
        envelopes.append(msg.dst)
        submit(msg)

    sched.network.submit = counting_submit
    copies = []
    if stepped:
        sched.start()
        while (msg := sched.step()) is not None:
            copies.append(msg)
    res = sched.run()
    ids: dict[int, int] = {}
    copies = [(m.src, m.dst, m.tag, m.seq, ids.setdefault(id(m.payload), len(ids)))
              for m in copies]
    dag = (collector.events, collector.edges) if causal else None
    return copies, strategy.seen, res, dag, envelopes


def _in_order(d):
    """A dict as its item list, nested dicts too: equal means equal keys
    in equal order."""
    return [(k, _in_order(v) if isinstance(v, dict) else v) for k, v in d.items()]


@pytest.mark.parametrize("causal", [False, True], ids=["plain", "causal"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stepped", [True, False], ids=["step", "run"])
def test_async_burst_is_n_sends(policy, causal, stepped):
    copies, seen, res, dag, envelopes = _async(True, policy, causal, stepped=stepped)
    ref_copies, ref_seen, ref_res, ref_dag, ref_envelopes = _async(
        False, policy, causal, stepped=stepped)
    assert BURST in envelopes and BURST not in ref_envelopes
    assert len(envelopes) < len(ref_envelopes) == res.stats.messages_sent
    assert copies == ref_copies
    assert BURST not in {dst for _, dst, *_ in copies}
    if stepped:
        assert len(copies) == res.stats.messages_sent  # delivered them all
    else:
        assert res.metrics.counter_value("sched.async.undelivered") > 0
    assert seen == ref_seen
    assert (res.decisions, res.rounds) == (ref_res.decisions, ref_res.rounds)
    assert _in_order(res.stats.as_dict()) == _in_order(ref_res.stats.as_dict())
    assert _in_order(res.metrics.snapshot()) == _in_order(ref_res.metrics.snapshot())
    if causal:
        # A send event per envelope, a deliver event per delivered copy.
        assert_same_run(dag[0], ref_dag[0], len(envelopes), len(ref_envelopes))
        delivers = sum(ev.kind == "deliver" for ev in dag[0])
        assert delivers == len(dag[1]) == res.stats.messages_delivered
    else:
        assert dag is ref_dag is None


def test_a_link_holds_a_burst_behind_a_per_copy_message():
    # Sender 0's link to 2 holds a per-copy message (as a faulty sender's
    # expanded outbox, or a ``Context.send``, queues one), then the
    # burst's envelope; the other links hold the burst alone.
    ctx = Context(0, N, 1, np.random.default_rng(0))
    ctx.send(2, "p", (0.0,))
    ctx.broadcast("b", (1.0, 2.0))
    net = Network(N)
    for msg in ctx.outbox:
        net.submit(msg)
    assert net.pending_links() == [(0, d) for d in range(N)]
    assert net.pending_count() == N + 1
    assert net.stats.messages_sent == N + 1
    assert net.peek((0, 2)) == Message(0, 2, "p", (0.0,))
    assert net.pop((0, 2)).seq == 0
    head = net.peek((0, 2))
    assert (head.dst, head.tag, head.seq) == (2, "b", 1 + 2)
    burst = net.pop((0, 2))
    assert (burst.dst, burst.seq) == (BURST, 1)
    assert net.pending_links() == [(0, 0), (0, 1), (0, 3)]
    assert [(m.dst, m.seq) for m in net.drain_all()] == [(0, 1), (1, 2), (3, 4)]
    assert net.pending_count() == 0
    assert net.stats.messages_delivered == N + 1
    assert net.stats.per_tag_delivered == {"p": 1, "b": N}
