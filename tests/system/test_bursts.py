"""``Context.broadcast`` queues one burst for its ``n`` copies.

The lockstep round consumes it whole (``test_sync_exchange.py`` holds
that against ``Network.submit`` + ``drain_all``).  Everything else sees
the copies that ``n`` sends would have queued: a faulty process's
strategy, the rushing adversary's view of the correct traffic and the
messages ``step()`` returns.  No strategy may make a burst of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.system.adversary import Adversary, ByzantineStrategy
from repro.system.messages import BURST, Message
from repro.system.process import AsyncProcess, SyncProcess
from repro.system.scheduler import AsyncScheduler, SynchronousScheduler

N = 4


def _sends(ctx, by_broadcast, round=None):
    """A point-to-point send on each side of a broadcast, the broadcast
    made by ``Context.broadcast`` or by ``n`` sends."""
    ctx.send((ctx.pid + 1) % N, "p", (float(ctx.pid),), round=round)
    if by_broadcast:
        ctx.broadcast("b", (1.0, 2.0), round=round)
    else:
        for dst in range(N):
            ctx.send(dst, "b", (1.0, 2.0), round=round)
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
