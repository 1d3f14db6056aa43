"""Unit tests for the Context capability object and process lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.system.process import AsyncProcess, Context, SyncProcess
from repro.system.scheduler import AsyncScheduler, SynchronousScheduler


def make_ctx(pid=0, n=4, f=1):
    return Context(pid, n, f, np.random.default_rng(0))


class TestContext:
    def test_send_queues(self):
        ctx = make_ctx()
        ctx.send(1, "t", "payload", round=2)
        assert len(ctx.outbox) == 1
        msg = ctx.outbox[0]
        assert (msg.src, msg.dst, msg.tag, msg.payload, msg.round) == (
            0, 1, "t", "payload", 2
        )

    def test_send_validates_dst(self):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.send(7, "t", None)
        with pytest.raises(ValueError):
            ctx.send(-2, "t", None)

    def test_broadcast_hits_everyone_including_self(self):
        ctx = make_ctx()
        ctx.broadcast("t", 42)
        assert sorted(m.dst for m in ctx.outbox) == [0, 1, 2, 3]

    def test_seq_monotone(self):
        ctx = make_ctx()
        ctx.send(1, "a", None)
        ctx.send(2, "b", None)
        ctx.atomic_broadcast("c", None)
        seqs = [m.seq for m in ctx.outbox]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3

    def test_decide_once(self):
        ctx = make_ctx()
        ctx.decide("v")
        assert ctx.decided and ctx.decision == "v"
        with pytest.raises(RuntimeError):
            ctx.decide("w")

    def test_per_process_rng_independent(self):
        c1 = Context(0, 2, 0, np.random.default_rng(1))
        c2 = Context(1, 2, 0, np.random.default_rng(2))
        assert c1.rng.integers(0, 10**9) != c2.rng.integers(0, 10**9)


class HaltEarly(SyncProcess):
    """Halts in round 1 without deciding."""

    def on_round(self, ctx, r, inbox):
        if r == 0:
            ctx.broadcast("x", ctx.pid, round=0)
        else:
            ctx.halted = True


class TestHaltBehaviour:
    def test_halted_counts_as_done_sync(self):
        res = SynchronousScheduler([HaltEarly() for _ in range(3)], f=0).run()
        assert res.completed
        assert res.decisions == {}

    def test_halted_async_ignores_messages(self):
        class HaltOnFirst(AsyncProcess):
            def on_start(self, ctx):
                ctx.broadcast("x", ctx.pid)
                self.seen = 0

            def on_message(self, ctx, src, tag, payload):
                self.seen += 1
                ctx.halted = True

        procs = [HaltOnFirst() for _ in range(3)]
        sched = AsyncScheduler(procs, f=0)
        sched.start()
        while sched.step() is not None:
            pass
        # each process handled exactly one message before halting
        assert all(p.seen == 1 for p in procs)


class TestOnStopHook:
    def test_called_once_per_process(self):
        calls = []

        class P(SyncProcess):
            def on_round(self, ctx, r, inbox):
                ctx.decide(r)

            def on_stop(self, ctx):
                calls.append(ctx.pid)

        SynchronousScheduler([P() for _ in range(3)], f=0).run()
        assert sorted(calls) == [0, 1, 2]
