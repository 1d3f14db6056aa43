"""RunResult.metrics is populated by both schedulers, end to end."""

from __future__ import annotations

import numpy as np

from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.system.adversary import Adversary, MutateStrategy, SilentStrategy
from repro.system.process import AsyncProcess, SyncProcess
from repro.system.scheduler import (
    AsyncScheduler,
    DelayPolicy,
    SynchronousScheduler,
)


class EchoOnce(SyncProcess):
    def on_round(self, ctx, r, inbox):
        if r == 0:
            ctx.broadcast("hello", ctx.pid, round=0)
        elif r == 1:
            ctx.decide(0)


class TokenCounter(AsyncProcess):
    def on_start(self, ctx):
        ctx.broadcast("tok", ctx.pid)
        self.got = set()

    def on_message(self, ctx, src, tag, payload):
        self.got.add(payload)
        if len(self.got) >= ctx.n - ctx.f and not ctx.decided:
            ctx.decide(len(self.got))


class TestSyncSchedulerMetrics:
    def test_network_counters_nonzero(self):
        res = SynchronousScheduler([EchoOnce() for _ in range(4)], f=0).run()
        m = res.metrics
        # 4 processes broadcast to 4 destinations in round 0
        assert m.counter_value("net.messages_sent") == 16
        assert m.counter_value("net.messages_delivered") == 16
        assert m.counter_value("net.bytes_estimate") > 0
        assert m.counter_value("net.sent.hello") == 16
        assert m.counter_value("net.delivered.hello") == 16
        assert m.counter_value("sched.sync.rounds") == res.rounds == 2

    def test_adversary_counters(self):
        adv = Adversary(faulty=[3], strategy=SilentStrategy())
        res = SynchronousScheduler(
            [EchoOnce() for _ in range(4)], f=1, adversary=adv
        ).run()
        m = res.metrics
        # the silent strategy eats the faulty process's round-0 broadcast
        assert m.counter_value("sched.adversary.messages_in") == 4
        assert m.counter_value("sched.adversary.messages_out") == 0
        assert m.counter_value("net.messages_sent") == 12

    def test_private_registry_per_run(self):
        r1 = SynchronousScheduler([EchoOnce() for _ in range(4)], f=0).run()
        r2 = SynchronousScheduler([EchoOnce() for _ in range(4)], f=0).run()
        assert r1.metrics is not r2.metrics
        assert r1.metrics.counter_value("net.messages_sent") == 16

    def test_explicit_registry_used(self):
        reg = MetricsRegistry()
        res = SynchronousScheduler(
            [EchoOnce() for _ in range(4)], f=0, metrics=reg
        ).run()
        assert res.metrics is reg
        assert reg.counter_value("net.messages_sent") == 16

    def test_ambient_registry_inherited(self):
        # A run started inside use_registry (the `--trace-out` CLI path)
        # records into that scope's registry.
        reg = MetricsRegistry()
        with use_registry(reg):
            res = SynchronousScheduler([EchoOnce() for _ in range(4)], f=0).run()
        assert res.metrics is reg

    def test_traced_run_has_round_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            SynchronousScheduler([EchoOnce() for _ in range(4)], f=0).run()
        names = [s.name for s in tracer.spans]
        assert names.count("sched.sync.run") == 1
        assert names.count("sched.sync.round") == 2
        run = next(s for s in tracer.spans if s.name == "sched.sync.run")
        rounds = [s for s in tracer.spans if s.name == "sched.sync.round"]
        assert all(s.parent_id == run.span_id for s in rounds)
        assert rounds[0].tags["sends"] == 16


class TestAsyncSchedulerMetrics:
    def test_steps_and_network_counters(self):
        res = AsyncScheduler([TokenCounter() for _ in range(4)], f=0).run()
        m = res.metrics
        assert m.counter_value("sched.async.steps") == res.rounds > 0
        assert m.counter_value("net.messages_sent") == 16
        assert m.counter_value("net.bytes_estimate") > 0
        assert m.counter_value("net.delivered.tok") > 0

    def test_delay_policy_starvation_counter(self):
        pol = DelayPolicy(victims=[0])
        res = AsyncScheduler(
            [TokenCounter() for _ in range(4)],
            f=1,
            policy=pol,
            adversary=Adversary(faulty=[3], strategy=SilentStrategy()),
        ).run()
        assert pol.starved_links > 0
        assert (
            res.metrics.counter_value("sched.policy.starved_links")
            == pol.starved_links
        )

    def test_mutating_adversary_counted(self):
        adv = Adversary(
            faulty=[3], strategy=MutateStrategy(lambda tag, payload, rng: -1)
        )
        res = AsyncScheduler(
            [TokenCounter() for _ in range(4)],
            f=1,
            adversary=adv,
            rng=np.random.default_rng(3),
        ).run()
        m = res.metrics
        assert m.counter_value("sched.adversary.messages_in") > 0
        assert m.counter_value("sched.adversary.messages_out") > 0

    def test_traced_run_has_step_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            res = AsyncScheduler([TokenCounter() for _ in range(4)], f=0).run()
        run = next(s for s in tracer.spans if s.name == "sched.async.run")
        steps = [s for s in tracer.spans if s.name == "sched.async.step"]
        assert run.tags["policy"] == "RandomPolicy"
        assert len(steps) == res.rounds
        assert all(s.parent_id == run.span_id for s in steps)
        assert {"step", "src", "dst", "tag"} <= set(steps[0].tags)
