"""Shared harness embedding broadcast state machines into processes.

Its tags (``eig``, ``auth``, ``rb``) are of no family the door checks:
each machine is exercised on whatever values a test hands it.
"""

from __future__ import annotations


import numpy as np

from repro.system.adversary import Adversary
from repro.system.broadcast.bracha import BrachaState
from repro.system.broadcast.dolev_strong import DolevStrongState
from repro.system.broadcast.om import EIGState
from repro.system.crypto import SignatureScheme
from repro.system.messages import expand_bursts
from repro.system.process import AsyncProcess, Context, SyncProcess
from repro.system.scheduler import AsyncScheduler, SynchronousScheduler


class EIGProcess(SyncProcess):
    """One OM(f) broadcast instance, commander fixed."""

    def __init__(self, n, f, commander, pid, value=None, default=None):
        self.state = EIGState(n, f, commander, pid, default=default)
        self.value = value
        self.f = f

    def on_round(self, ctx, r, inbox):
        for src, entries in inbox.items():
            for tag, payload in entries:
                if tag == "eig":
                    self.state.receive(r, src, payload)
        if r <= self.f:
            for payload in self.state.messages_for_round(r, self.value):
                ctx.broadcast("eig", payload, round=r)
        if r == self.f + 1:
            ctx.decide(self.state.decide())


class DSProcess(SyncProcess):
    """One Dolev–Strong broadcast instance."""

    def __init__(self, n, f, sender, pid, scheme, value=None, default=None):
        self.state = DolevStrongState(n, f, sender, pid, scheme, default=default)
        self.value = value
        self.f = f

    def on_round(self, ctx, r, inbox):
        for src, entries in inbox.items():
            for tag, payload in entries:
                if tag == "auth":
                    self.state.receive(r, src, payload)
        if r <= self.f:
            for payload in self.state.messages_for_round(r, self.value):
                ctx.broadcast("auth", payload, round=r)
        if r == self.f + 1:
            ctx.decide(self.state.decide())


class BrachaProcess(AsyncProcess):
    """One Bracha RBC instance; decides on delivery."""

    def __init__(self, n, f, sender, pid, value=None):
        self.state = BrachaState(n, f, sender, pid)
        self.value = value

    def on_start(self, ctx):
        for payload in self.state.start(self.value):
            ctx.broadcast("rb", payload)

    def on_message(self, ctx, src, tag, payload):
        for pl in self.state.on_message(src, payload):
            ctx.broadcast("rb", pl)
        if self.state.delivered and not ctx.decided:
            ctx.decide(self.state.delivered_value)


def relays(state, r, value=None):
    """``(dst, payload)`` for each copy of what an EIG / Dolev–Strong
    ``state`` sends in round ``r``: its payloads broadcast from a
    ``Context``, the bursts expanded."""
    ctx = Context(state.pid, state.n, state.f, np.random.default_rng(0))
    for payload in state.messages_for_round(r, value):
        ctx.broadcast("t", payload, round=r)
    return [(msg.dst, msg.payload) for msg in expand_bursts(ctx.outbox, state.n)]


def counters(reg, prefix):
    """``reg``'s counters under ``prefix``, keyed by the rest of the name."""
    return {
        name[len(prefix):]: reg.counter_value(name)
        for name in reg.snapshot() if name.startswith(prefix)
    }


def eig_scheduler(n, f, commander, value, adversary=None, seed=0):
    procs = [
        EIGProcess(n, f, commander, pid, value if pid == commander else None)
        for pid in range(n)
    ]
    return SynchronousScheduler(procs, f, adversary, rng=np.random.default_rng(seed))


def run_eig(n, f, commander, value, adversary=None, seed=0):
    return eig_scheduler(n, f, commander, value, adversary, seed).run()


def ds_scheduler(n, f, sender, value, adversary=None, seed=0):
    """The scheduler and the signature scheme it signs with."""
    rng = np.random.default_rng(seed)
    scheme = SignatureScheme(n, rng)
    procs = [
        DSProcess(n, f, sender, pid, scheme, value if pid == sender else None)
        for pid in range(n)
    ]
    adversary = adversary or Adversary.none()
    return SynchronousScheduler(
        procs,
        f,
        adversary,
        rng=rng,
        sign=scheme.signer_for(set(adversary.faulty)),
    ), scheme


def run_ds(n, f, sender, value, adversary=None, seed=0):
    sched, scheme = ds_scheduler(n, f, sender, value, adversary, seed)
    return sched.run(), scheme


def bracha_scheduler(n, f, sender, value, adversary=None, seed=0,
                     max_steps=100_000):
    procs = [
        BrachaProcess(n, f, sender, pid, value if pid == sender else None)
        for pid in range(n)
    ]
    return AsyncScheduler(
        procs, f, adversary, rng=np.random.default_rng(seed), max_steps=max_steps,
    )


def run_bracha(n, f, sender, value, adversary=None, seed=0, max_steps=100_000):
    return bracha_scheduler(n, f, sender, value, adversary, seed, max_steps).run()
