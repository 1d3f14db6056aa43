"""What the network charges for a broadcast burst.

``NetworkStats.record_send`` sizes a message once per run of sends that
share the payload *object* and the tag; EIG, Dolev–Strong and Bracha all
hand the ``n`` copies of one relay over as one object.  The shortcut is
sound only while ``bytes_estimate`` stays equal to what sizing every
message on its own gives — the invariant below fails the day it reuses a
stale size.
"""

from __future__ import annotations

import pytest

from repro import RunSpec, run
from repro.exec.grid import build_adversary

from .broadcast_harness import bracha_scheduler, ds_scheduler, eig_scheduler

N, F = 7, 2
VALUE = (1.5, -2.0)


def _sent_run(kind, sender, adversary):
    """The run's result and every message it put on the network."""
    adversary = build_adversary(adversary, N, F)
    sent = []
    if kind == "bracha":
        # The async step returns deliveries: drain the network so that
        # every message sent is among them.
        sched = bracha_scheduler(N, F, sender, VALUE, adversary)
        sched.start()
        while (msg := sched.step()) is not None:
            sent.append(msg)
        return sched.run(), sent
    if kind == "eig":
        sched = eig_scheduler(N, F, sender, VALUE, adversary)
    else:
        sched = ds_scheduler(N, F, sender, VALUE, adversary)[0]
    sched.start()
    while not all(sched.contexts[p].decided for p in range(N)
                  if p not in sched.adversary.faulty):
        sent.extend(sched.step())
    return sched.run(), sent


@pytest.mark.parametrize("adversary", ["none", "silent", "equivocate", "mutate"])
@pytest.mark.parametrize("sender", [0, N - 1], ids=["correct-sender", "faulty-sender"])
@pytest.mark.parametrize("kind", ["eig", "dolev-strong", "bracha"])
def test_bytes_estimate_is_the_sum_of_message_sizes(kind, sender, adversary):
    res, sent = _sent_run(kind, sender, adversary)
    assert len(sent) == res.stats.messages_sent
    assert sum(msg.estimated_size() for msg in sent) == res.stats.bytes_estimate
    if adversary == "none" or sender == 0:
        assert res.stats.messages_sent > 0


def test_algo_eig_message_accounting_is_pinned():
    """``algo``, n = 7, d = 2, f = 2 over EIG, seed 2016 — taken with one
    payload tuple and one size estimate per destination."""
    out = run(RunSpec(algorithm="algo", n=7, d=2, f=2, broadcast="eig", seed=2016))
    stats = out.result.stats
    assert stats.messages_sent == 1813
    assert stats.bytes_estimate == 131026
    assert dict(stats.per_tag) == {f"bc:{c}": 259 for c in range(7)}
