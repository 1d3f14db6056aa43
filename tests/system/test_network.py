"""Tests for the FIFO complete-graph network buffer."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.messages import ALL, BURST, Message
from repro.system.network import Network
from repro.system.scheduler import DelayPolicy, FifoPolicy, RandomPolicy


def msg(src, dst, tag="t", payload=None, seq=0):
    return Message(src, dst, tag, payload, seq=seq)


class TestNetwork:
    def test_submit_and_pop_fifo(self):
        net = Network(3)
        net.submit(msg(0, 1, payload="a", seq=0))
        net.submit(msg(0, 1, payload="b", seq=1))
        assert net.pop((0, 1)).payload == "a"
        assert net.pop((0, 1)).payload == "b"

    def test_out_of_range_rejected(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.submit(msg(0, 5))

    def test_pending_links_sorted_deterministic(self):
        net = Network(3)
        net.submit(msg(2, 0))
        net.submit(msg(0, 1))
        net.submit(msg(1, 2))
        assert net.pending_links() == [(0, 1), (1, 2), (2, 0)]

    def test_peek_does_not_remove(self):
        net = Network(2)
        net.submit(msg(0, 1, payload="x"))
        assert net.peek((0, 1)).payload == "x"
        assert net.pending_count() == 1

    def test_pop_empty_link_raises(self):
        net = Network(2)
        with pytest.raises(KeyError):
            net.pop((0, 1))

    def test_drain_all_empties(self):
        net = Network(3)
        for i in range(3):
            net.submit(msg(i, (i + 1) % 3))
        drained = list(net.drain_all())
        assert len(drained) == 3
        assert net.pending_count() == 0

    def test_stats_counts(self):
        net = Network(2)
        net.submit(msg(0, 1, tag="a"))
        net.submit(msg(0, 1, tag="a"))
        net.submit(msg(1, 0, tag="b"))
        list(net.drain_all())
        assert net.stats.messages_sent == 3
        assert net.stats.messages_delivered == 3
        assert net.stats.per_tag == {"a": 2, "b": 1}

    def test_burst_sized_once_per_payload_and_tag(self):
        # One payload object under one tag is a burst: sized once, counted
        # n times.  A different tag or an equal-but-distinct payload is a
        # new burst, so the total is what per-message sizing gives.
        net = Network(3)
        shared = ("val", (1.0, 2.0))
        msgs = [msg(0, dst, tag="a", payload=shared) for dst in range(3)]
        msgs.append(msg(0, 1, tag="bb", payload=shared))
        msgs.append(msg(1, 2, tag="bb", payload=("val", (1.0, 2.0, 3.0))))
        msgs.append(msg(1, 2, tag="bb", payload=None))
        for m in msgs:
            net.submit(m)
        assert net.stats.bytes_estimate == sum(m.estimated_size() for m in msgs)
        assert net.stats.messages_sent == len(msgs)


N = 3
_LINKS = [(s, d) for s in range(N) for d in (*range(N), ALL)]
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(_LINKS)),
        st.tuples(st.just("burst"), st.integers(0, N - 1)),
        st.tuples(st.just("pop"), st.sampled_from(_LINKS)),
        st.tuples(st.just("drain"), st.integers(0, 4)),
    ),
    max_size=60,
)


class TestNetworkModel:
    """The incremental link index against a naive reference model, which
    holds a burst as its ``n`` copies at seqs ``seq + d``."""

    @staticmethod
    def _check(net: Network, model: dict) -> None:
        assert list(net.pending_links()) == sorted(
            link for link, q in model.items() if q
        )
        assert net.pending_count() == sum(len(q) for q in model.values())
        for link, q in model.items():
            head = net.peek(link)
            assert ((head.dst, head.seq) if head else None) == (
                (link[1], q[0]) if q else None
            )

    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    def test_any_interleaving_matches_reference(self, ops):
        net = Network(N)
        model: dict = {}
        seq = 0
        for op, arg in ops:
            if op == "submit":
                net.submit(msg(arg[0], arg[1], seq=seq))
                model.setdefault(arg, deque()).append(seq)
                seq += 1
            elif op == "burst":
                net.submit(msg(arg, BURST, seq=seq))
                for d in range(N):
                    model.setdefault((arg, d), deque()).append(seq + d)
                seq += N
            elif op == "pop":
                if model.get(arg):
                    # per-link FIFO: the oldest submission comes out; a
                    # burst's own envelope stands for its copy to arg[1]
                    got = net.pop(arg)
                    if got.dst == BURST:
                        assert got.src == arg[0]
                        got = got._replace(dst=arg[1], seq=got.seq + arg[1])
                    assert (got.dst, got.seq) == (arg[1], model[arg].popleft())
                else:
                    with pytest.raises(KeyError):
                        net.pop(arg)
            else:
                # Drain, possibly abandoning the generator after `arg`
                # messages: the index must be exact either way.
                expected = [
                    s for link in sorted(model) for s in model[link]
                ]
                got = []
                for m in net.drain_all():
                    got.append(m.seq)
                    assert model[(m.src, m.dst)].popleft() == m.seq
                    self._check(net, model)
                    if len(got) == arg:
                        break
                assert got == expected[: len(got)]
            self._check(net, model)
        assert net.stats.messages_sent == seq
        assert net.stats.messages_delivered == seq - net.pending_count()

    def test_policies_only_read_the_pending_index(self):
        # pending_links() hands out the network's own sorted index;
        # every delivery policy must choose from it without mutating it.
        from repro.dst.scenarios import ScenarioPolicy, ScheduleWindow

        policies = [
            RandomPolicy(),
            FifoPolicy(),
            DelayPolicy([0]),
            DelayPolicy(range(N)),  # every link starved: falls back to all
            ScenarioPolicy([ScheduleWindow("delay", 0, 10, victims=(0,))]),
            ScenarioPolicy([ScheduleWindow("partition", 0, 10,
                                           groups=((0, 1), (2,)))]),
        ]
        rng = np.random.default_rng(0)
        for policy in policies:
            net = Network(N)
            for i, link in enumerate(reversed(_LINKS)):
                net.submit(msg(link[0], link[1], seq=i))
            before = list(net.pending_links())
            assert before == sorted(_LINKS)
            for _ in range(5):
                link = policy.choose(net.pending_links(), net, rng)
                assert link in before
                assert list(net.pending_links()) == before
