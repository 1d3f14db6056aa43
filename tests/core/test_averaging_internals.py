"""Unit tests for Verified-Averaging internals (no scheduler)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import averaging as avg_mod
from repro.core.averaging import VerifiedAveragingProcess, rb_tag
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.messages import Message, expand_bursts
from repro.system.process import Context, Node


def make_proc(**kw):
    defaults = dict(num_rounds=3, mode="optimal", delta=0.0, p=2)
    defaults.update(kw)
    return VerifiedAveragingProcess(4, 1, 0, np.array([1.0, 2.0]), **defaults)


def ctx_for(proc):
    return Context(proc.pid, proc.n, proc.f, np.random.default_rng(0))


def door_drops(proc, sender, round, claim):
    """Deliver the INIT of ``claim`` through a node's door; True when the
    door dropped it, so that no Bracha machine was ever opened."""
    node = Node(proc.pid, proc, ctx_for(proc))
    with use_registry(MetricsRegistry()) as reg:
        node.deliver(Message(sender, proc.pid, rb_tag(sender, round), ("init", claim)))
    return reg.counter_value("node.malformed.rva") == 1 and not proc._rb


class TestTags:
    def test_rb_tag_format(self):
        assert rb_tag(2, 5) == "rva:2:5"

    def test_foreign_tags_ignored(self):
        # An rva tag the door cannot parse is dropped there; a tag of no
        # family reaches the handler, which ignores it.
        proc = make_proc()
        node = Node(proc.pid, proc, ctx_for(proc))
        for tag in ("not-rva", "rva:bad:tag:extra", "rva:zz:0"):
            assert node.deliver(Message(1, 0, tag, ("x",))) == []
        assert not proc._rb  # nothing happened

    def test_out_of_range_instances_capped(self):
        """Byzantine tag spam beyond num_rounds creates no state."""
        proc = make_proc(num_rounds=2)
        node = Node(proc.pid, proc, ctx_for(proc))
        # past the last round: the handler's cap; no such sender: the door's
        node.deliver(Message(1, 0, rb_tag(0, 99), ("init", ("refs", (0, 1, 2)))))
        node.deliver(Message(1, 0, rb_tag(9, 0), ("init", ("val", (0.0, 0.0)))))
        assert not proc._rb  # no machines allocated


    def test_machine_is_found_by_the_tag_it_was_opened_under(self):
        proc = make_proc()
        ctx = ctx_for(proc)
        echo = ("echo", ("val", (0.0, 0.0)))
        proc.on_message(ctx, 1, rb_tag(2, 1), echo)
        assert list(proc._rb) == ["rva:2:1"] and proc._rb["rva:2:1"][0] == (2, 1)
        proc.on_message(ctx, 3, rb_tag(2, 1), echo)
        assert proc._machine(2, 1)._echoes.popitem()[1] == {1, 3}

    def test_other_spellings_of_a_tag_reach_the_same_machine_unrecorded(self):
        # int() accepts "01", " 1", "+1", "1_0"...: a Byzantine sender
        # can spell one instance many ways.  They all parse to the same
        # (sender, round); only rb_tag's spelling is ever remembered, so
        # spam cannot grow the table.
        proc = make_proc()
        ctx = ctx_for(proc)
        echo = ("echo", ("val", (0.0, 0.0)))
        for src, tag in enumerate(("rva:2:1", "rva:02:1", "rva: 2:+1", "rva:2:0_1")):
            proc.on_message(ctx, src, tag, echo)
        assert list(proc._rb) == ["rva:2:1"]
        assert proc._machine(2, 1)._echoes.popitem()[1] == {0, 1, 2, 3}

    def test_on_stop_publishes_the_phase_counters(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        proc = make_proc()
        ctx = ctx_for(proc)
        with use_registry(MetricsRegistry()) as reg:
            for sender in (1, 2):
                for src in (0, 1, 3):
                    proc.on_message(
                        ctx, src, rb_tag(sender, 0), ("echo", ("val", (0.0, 0.0)))
                    )
            assert reg.counter_value("bcast.bracha.echo") == 0
            proc.on_stop(ctx)
        assert reg.counter_value("bcast.bracha.echo") == 6
        assert reg.counter_value("bcast.bracha.ready") == 0


class TestIngestValidation:
    """A claim is typed at the door, before its Bracha instance exists;
    what reaches ``_ingest`` is verified or waits for its references."""

    def test_valid_round0(self):
        proc = make_proc()
        proc._ingest((1, 0), ("val", (3.0, 4.0)))
        np.testing.assert_array_equal(proc.verified[(1, 0)], [3.0, 4.0])

    @pytest.mark.parametrize("payload", [
        "garbage",
        ("val",),
        ("wrong-kind", (1.0, 2.0)),
        ("val", (1.0,)),              # wrong dimension
        ("val", (float("nan"), 1.0)),  # non-finite
        ("val", (float("inf"), 1.0)),
    ])
    def test_invalid_round0(self, payload):
        proc = make_proc()
        assert door_drops(proc, 1, 0, payload)
        assert (1, 0) not in proc.verified

    def test_valid_refs(self):
        proc = make_proc()
        proc._ingest((2, 1), ("refs", (0, 1, 3)))
        assert proc._pending[(2, 1)] == (0, 1, 3)

    @pytest.mark.parametrize("payload", [
        ("refs", (0, 0, 1)),       # duplicates
        ("refs", (0, 1)),          # wrong count (quorum is 3)
        ("refs", (0, 1, 9)),       # out of range
        ("refs", "abc"),           # wrong type... parses as chars -> fails
        ("something", (0, 1, 2)),
    ])
    def test_invalid_refs(self, payload):
        proc = make_proc()
        assert door_drops(proc, 2, 1, payload)
        assert (2, 1) not in proc._pending

    def test_round_value_average(self):
        proc = make_proc()
        for i, v in enumerate([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)]):
            proc.verified[(i, 1)] = np.array(v)
        avg = proc._round_value(2, (0, 1, 2))
        np.testing.assert_allclose(avg, [1.0, 1.0])


class TestModeValidation:
    def test_zero_mode_raises_below_bound(self):
        """δ=0 selection with |X| < (d+1)f+1 fails loudly (Theorem 2's
        bound at work)."""
        proc = make_proc(mode="zero")
        X = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(RuntimeError):
            proc._select_round1_uncached(X)

    def test_fixed_mode_raises_when_infeasible(self):
        proc = make_proc(mode="fixed", delta=1e-12)
        # three far-apart points, f=1: δ* >> 1e-12
        X = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(RuntimeError):
            proc._select_round1_uncached(X)

    def test_fixed_mode_feasible(self):
        proc = make_proc(mode="fixed", delta=100.0, p=float("inf"))
        X = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pt = proc._select_round1_uncached(X)
        assert pt.shape == (2,)
        assert proc.delta_used == 100.0

    def test_select_cache_hit(self):
        from repro.core import averaging as avg_mod

        avg_mod._SELECT_CACHE.clear()
        p1 = make_proc()
        X = np.random.default_rng(1).normal(size=(3, 2))
        v1 = p1._select_round1(X)
        assert len(avg_mod._SELECT_CACHE) == 1
        p2 = make_proc()
        v2 = p2._select_round1(X.copy())
        np.testing.assert_array_equal(v1, v2)
        assert p2.delta_used == p1.delta_used
        assert len(avg_mod._SELECT_CACHE) == 1  # cache hit, no new entry


class TestVerifyOnce:
    """Each claim is verified once per run: the per-round index of
    verified senders and the shared claim-value memo, checked after every
    delivery of a random delivery order."""

    @settings(max_examples=20, deadline=None)
    @given(order=st.randoms(use_true_random=False), d=st.integers(1, 3))
    def test_random_delivery_orders(self, order, d):
        n, f = 4, 1
        inputs = np.random.default_rng(d).normal(size=(n, d))
        procs = [
            VerifiedAveragingProcess(n, f, pid, inputs[pid], num_rounds=3)
            for pid in range(n)
        ]
        nodes = [
            Node(pid, proc, Context(pid, n, f, np.random.default_rng(pid)))
            for pid, proc in enumerate(procs)
        ]
        avg_mod._SELECT_CACHE.clear()
        misses = []
        remember = avg_mod._remember

        def counting(key, *entry):
            misses.append(key)
            return remember(key, *entry)

        avg_mod._remember = counting
        try:
            pending = [msg for node in nodes
                       for msg in expand_bursts(node.start(), n)]
            while pending:
                msg = pending.pop(order.randrange(len(pending)))
                pending.extend(expand_bursts(nodes[msg.dst].deliver(msg), n))
                for proc in procs:
                    self._check_index(proc)
                self._check_memo()
        finally:
            avg_mod._remember = remember

        assert all(node.ctx.decided for node in nodes)
        verifications = [
            key for proc in procs for key in proc.verified if key[1] >= 1
        ]
        # one value per distinct claim, however many processes verify it
        assert len(misses) == len(set(misses)) <= len(set(verifications))
        assert len(verifications) == n * len(set(verifications))

    @staticmethod
    def _check_index(proc):
        scan = {}
        for sender, round in proc.verified:
            scan.setdefault(round, []).append(sender)
        assert proc._ready == {t: sorted(s) for t, s in scan.items()}

    @staticmethod
    def _check_memo():
        for key, (value, *_) in avg_mod._SELECT_CACHE.items():
            if len(key) == 2:  # a round >= 2 average over key[0] rows
                rows = np.frombuffer(key[1]).reshape(key[0], -1)
                assert value.tobytes() == np.stack(list(rows)).mean(axis=0).tobytes()
            with pytest.raises(ValueError):
                value[0] = 1.0
