"""Unit tests for the broadcast-all template and its default handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.broadcast_all import BroadcastAllProcess, broadcast_tag
from repro.core.exact_bvc import ExactBVCProcess
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.adversary import Adversary, SilentStrategy
from repro.system.crypto import SignatureScheme
from repro.system.process import Context
from repro.system.scheduler import SynchronousScheduler


class Recorder(BroadcastAllProcess):
    """Records the agreed multiset instead of deciding a point."""

    def decide_from_multiset(self, ctx: Context, S: np.ndarray) -> None:
        ctx.decide(S)


def run_recorders(n, f, inputs, adversary=None, transport="eig", seed=0):
    rng = np.random.default_rng(seed)
    scheme = SignatureScheme(n, rng) if transport == "dolev-strong" else None
    procs = [
        Recorder(n, f, pid, inputs[pid], broadcast=transport, scheme=scheme)
        for pid in range(n)
    ]
    adversary = adversary or Adversary.none()
    sched = SynchronousScheduler(
        procs, f, adversary, rng=rng,
        sign=scheme.signer_for(set(adversary.faulty)) if scheme else None,
    )
    return sched.run(), procs


class TestBroadcastAll:
    def test_tag_format(self):
        assert broadcast_tag(3) == "bc:3"

    def test_identical_multisets(self, rng):
        inputs = rng.normal(size=(4, 2))
        res, procs = run_recorders(4, 1, inputs)
        mats = [res.decisions[p] for p in range(4)]
        for m in mats[1:]:
            np.testing.assert_array_equal(mats[0], m)

    def test_multiset_matches_inputs_failure_free(self, rng):
        inputs = rng.normal(size=(4, 3))
        res, _ = run_recorders(4, 1, inputs)
        np.testing.assert_allclose(res.decisions[0], inputs, atol=1e-12)

    def test_silent_fault_substituted_deterministically(self, rng):
        inputs = rng.normal(size=(4, 2))
        adv = Adversary(faulty=[2], strategy=SilentStrategy())
        res, procs = run_recorders(4, 1, inputs, adversary=adv)
        S = res.decisions[0]
        # faulty sender's slot replaced by the first valid broadcast value
        np.testing.assert_allclose(S[2], S[0])
        # every correct process recorded the substitution
        for p in (0, 1, 3):
            assert 2 in procs[p].defaulted_senders

    def test_agreement_under_substitution(self, rng):
        inputs = rng.normal(size=(4, 2))
        adv = Adversary(faulty=[0], strategy=SilentStrategy())
        res, _ = run_recorders(4, 1, inputs, adversary=adv)
        mats = [res.decisions[p] for p in (1, 2, 3)]
        for m in mats[1:]:
            np.testing.assert_array_equal(mats[0], m)

    def test_dolev_strong_transport_matches(self, rng):
        inputs = rng.normal(size=(4, 2))
        res, _ = run_recorders(4, 1, inputs, transport="dolev-strong")
        np.testing.assert_allclose(res.decisions[0], inputs, atol=1e-12)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            Recorder(4, 1, 0, np.zeros(2), broadcast="pigeon")

    def test_dolev_strong_requires_scheme(self):
        with pytest.raises(ValueError):
            Recorder(4, 1, 0, np.zeros(2), broadcast="dolev-strong")

    def test_om_requires_3f_plus_1(self):
        with pytest.raises(ValueError):
            ExactBVCProcess(3, 1, 0, np.zeros(2))

    def test_ignores_foreign_tags(self, rng):
        """Messages with non-broadcast tags are skipped, not crashed on."""
        proc = Recorder(4, 1, 0, np.zeros(2))
        ctx = Context(0, 4, 1, rng)
        proc.on_round(ctx, 0, {1: [("weird", "payload"), ("bc:notanint", "x")]})
        # no exception and protocol messages were emitted
        assert ctx.outbox


class TestResolveDefaults:
    """What counts as a well-formed broadcast value at d = 2: a tuple of
    exactly d finite ``float``s (``np.float64`` is one); anything else is
    a provably faulty sender and takes the first valid value."""

    GOOD = (1.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            (float("nan"), 0.0),
            (0.0, float("inf")),
            (float("-inf"), 0.0),
            (np.float64("nan"), 0.0),
            (1.0,),
            (1.0, 2.0, 3.0),
            (),
            (1, 2),
            (True, 0.0),
            ("1.0", 2.0),
            (None, 2.0),
            (np.float32(1.0), 2.0),
            [1.0, 2.0],
            np.array([1.0, 2.0]),
            None,
            "ab",
        ],
        ids=repr,
    )
    def test_malformed_value_is_defaulted(self, bad):
        proc = Recorder(4, 1, 0, np.zeros(2))
        out = proc._resolve_defaults([self.GOOD, bad, (3.0, 4.0), self.GOOD])
        assert out == [self.GOOD, self.GOOD, (3.0, 4.0), self.GOOD]
        assert proc.defaulted_senders == [1]

    def test_numpy_floats_are_well_formed(self):
        proc = Recorder(4, 1, 0, np.zeros(2))
        value = (np.float64(1.5), -0.0)
        assert proc._resolve_defaults([value] * 4) == [value] * 4
        assert proc.defaulted_senders == []

    def test_nothing_valid_is_an_error(self):
        proc = Recorder(4, 1, 0, np.zeros(2))
        with pytest.raises(RuntimeError, match="more than f faults"):
            proc._resolve_defaults([None, (float("nan"), 0.0), (1.0,), "x"])


class TestTagRouting:
    """Round-1 deliveries at process 1 of n = 4: which tags reach which
    broadcast machine (every one of them validates its own delivery)."""

    @staticmethod
    def deliver(rng, tag, src=0, payload=None):
        proc = Recorder(4, 1, 1, np.zeros(2))
        payload = ((src,), (1.0, 2.0)) if payload is None else payload
        proc.on_round(Context(1, 4, 1, rng), 1, {src: [(tag, payload)]})
        return {c: dict(st.tree) for c, st in proc.instances.items() if st.tree}

    @pytest.mark.parametrize("tag", ["bc:0", "bc:00", "bc:+0", "bc: 0"])
    def test_every_spelling_of_an_instance_routes_to_it(self, rng, tag):
        assert self.deliver(rng, tag) == {0: {(0,): (1.0, 2.0)}}

    def test_zero_padded_tag_routes_like_the_canonical_one(self, rng):
        routed = self.deliver(rng, "bc:3", src=3)
        assert routed == {3: {(3,): (1.0, 2.0)}}
        assert self.deliver(rng, "bc:03", src=3) == routed

    @pytest.mark.parametrize("tag", ["abc", "eig", "", "b", "BC:0", "xbc:0"])
    def test_non_bc_tags_are_ignored(self, rng, tag):
        assert self.deliver(rng, tag) == {}

    @pytest.mark.parametrize("tag", ["bc:4", "bc:-1", "bc:99"])
    def test_out_of_range_instances_are_ignored(self, rng, tag):
        assert self.deliver(rng, tag) == {}

    @pytest.mark.parametrize("tag", ["bc:", "bc:x", "bc:0:1", "bc:1.0", "bc:None"])
    def test_unparsable_instances_are_ignored(self, rng, tag):
        assert self.deliver(rng, tag) == {}

    def test_routed_relay_is_still_validated_by_its_machine(self, rng):
        # instance 2 is reached, and refuses a relay not rooted at its commander
        reg = MetricsRegistry()
        with use_registry(reg):
            proc = Recorder(4, 1, 1, np.zeros(2))
            proc.on_round(Context(1, 4, 1, rng), 1, {0: [("bc:2", ((0,), (1.0, 2.0)))]})
            proc.instances[2].decide()
        assert proc.instances[2].tree == {}
        assert reg.counter_value("bcast.om.relays_rejected") == 1

    def test_tag_built_once_per_instance_is_the_tag_sent(self, rng):
        proc = Recorder(4, 1, 2, np.array([1.0, 2.0]))
        ctx = Context(2, 4, 1, rng)
        proc.on_round(ctx, 0, {})
        assert [(m.dst, m.tag, m.payload) for m in ctx.outbox] == [
            (dst, "bc:2", ((2,), (1.0, 2.0))) for dst in range(4)
        ]
        assert all(m.payload is ctx.outbox[0].payload for m in ctx.outbox)
