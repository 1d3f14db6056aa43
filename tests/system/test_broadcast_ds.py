"""Tests for authenticated Dolev–Strong broadcast."""

from __future__ import annotations

import pytest

from repro.exec.grid import build_adversary
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.adversary import (
    Adversary,
    AdversaryView,
    ByzantineStrategy,
    MutateStrategy,
    SilentStrategy,
)
from repro.system.broadcast.dolev_strong import DolevStrongState
from repro.system.crypto import SignatureScheme
from repro.system.messages import Message

from .broadcast_harness import counters, relays, run_ds


def correct_values(res):
    return [res.decisions[p] for p in sorted(res.correct_decisions)]


class TestDSUnit:
    def test_sender_round0(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 0, scheme)
        msgs = relays(st, 0, 42)
        assert len(msgs) == 4
        value, chain = msgs[0][1]
        assert value == 42 and len(chain) == 1 and chain[0].signer == 0

    def test_invalid_chain_rejected(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 1, scheme)
        bad_sig = scheme.sign(2, ("ds", 0, 0, 42))  # first signer not sender
        st.receive(1, 2, (42, (bad_sig,)))
        assert st.accepted == {}

    def test_short_chain_rejected_late(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 1, scheme)
        sig = scheme.sign(0, ("ds", 0, 0, 42))
        st.receive(2, 3, (42, (sig,)))  # round 2 needs chain >= 2
        assert st.accepted == {}
        st.receive(1, 0, (42, (sig,)))  # round 1 with chain 1 is fine
        assert len(st.accepted) == 1

    def test_duplicate_signers_rejected(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 1, scheme)
        sig = scheme.sign(0, ("ds", 0, 0, 42))
        st.receive(2, 3, (42, (sig, sig)))
        assert st.accepted == {}

    def test_decide_unique_vs_conflicting(self, rng):
        scheme = SignatureScheme(4, rng)
        st = DolevStrongState(4, 1, 0, 1, scheme, default="DEFAULT")
        s1 = scheme.sign(0, ("ds", 0, 0, "a"))
        s2 = scheme.sign(0, ("ds", 0, 0, "b"))
        st.receive(1, 0, ("a", (s1,)))
        assert st.decide() == "a"
        st.receive(1, 0, ("b", (s2,)))
        assert st.decide() == "DEFAULT"

    def test_round0_burst_shares_one_payload_object(self, rng):
        # n destinations, one payload: the network sizes a burst once.
        st = DolevStrongState(4, 1, 0, 0, SignatureScheme(4, rng))
        out = relays(st, 0, (1.0, 2.0))
        assert [dst for dst, _ in out] == [0, 1, 2, 3]
        assert all(p is out[0][1] for _, p in out)

    def test_relay_burst_shares_one_payload_per_chain(self, rng):
        scheme = SignatureScheme(5, rng)
        st = DolevStrongState(5, 2, 0, 1, scheme)
        for value in ("a", "b"):  # an equivocating sender: two chains to relay
            sig = scheme.sign(0, ("ds", 0, 0, value))
            st.receive(1, 0, (value, (sig,)))
        out = relays(st, 1)
        assert [dst for dst, _ in out] == list(range(5)) * 2
        first, second = out[:5], out[5:]
        assert all(p is first[0][1] for _, p in first)
        assert all(p is second[0][1] for _, p in second)
        assert first[0][1][0] == "a" and second[0][1][0] == "b"
        assert [s.signer for s in first[0][1][1]] == [0, 1]
        assert first[0][1] is not second[0][1]


class TestDSProtocol:
    @pytest.mark.parametrize("n,f", [(4, 1), (5, 2)])
    def test_failure_free_validity(self, n, f):
        res, _ = run_ds(n, f, sender=0, value=("payload", 3))
        assert all(v == ("payload", 3) for v in res.decisions.values())

    def test_silent_sender(self):
        res, _ = run_ds(
            4, 1, 0, "v", Adversary(faulty=[0], strategy=SilentStrategy())
        )
        assert all(v is None for v in correct_values(res))

    def test_lying_relay_cannot_forge(self):
        """A faulty relay mutating values produces invalid signature
        chains — receivers discard them, validity holds."""
        res, _ = run_ds(
            4, 1, 0, "TRUTH",
            Adversary(
                faulty=[2],
                strategy=MutateStrategy(lambda tag, p, rng: ("FAKE", p[1])),
            ),
        )
        for p in (1, 3):
            assert res.decisions[p] == "TRUTH"

    def test_equivocating_sender_agreement(self):
        """Sender signs two values and sends different ones to different
        processes: relays expose the equivocation, all decide default."""

        class EquivSigner(ByzantineStrategy):
            def transform(self, msg: Message, view: AdversaryView):
                value, chain = msg.payload
                alt = "B" if msg.dst % 2 else "A"
                if view.sign is None or len(chain) != 1:
                    return [msg]
                sig = view.sign(msg.src, ("ds", 0, msg.src, alt))
                return [Message(msg.src, msg.dst, msg.tag, (alt, (sig,)), round=msg.round)]

        res, _ = run_ds(
            4, 1, 0, "V", Adversary(faulty=[0], strategy=EquivSigner())
        )
        vals = correct_values(res)
        assert len(set(map(str, vals))) == 1

    def test_f2_with_two_faults(self):
        res, _ = run_ds(
            5, 2, 0, "X",
            Adversary(
                faulty=[1, 3],
                strategies={
                    1: SilentStrategy(),
                    3: MutateStrategy(lambda tag, p, rng: ("Y", p[1])),
                },
            ),
        )
        for p in (2, 4):
            assert res.decisions[p] == "X"


class TestDSRunEndCounters:
    """Run-end ``bcast.ds.*`` totals of one instance, n = 7, f = 2 —
    pinned before relays started sharing their payload."""

    @pytest.mark.parametrize("sender,adversary,expected", [
        (0, "silent", {"accepted": 7, "relays_sent": 42}),
        (0, "equivocate", {"accepted": 7, "rejected": 14, "relays_sent": 42}),
        # the sender's own copies are perturbed after signing: nothing verifies
        (6, "equivocate", {"rejected": 7}),
    ])
    def test_counters(self, sender, adversary, expected):
        reg = MetricsRegistry()
        with use_registry(reg):
            run_ds(7, 2, sender, (1.5, -2.0),
                   adversary=build_adversary(adversary, 7, 2))
        assert counters(reg, "bcast.ds.") == expected
