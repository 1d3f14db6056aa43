"""Tests for Bracha asynchronous reliable broadcast."""

from __future__ import annotations

import pytest

from repro.system.adversary import (
    Adversary,
    DuplicateStrategy,
    EquivocateStrategy,
    SilentStrategy,
)
from repro.system.broadcast.bracha import ECHO, INIT, READY, BrachaState

from .broadcast_harness import run_bracha


class TestBrachaUnit:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            BrachaState(3, 1, 0, 0)

    def test_sender_start(self):
        st = BrachaState(4, 1, 0, 0)
        msgs = st.start("v")
        assert len(msgs) == 4
        assert all(p == (INIT, "v") for _, p in msgs)

    def test_non_sender_start_empty(self):
        assert BrachaState(4, 1, 0, 1).start("v") == []

    def test_echo_on_init_from_sender_only(self):
        st = BrachaState(4, 1, 0, 1)
        assert st.on_message(2, (INIT, "v")) == []  # not the sender
        out = st.on_message(0, (INIT, "v"))
        assert len(out) == 4 and all(p == (ECHO, "v") for _, p in out)
        # second init: no double echo
        assert st.on_message(0, (INIT, "v")) == []

    def test_ready_on_echo_quorum(self):
        st = BrachaState(4, 1, 0, 1)  # echo threshold = ceil(6/2)=3
        assert st.on_message(0, (ECHO, "v")) == []
        assert st.on_message(2, (ECHO, "v")) == []
        out = st.on_message(3, (ECHO, "v"))
        assert all(p == (READY, "v") for _, p in out)

    def test_duplicate_echoes_not_counted(self):
        st = BrachaState(4, 1, 0, 1)
        st.on_message(0, (ECHO, "v"))
        st.on_message(0, (ECHO, "v"))
        out = st.on_message(0, (ECHO, "v"))
        assert out == []  # still only one distinct echoer

    def test_ready_amplification(self):
        """f+1 readys trigger own ready even without echo quorum."""
        st = BrachaState(4, 1, 0, 1)
        assert st.on_message(2, (READY, "v")) == []
        out = st.on_message(3, (READY, "v"))
        assert all(p == (READY, "v") for _, p in out)

    def test_delivery_on_ready_quorum(self):
        st = BrachaState(4, 1, 0, 1)
        for src in (0, 2, 3):
            st.on_message(src, (READY, "v"))
        assert st.delivered
        assert st.delivered_value == "v"

    def test_sender_mutation_after_vote_cannot_rewrite_delivery(self):
        # The value is retained on the first ECHO and copied only then;
        # that one copy must still be private: mutating the live payload
        # after the vote was counted changes neither what later votes
        # are compared against nor what is delivered.
        st = BrachaState(4, 1, 0, 1)
        live = ["v", [1.0, 2.0]]
        st.on_message(2, (ECHO, live))
        live[1].append(666.0)
        live[0] = "w"
        for src in (0, 2, 3):
            st.on_message(src, (READY, ["v", [1.0, 2.0]]))
        assert st.delivered
        assert st.delivered_value == ["v", [1.0, 2.0]]
        assert st.delivered_value is not live

    def test_burst_shares_one_payload_object(self):
        # n destinations, one payload: the network sizes a burst once.
        out = BrachaState(4, 1, 0, 0).start(("val", (1.0,)))
        assert [dst for dst, _ in out] == [0, 1, 2, 3]
        assert all(p is out[0][1] for _, p in out)

    def test_malformed_payload_ignored(self):
        st = BrachaState(4, 1, 0, 1)
        assert st.on_message(0, "junk") == []
        assert st.on_message(0, ("weird", 1, 2)) == []


class TestBrachaProtocol:
    def test_failure_free(self):
        res = run_bracha(4, 1, 0, ("x", 1.0))
        assert res.completed
        assert all(v == ("x", 1.0) for v in res.decisions.values())

    def test_silent_fault(self):
        res = run_bracha(
            4, 1, 0, "v", Adversary(faulty=[3], strategy=SilentStrategy())
        )
        assert res.completed
        assert all(res.decisions[p] == "v" for p in (0, 1, 2))

    def test_equivocating_sender_no_split_delivery(self):
        """An equivocating sender may prevent delivery, but can never make
        two correct processes deliver different values."""

        def equiv(tag, payload, dst, rng):
            phase, v = payload
            if phase == INIT:
                return (phase, "A" if dst < 2 else "B")
            return payload

        for seed in range(5):
            res = run_bracha(
                4, 1, 0, "V",
                Adversary(faulty=[0], strategy=EquivocateStrategy(equiv)),
                seed=seed, max_steps=20_000,
            )
            delivered = [
                v for p, v in res.decisions.items() if p != 0 and v is not None
            ]
            assert len(set(map(str, delivered))) <= 1

    def test_duplicates_harmless(self):
        res = run_bracha(
            4, 1, 0, "v", Adversary(faulty=[2], strategy=DuplicateStrategy(4))
        )
        assert all(res.decisions[p] == "v" for p in (0, 1, 3))

    def test_delay_policy_totality(self):
        """Totality under the starvation schedule: the victim still
        eventually delivers."""
        res = run_bracha(4, 1, 0, "v", seed=3)
        assert res.decisions[3] == "v"

    def test_larger_system_f2(self):
        res = run_bracha(
            7, 2, 0, "payload",
            Adversary(faulty=[5, 6], strategy=SilentStrategy()),
        )
        assert res.completed
        for p in range(5):
            assert res.decisions[p] == "payload"

    def test_fake_ready_injection_insufficient(self):
        """A single Byzantine process sending READY for a bogus value
        cannot reach the 2f+1 quorum."""
        def fake_ready(tag, payload, dst, rng):
            return (READY, "BOGUS")

        res = run_bracha(
            4, 1, 0, "v",
            Adversary(faulty=[2], strategy=EquivocateStrategy(fake_ready)),
            max_steps=50_000,
        )
        for p in (0, 1, 3):
            assert res.decisions.get(p) in ("v", None)
            assert res.decisions.get(p) != "BOGUS"
