"""Tests for Bracha asynchronous reliable broadcast."""

from __future__ import annotations

import copy
import pickle
import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.adversary import (
    Adversary,
    DuplicateStrategy,
    EquivocateStrategy,
    SilentStrategy,
)
from repro.system.broadcast import bracha
from repro.system.broadcast.bracha import ECHO, INIT, READY, BrachaState
from repro.system.messages import canonical_bytes

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


def fresh(value):
    """An equal value sharing no object with ``value`` — what every frame
    decodes to on the live path, and what an adversary rewrite builds."""
    twin = pickle.loads(pickle.dumps(value))
    assert twin == value and twin is not value
    return twin


@pytest.fixture
def keyed(monkeypatch):
    """The values ``canonical_bytes`` was asked to serialise, in order,
    starting from an empty shared key memo."""
    monkeypatch.setattr(bracha, "_KEYS", {})
    calls = []

    def spy(value):
        calls.append(value)
        return canonical_bytes(value)

    monkeypatch.setattr(bracha, "canonical_bytes", spy)
    return calls


class TestVoteKey:
    """A vote is keyed by the object it carries: serialised when any
    instance first sees that object, looked up by identity afterwards."""

    VALUE = ("val", (0.5, -1.25))

    def test_one_object_is_serialised_once(self, keyed):
        # The simulator's shape: INIT, n ECHOs and n READYs of one
        # broadcast carry one value object by reference.
        state = BrachaState(4, 1, 0, 1)
        state.on_message(0, (INIT, self.VALUE))
        for phase in (ECHO, READY):
            for src in range(4):
                state.on_message(src, (phase, self.VALUE))
        assert len(keyed) == 1
        assert state.delivered and state.delivered_value == self.VALUE

    def test_one_object_is_serialised_once_per_run(self, keyed):
        # Every receiver of one broadcast keys its copies from one entry.
        states = [BrachaState(4, 1, 0, pid) for pid in range(4)]
        for state in states:
            state.on_message(0, (INIT, self.VALUE))
            for src in range(4):
                state.on_message(src, (ECHO, self.VALUE))
        assert len(keyed) == 1
        assert all(s._readied for s in states)

    def test_equal_but_distinct_objects_vote_together(self, keyed):
        # The live shape: every vote is a freshly decoded tuple.  Each
        # is serialised (today's path, today's bytes) and they all land
        # under one key.
        state = BrachaState(4, 1, 0, 1)
        votes = [fresh(self.VALUE) for _ in range(3)]
        assert state.on_message(0, (ECHO, votes[0])) == []
        assert state.on_message(2, (ECHO, votes[1])) == []
        out = state.on_message(3, (ECHO, votes[2]))
        assert [payload for _, payload in out] == [(READY, self.VALUE)] * 4
        assert len(keyed) == 3
        assert list(state._echoes) == [canonical_bytes(self.VALUE)]

    def test_equivocated_values_never_share_a_key(self, keyed):
        # Two values from an equivocating sender, delivered alternately
        # (so the remembered object changes on every message): each keeps
        # its own voters and neither reaches the echo quorum of 3.
        state = BrachaState(4, 1, 0, 1)
        a, b = ("val", (1.0, 2.0)), ("val", (1.0, 2.5))
        for src, value in ((0, a), (1, b), (2, a), (3, b), (0, a), (1, b)):
            assert state.on_message(src, (ECHO, value)) == []
        assert state._echoes == {
            canonical_bytes(a): {0, 2},
            canonical_bytes(b): {1, 3},
        }
        assert not state._readied

    def test_same_object_from_same_src_counts_once(self):
        state = BrachaState(4, 1, 0, 1)
        for _ in range(5):
            assert state.on_message(2, (ECHO, self.VALUE)) == []
        assert state._echoes == {canonical_bytes(self.VALUE): {2}}

    def test_mutable_value_is_rekeyed_after_in_place_mutation(self, keyed):
        # A list can change between two deliveries of the same object:
        # it is never remembered, so the second delivery is serialised
        # again and votes under the key of what the list holds *now*.
        state = BrachaState(4, 1, 0, 1)
        live = ["val", [1.0, 2.0]]
        state.on_message(0, (ECHO, live))
        before = canonical_bytes(live)
        live[1].append(3.0)
        state.on_message(2, (ECHO, live))
        assert len(keyed) == 2
        assert state._echoes == {before: {0}, canonical_bytes(live): {2}}
        assert state._values[before] == ["val", [1.0, 2.0]]

    def test_mutable_part_inside_a_tuple_is_not_remembered(self, keyed):
        state = BrachaState(4, 1, 0, 1)
        live = ("val", [1.0])
        state.on_message(0, (ECHO, live))
        live[1][0] = 9.0
        state.on_message(2, (ECHO, live))
        assert len(keyed) == 2 and len(state._echoes) == 2

    def test_phase_counters_are_published_by_the_host(self):
        with use_registry(MetricsRegistry()) as reg:
            state = BrachaState(4, 1, 0, 1)
            state.on_message(0, (INIT, self.VALUE))
            for src in range(4):
                state.on_message(src, (ECHO, self.VALUE))
            state.on_message(2, (READY, self.VALUE))
            assert reg.counter_value("bcast.bracha.echo") == 0
            state.publish_counts()
            state.publish_counts()  # nothing new: adds nothing
        assert reg.counter_value("bcast.bracha.init") == 1
        assert reg.counter_value("bcast.bracha.echo") == 4
        assert reg.counter_value("bcast.bracha.ready") == 1


class TestHostileValues:
    """Whatever a Byzantine peer puts in a phase message is counted and
    dropped: ``on_message`` never raises on content.

    No honest payload contains a dict, a lock or a non-string phase (the
    FLOW001 sent-kind inventory: ``("val", floats)`` / ``("refs", ints)``),
    so none of this moves an honest key or a pinned digest.
    """

    def handle(self, payload):
        with use_registry(MetricsRegistry()) as reg:
            state = BrachaState(4, 1, 0, 1)
            out = state.on_message(2, payload)
        return state, out, reg.counter_value("bcast.bracha.malformed")

    def test_mixed_type_dict_keys_do_not_crash_the_handler(self):
        # Was: TypeError: '<' not supported between 'str' and 'int' —
        # the value was serialised (dict items sorted with ``<``) before
        # the phase was even looked at.  A dict is picklable, so this
        # crosses the live wire too.
        value = {1: "a", "b": 2}
        state, out, malformed = self.handle((ECHO, value))
        assert out == [] and malformed == 0
        assert state._echoes == {canonical_bytes({"b": 2, 1: "a"}): {2}}

    def test_unknown_phase_is_not_keyed(self, keyed):
        state, out, malformed = self.handle(("bogus", {1: "a", "b": 2}))
        assert out == [] and malformed == 0 and keyed == []
        assert not state._echoes and not state._readys

    @pytest.mark.parametrize("phase", [INIT, ECHO, READY])
    def test_unserialisable_value_is_malformed(self, phase):
        for value in (threading.Lock(), lambda: None, (x for x in ())):
            state, out, malformed = self.handle((phase, ("val", value)))
            assert out == [] and malformed == 1
            assert not state._echoed and not state._echoes and not state._readys

    def test_bottomless_value_is_malformed(self):
        value = ()
        for _ in range(20_000):
            value = (value,)
        state, out, malformed = self.handle((ECHO, value))
        assert out == [] and malformed == 1 and not state._echoes

    @pytest.mark.parametrize(
        "phase", [np.array([1, 2]), ["echo"], {"echo": 1}, 7, None, b"echo"]
    )
    def test_non_string_phase_is_ignored(self, phase):
        state, out, malformed = self.handle((phase, "v"))
        assert out == [] and not state._echoes and not state._readys


class _RekeyingBracha(BrachaState):
    """The reference: serialises the value of every message (each one
    sees an empty key memo of its own)."""

    def on_message(self, src, payload):
        shared, bracha._KEYS = bracha._KEYS, {}
        try:
            return super().on_message(src, payload)
        finally:
            bracha._KEYS = shared


#: Identical objects (each index names one object, delivered again and
#: again), equal ones (0 == 1 == 2, 4 == 5), distinct ones, and two
#: mutable lists the machine below changes in place between deliveries.
_POOL = [
    ("val", (1.0, 2.0)),
    fresh(("val", (1.0, 2.0))),
    ["val", [1.0, 2.0]],
    ("val", (1.0, 2.5)),
    ("refs", (0, 1, 2)),
    fresh(("refs", (0, 1, 2))),
    ["refs", [0, 1]],
    None,
    {1: "a", "b": 2},
]


@settings(max_examples=150, stateful_step_count=40, deadline=None)
class VoteKeyMachine(RuleBasedStateMachine):
    """One random message sequence into a memoising ``BrachaState`` and
    into the reference: same outputs, votes, delivery and counters."""

    def __init__(self):
        super().__init__()
        # Fresh lists per example; the immutable entries are shared.
        self.pool = copy.deepcopy(_POOL)
        self.memo = BrachaState(4, 1, 0, 1)
        self.reference = _RekeyingBracha(4, 1, 0, 1)

    @rule(
        src=st.integers(0, 3),
        phase=st.sampled_from([INIT, ECHO, READY, "bogus"]),
        index=st.integers(0, len(_POOL) - 1),
    )
    def deliver(self, src, phase, index):
        payload = (phase, self.pool[index])
        assert self.memo.on_message(src, payload) == self.reference.on_message(
            src, payload
        )

    @rule(which=st.sampled_from([2, 6]), item=st.integers(0, 3))
    def mutate_in_place(self, which, item):
        self.pool[which][1].append(item)

    @invariant()
    def same_state(self):
        memo, reference = self.memo, self.reference
        assert memo._echoes == reference._echoes
        assert memo._readys == reference._readys
        assert memo._values == reference._values
        assert memo._seen == reference._seen
        assert (memo._echoed, memo._readied) == (reference._echoed, reference._readied)
        assert memo.delivered == reference.delivered
        assert memo.delivered_value == reference.delivered_value


TestVoteKeyMachine = VoteKeyMachine.TestCase


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
