"""Tests for OM(f)/EIG Byzantine broadcast: validity + agreement under a
battery of adversaries."""

from __future__ import annotations

import pytest

from repro.exec.grid import build_adversary
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.adversary import (
    Adversary,
    CrashStrategy,
    DuplicateStrategy,
    EquivocateStrategy,
    MutateStrategy,
    SilentStrategy,
)
from repro.system.broadcast.om import EIGState
from repro.system.door import reject

from .broadcast_harness import counters, relays, run_eig


def correct_values(res):
    return [res.decisions[p] for p in sorted(res.correct_decisions)]


class TestEIGStateUnit:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            EIGState(3, 1, 0, 0)

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            EIGState(4, 1, 5, 0)

    def test_commander_round0_messages(self):
        st = EIGState(4, 1, 2, 2)
        msgs = relays(st, 0, "v")
        assert len(msgs) == 4
        assert all(payload == ((2,), "v") for _, payload in msgs)

    def test_non_commander_round0_silent(self):
        st = EIGState(4, 1, 2, 0)
        assert st.messages_for_round(0, None) == []

    def test_receive_validates_path(self):
        st = EIGState(4, 1, 0, 1)
        st.receive(1, 0, ((0,), "v"))  # valid
        assert st.tree == {(0,): "v"}
        st.receive(1, 2, ((0,), "w"))  # last hop mismatch: src=2 but path (0,)
        assert st.tree == {(0,): "v"}
        st.receive(1, 0, ((1, 1), "w"))  # repeated ids + wrong length
        st.receive(2, 3, ((0, 9), "w"))  # out of range... also last!=src
        assert st.tree == {(0,): "v"}
        # Repeated ids never reach a machine: the door drops them.
        assert reject("bc:0", ((0, 0), (1.0, 2.0)), 4, 2, 1) == "bc"

    def test_first_write_wins(self):
        st = EIGState(4, 1, 0, 1)
        st.receive(1, 0, ((0,), "v"))
        st.receive(1, 0, ((0,), "other"))
        assert st.tree[(0,)] == "v"

    def test_malformed_payload_ignored(self):
        # Dropped at the door, before the machine is handed them.
        assert reject("bc:0", "garbage", 4, 2, 1) == "bc"
        assert reject("bc:0", (None, (1.0, 2.0)), 4, 2, 1) == "bc"

    def test_round0_burst_shares_one_payload_object(self):
        # n destinations, one payload: the network sizes a burst once.
        out = relays(EIGState(4, 1, 2, 2), 0, ("val", (1.0,)))
        assert [dst for dst, _ in out] == [0, 1, 2, 3]
        assert all(p is out[0][1] for _, p in out)

    def test_relay_burst_shares_one_payload_per_path(self):
        st = EIGState(7, 2, 0, 3)
        st.receive(2, 1, ((0, 1), "a"))
        st.receive(2, 2, ((0, 2), "a"))
        st.receive(2, 3, ((0, 3), "own hop: not relayed"))
        out = relays(st, 2)
        assert [dst for dst, _ in out] == list(range(7)) * 2
        first, second = out[:7], out[7:]
        assert all(p is first[0][1] for _, p in first)
        assert all(p is second[0][1] for _, p in second)
        assert first[0][1] == ((0, 1, 3), "a")
        assert second[0][1] == ((0, 2, 3), "a")
        assert first[0][1] is not second[0][1]


V = (0.5, 1.5)

#: ``case -> (round, src, payload, verdict)`` at pid 3 of n = 7, f = 2,
#: commander 0, d = 2.  The verdict is the stored path, or who rejects:
#: the door (the shape) or the machine (the path against the round, the
#: commander and the last hop).  Accept / reject are those of the
#: per-message implementation the table was first run against, except
#: the last four rows: ids are exact ints, never normalised through int().
_RELAYS = {
    "valid round 1": (1, 0, ((0,), V), (0,)),
    "valid round 2": (2, 2, ((0, 2), V), (0, 2)),
    "valid round 3": (3, 2, ((0, 6, 2), V), (0, 6, 2)),
    "wrong length for the round": (2, 0, ((0,), V), "machine"),
    "wrong root": (2, 2, ((1, 2), V), "machine"),
    "wrong last hop": (2, 3, ((0, 2), V), "machine"),
    "repeated id": (3, 2, ((0, 2, 2), V), "door"),
    "id < 0": (3, 2, ((0, -1, 2), V), "door"),
    "id >= n": (3, 2, ((0, 7, 2), V), "door"),
    "empty path": (0, 0, ((), V), "door"),
    "non-iterable path": (1, 0, (5, V), "door"),
    "None path": (1, 0, (None, V), "door"),
    "non-int-able element": (2, 2, ((0, "x"), V), "door"),
    "None element": (2, 2, ((0, None), V), "door"),
    "payload is not a pair": (1, 0, "garbage", "door"),
    "payload is a triple": (1, 0, ((0,), V, "w"), "door"),
    "payload is None": (1, 0, None, "door"),
    "True as an id": (2, 1, ((0, True), V), "door"),
    "float as an id": (2, 1, ((0, 1.0), V), "door"),
    "str as an id": (2, 1, ((0, "1"), V), "door"),
    "list as a path": (2, 1, ([0, 1], V), "door"),
}


class TestEIGReceive:
    @pytest.mark.parametrize("case", sorted(_RELAYS))
    def test_malformed_relay_table(self, case):
        r, src, payload, verdict = _RELAYS[case]
        reg = MetricsRegistry()
        with use_registry(reg):
            st = EIGState(7, 2, 0, 3)
            dropped = reject("bc:0", payload, 7, 2, 2) is not None
            if not dropped:
                st.receive(r, src, payload)
            st.decide()
        stored = verdict if isinstance(verdict, tuple) else None
        assert dropped == (verdict == "door")
        assert st.tree == ({} if stored is None else {stored: V})
        assert reg.counter_value("bcast.om.relays_stored") == (stored is not None)
        assert reg.counter_value("bcast.om.relays_rejected") == (verdict == "machine")

    def test_duplicate_is_neither_stored_nor_rejected(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            st = EIGState(7, 2, 0, 3)
            st.receive(1, 0, ((0,), "v"))
            st.receive(1, 0, ((0,), "again"))
            st.decide()
        assert reg.counter_value("bcast.om.relays_stored") == 1
        assert reg.counter_value("bcast.om.relays_rejected") == 0

    def test_receipt_counters_are_published_once_per_round(self):
        """``receive`` counts on the state; the next send step (or
        ``decide``) publishes, and publishes each receipt once."""
        reg = MetricsRegistry()
        with use_registry(reg):
            st = EIGState(7, 2, 0, 3)
            st.receive(1, 0, ((0,), "v"))
            st.receive(1, 2, ((0,), "w"))  # wrong last hop
            assert "bcast.om.relays_stored" not in reg.snapshot()
            assert "bcast.om.relays_rejected" not in reg.snapshot()
            st.messages_for_round(1)
            assert reg.counter_value("bcast.om.relays_stored") == 1
            assert reg.counter_value("bcast.om.relays_rejected") == 1
            st.receive(2, 1, ((0, 1), "v"))
            st.messages_for_round(2)
            st.messages_for_round(3)  # nothing new: nothing published
            assert reg.counter_value("bcast.om.relays_stored") == 2
            st.receive(3, 2, ((0, 1, 2), "v"))
            st.decide()
            st.decide()
        assert reg.counter_value("bcast.om.relays_stored") == 3
        assert reg.counter_value("bcast.om.relays_rejected") == 1

    def test_silent_round_publishes_no_zero_counter(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            st = EIGState(4, 1, 0, 1)
            st.messages_for_round(0)
            st.messages_for_round(1)
            st.decide()
        assert list(reg.snapshot()) == ["bcast.om.decisions"]


class TestEIGFailureFree:
    @pytest.mark.parametrize("n,f", [(4, 1), (5, 1), (7, 2)])
    def test_validity(self, n, f):
        res = run_eig(n, f, commander=0, value=("v", 1.5))
        assert all(v == ("v", 1.5) for v in res.decisions.values())


class TestEIGFaultyCommander:
    def test_equivocating_commander_agreement(self):
        def equiv(tag, payload, dst, rng):
            path, v = payload
            return (path, f"lie-{dst}") if len(path) == 1 else (path, v)

        for seed in range(3):
            res = run_eig(
                4, 1, 0, "V",
                adversary=Adversary(faulty=[0], strategy=EquivocateStrategy(equiv)),
                seed=seed,
            )
            vals = correct_values(res)
            assert len(set(map(str, vals))) == 1, "agreement violated"

    def test_silent_commander_default(self):
        res = run_eig(
            4, 1, 0, "V", adversary=Adversary(faulty=[0], strategy=SilentStrategy())
        )
        assert all(v is None for v in correct_values(res))

    def test_crash_mid_broadcast_agreement(self):
        """Commander crashes sending round 0 to only some recipients —
        the classic hard case; agreement must still hold."""
        for recips in [{1}, {1, 2}, {2, 3}]:
            res = run_eig(
                4, 1, 0, "V",
                adversary=Adversary(
                    faulty=[0], strategy=CrashStrategy(0, partial_recipients=recips)
                ),
            )
            vals = correct_values(res)
            assert len(set(map(str, vals))) == 1


class TestEIGFaultyLieutenant:
    @pytest.mark.parametrize("strategy_factory", [
        lambda: SilentStrategy(),
        lambda: MutateStrategy(lambda tag, p, rng: (p[0], "FAKE")),
        lambda: EquivocateStrategy(lambda tag, p, dst, rng: (p[0], f"L{dst}")),
        lambda: DuplicateStrategy(3),
        lambda: CrashStrategy(1),
    ])
    def test_validity_with_correct_commander(self, strategy_factory):
        """Whatever a faulty lieutenant does, correct processes decide
        the correct commander's value."""
        res = run_eig(
            4, 1, 0, "TRUTH",
            adversary=Adversary(faulty=[2], strategy=strategy_factory()),
        )
        for p in (1, 3):
            assert res.decisions[p] == "TRUTH"

    def test_two_faulty_lieutenants_f2(self):
        res = run_eig(
            7, 2, 0, "TRUTH",
            adversary=Adversary(
                faulty=[3, 5],
                strategies={
                    3: MutateStrategy(lambda tag, p, rng: (p[0], "A")),
                    5: EquivocateStrategy(lambda tag, p, dst, rng: (p[0], f"B{dst}")),
                },
            ),
        )
        for p in (1, 2, 4, 6):
            assert res.decisions[p] == "TRUTH"

    def test_faulty_commander_and_lieutenant_f2(self):
        def equiv(tag, payload, dst, rng):
            path, v = payload
            return (path, dst % 2)

        res = run_eig(
            7, 2, 0, "V",
            adversary=Adversary(
                faulty=[0, 4], strategy=EquivocateStrategy(equiv)
            ),
        )
        vals = [res.decisions[p] for p in (1, 2, 3, 5, 6)]
        assert len(set(map(str, vals))) == 1


class TestEIGRunEndCounters:
    """Run-end ``bcast.om.*`` totals of one instance, n = 7, f = 2 —
    pinned on the per-message implementation."""

    @pytest.mark.parametrize("commander,adversary,expected", [
        (0, "silent", {"decisions": 7, "relays_sent": 182, "relays_stored": 119}),
        (6, "equivocate", {"decisions": 7, "relays_sent": 252, "relays_stored": 259}),
    ], ids=["silent-lieutenants", "equivocating-commander"])
    def test_counters(self, commander, adversary, expected):
        reg = MetricsRegistry()
        with use_registry(reg):
            run_eig(7, 2, commander, (1.5, -2.0),
                    adversary=build_adversary(adversary, 7, 2))
        assert counters(reg, "bcast.om.") == expected
