"""Tests for the scenario DSL: clauses, windows, strategies, policies."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dst.scenarios import (
    FAULT_KINDS,
    FaultClause,
    Scenario,
    ScenarioPolicy,
    ScheduleWindow,
    ScriptedStrategy,
    adversary_from_clauses,
    build_adversary,
    build_policy,
    min_system_size,
)
from repro.system.adversary import AdversaryView
from repro.system.messages import Message
from repro.system.network import Network


def view(round=None, n=4, f=1, seed=0):
    return AdversaryView(round=round, n=n, f=f, rng=np.random.default_rng(seed))


class TestFaultClause:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultClause(pid=0, kind="gossip")

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="bad window"):
            FaultClause(pid=0, start=5, end=5)

    def test_open_ended_window(self):
        c = FaultClause(pid=0, kind="silent", start=3)
        assert not c.active_at(2)
        assert c.active_at(3) and c.active_at(10_000)

    def test_finite_window_is_half_open(self):
        c = FaultClause(pid=0, kind="silent", start=2, end=5)
        assert [c.active_at(t) for t in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_round_trip(self):
        c = FaultClause(pid=2, kind="drop", start=1, end=9, param=0.25)
        assert FaultClause.from_dict(c.to_dict()) == c


class TestScheduleWindow:
    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError, match="partition"):
            ScheduleWindow(kind="partition", groups=((0, 1),))

    def test_delay_needs_victims(self):
        with pytest.raises(ValueError, match="victims"):
            ScheduleWindow(kind="delay", victims=())

    def test_round_trip(self):
        w = ScheduleWindow(kind="partition", start=5, end=80,
                           groups=((0, 1), (2, 3)))
        assert ScheduleWindow.from_dict(w.to_dict()) == w


class TestScenarioValidation:
    def test_min_system_size_exact_is_vaidya_garg_bound(self):
        assert min_system_size("exact", d=1, f=1) == 4      # 3f+1 binds
        assert min_system_size("exact", d=3, f=1) == 5      # (d+1)f+1 binds
        assert min_system_size("exact", d=2, f=2) == 7

    def test_min_system_size_is_the_sweep_grids_floor(self):
        # One table (exec.grid.min_trial_size over core.bounds), pinned
        # to the closed forms this module used to spell out itself.  (At
        # f = 0 the shared table says 2 where ("exact", d=1) said 1: one
        # process is not a consensus system.)
        for f in (1, 2, 3):
            for d in range(1, 9):
                assert min_system_size("exact", d, f) == max(
                    3 * f + 1, (d + 1) * f + 1
                )
                for algo in ("algo", "averaging", "k1"):
                    assert min_system_size(algo, d, f) == max(3 * f + 1, d + 1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            min_system_size("iterative", 2, 1)  # not an explorer algorithm

    def test_min_system_size_relaxed_needs_only_3f1(self):
        for algo in ("algo", "k1", "averaging"):
            assert min_system_size(algo, d=2, f=1) == 4
            assert min_system_size(algo, d=6, f=1) == 7     # d+1 floor

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError, match="needs n >="):
            Scenario(algorithm="exact", n=4, d=3, f=1, seed=0).validate()

    def test_schedule_on_sync_algorithm_rejected(self):
        s = Scenario(
            algorithm="algo", n=4, d=2, f=1, seed=0,
            schedule=(ScheduleWindow(kind="fifo"),),
        )
        with pytest.raises(ValueError, match="asynchronous"):
            s.validate()

    def test_fault_budget_enforced(self):
        s = Scenario(
            algorithm="algo", n=4, d=2, f=1, seed=0,
            faults=(FaultClause(pid=0), FaultClause(pid=1)),
        )
        with pytest.raises(ValueError, match="> f=1"):
            s.validate()

    def test_clause_pid_range_checked(self):
        s = Scenario(
            algorithm="algo", n=4, d=2, f=1, seed=0,
            faults=(FaultClause(pid=7),),
        )
        with pytest.raises(ValueError, match="out of range"):
            s.validate()

    def test_multiple_clauses_same_pid_is_one_corruption(self):
        s = Scenario(
            algorithm="algo", n=4, d=2, f=1, seed=0,
            faults=(FaultClause(pid=1, kind="mutate", end=3),
                    FaultClause(pid=1, kind="silent", start=3)),
        )
        s.validate()
        assert s.faulty_pids() == (1,)


class TestScenarioSerialisation:
    def scenario(self):
        return Scenario(
            algorithm="averaging", n=5, d=2, f=1, seed=77, input_scale=2.0,
            faults=(FaultClause(pid=4, kind="equivocate", param=9.0),),
            schedule=(ScheduleWindow(kind="partition", start=0, end=60,
                                     groups=((0, 1, 4), (2, 3))),
                      ScheduleWindow(kind="delay", start=60, end=90,
                                     victims=(2,))),
            inject=None,
        )

    def test_dict_round_trip(self):
        s = self.scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip(self):
        s = self.scenario()
        assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_inputs_deterministic_and_shaped(self):
        s = self.scenario()
        a, b = s.inputs(), s.inputs()
        assert a.shape == (5, 2)
        np.testing.assert_array_equal(a, b)

    def test_from_dict_validates(self):
        bad = self.scenario().to_dict()
        bad["n"] = 2
        with pytest.raises(ValueError):
            Scenario.from_dict(bad)

    def test_strategy_label(self):
        assert self.scenario().strategy_label() == "equivocate"
        assert Scenario(algorithm="algo", n=4, d=2, f=0, seed=0).strategy_label() == "honest"


class TestScriptedStrategy:
    def msg(self, dst=1):
        return Message(0, dst, "val", (1.0, 2.0))

    def test_honest_outside_every_window(self):
        strat = ScriptedStrategy([FaultClause(pid=0, kind="silent", start=2, end=4)])
        assert strat.transform(self.msg(), view(round=0)) == [self.msg()]
        assert strat.transform(self.msg(), view(round=5)) == [self.msg()]

    def test_crash_then_recover_window(self):
        strat = ScriptedStrategy([FaultClause(pid=0, kind="silent", start=2, end=4)])
        assert strat.transform(self.msg(), view(round=2)) == []
        assert strat.transform(self.msg(), view(round=3)) == []
        assert strat.transform(self.msg(), view(round=4)) == [self.msg()]

    def test_last_overlapping_clause_wins(self):
        strat = ScriptedStrategy([
            FaultClause(pid=0, kind="silent"),
            FaultClause(pid=0, kind="duplicate", start=1, param=3.0),
        ])
        assert strat.transform(self.msg(), view(round=0)) == []
        assert len(strat.transform(self.msg(), view(round=1))) == 3

    def test_mutate_perturbs_float_tuples_only(self):
        strat = ScriptedStrategy([FaultClause(pid=0, kind="mutate", param=5.0)])
        out = strat.transform(self.msg(), view(round=0))
        assert len(out) == 1
        assert out[0].payload != (1.0, 2.0)
        tagged = Message(0, 1, "ctl", "string-payload")
        assert strat.transform(tagged, view(round=0))[0].payload == "string-payload"

    def test_drop_probability_extremes(self):
        always = ScriptedStrategy([FaultClause(pid=0, kind="drop", param=1.0)])
        never = ScriptedStrategy([FaultClause(pid=0, kind="drop", param=0.0)])
        v = view(round=0)
        assert all(always.transform(self.msg(), v) == [] for _ in range(10))
        assert all(never.transform(self.msg(), v) == [self.msg()] for _ in range(10))

    def test_async_clock_advances_per_inject(self):
        # view.round is None in async runs: time = activation count,
        # bumped once per inject() (one inject per outbox flush).
        strat = ScriptedStrategy([FaultClause(pid=0, kind="silent", start=1, end=2)])
        v = view(round=None)
        # Activation 0: honest.
        assert strat.transform(self.msg(), v) == [self.msg()]
        strat.inject(0, v)
        # Activation 1: silent window.
        assert strat.transform(self.msg(), v) == []
        strat.inject(0, v)
        # Activation 2: recovered.
        assert strat.transform(self.msg(), v) == [self.msg()]


class TestAdversaryCompilation:
    def test_clauses_grouped_by_pid(self):
        adv = adversary_from_clauses([
            FaultClause(pid=2, kind="silent"),
            FaultClause(pid=0, kind="mutate", start=3),
            FaultClause(pid=2, kind="honest", start=5),
        ])
        assert set(adv.faulty) == {0, 2}
        assert len(adv.strategy_for(2).clauses) == 2

    def test_build_adversary_empty_script(self):
        s = Scenario(algorithm="algo", n=4, d=2, f=1, seed=0)
        assert not build_adversary(s).faulty


class TestScenarioPolicy:
    def submit_all_pairs(self, net, n):
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    net.submit(Message(src, dst, "t", None))

    def test_partition_window_blocks_cross_links(self):
        net = Network(4)
        self.submit_all_pairs(net, 4)
        pol = ScenarioPolicy([ScheduleWindow(kind="partition", start=0, end=100,
                                             groups=((0, 1), (2, 3)))])
        rng = np.random.default_rng(0)
        for _ in range(20):
            src, dst = pol.choose(net.pending_links(), net, rng)
            assert ({src, dst} <= {0, 1}) or ({src, dst} <= {2, 3})

    def test_partition_forced_open_when_starved(self):
        # Only cross-partition traffic pending: the window must yield or
        # the schedule would be illegal (some link has to deliver).
        net = Network(4)
        net.submit(Message(0, 3, "t", None))
        pol = ScenarioPolicy([ScheduleWindow(kind="partition", start=0, end=100,
                                             groups=((0, 1), (2, 3)))])
        link = pol.choose(net.pending_links(), net, np.random.default_rng(0))
        assert link == (0, 3)
        assert pol.starved >= 1

    def test_delay_window_starves_victims(self):
        net = Network(3)
        net.submit(Message(1, 0, "t", None))
        net.submit(Message(1, 2, "t", None))
        pol = ScenarioPolicy([ScheduleWindow(kind="delay", start=0, end=100,
                                             victims=(0,))])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert pol.choose(net.pending_links(), net, rng)[1] != 0

    def test_window_expires_by_step_count(self):
        net = Network(3)
        pol = ScenarioPolicy([ScheduleWindow(kind="delay", start=0, end=2,
                                             victims=(0,))])
        rng = np.random.default_rng(0)
        net.submit(Message(1, 2, "t", None))
        for _ in range(2):  # burn steps 0 and 1 inside the window
            pol.choose(net.pending_links(), net, rng)
        assert pol.step == 2
        net.pop((1, 2))
        net.submit(Message(1, 0, "t", None))
        # Window over: only the victim link is pending and it is chosen
        # without counting as starvation.
        before = pol.starved
        assert pol.choose(net.pending_links(), net, rng) == (1, 0)
        assert pol.starved == before

    def test_fifo_window_oldest_first(self):
        net = Network(3)
        net.submit(Message(1, 2, "t", "new", seq=7))
        net.submit(Message(0, 1, "t", "old", seq=1))
        pol = ScenarioPolicy([ScheduleWindow(kind="fifo", start=0, end=100)])
        assert pol.choose(net.pending_links(), net, np.random.default_rng(0)) == (0, 1)

    def test_build_policy_none_without_schedule(self):
        s = Scenario(algorithm="averaging", n=4, d=2, f=1, seed=0)
        assert build_policy(s) is None
        s2 = Scenario(algorithm="averaging", n=4, d=2, f=1, seed=0,
                      schedule=(ScheduleWindow(kind="fifo"),))
        assert isinstance(build_policy(s2), ScenarioPolicy)


def test_fault_kinds_frozen():
    # The corpus format depends on these names; adding is fine, renaming
    # breaks committed seeds.
    assert set(FAULT_KINDS) >= {"honest", "silent", "mutate", "equivocate",
                                "duplicate", "drop"}
