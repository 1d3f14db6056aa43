"""Property tests for the counterexample shrinker.

The three contract properties from the subsystem design:

1. the shrunk scenario still violates the *same* invariant,
2. the shrunk scenario is never larger than the original in any of
   (n, d, f, fault-script length, schedule span),
3. shrinking is deterministic — same input, same output, same attempt
   count.
"""

from __future__ import annotations

import pytest

from repro.dst.explore import run_scenario
from repro.dst.scenarios import FaultClause, Scenario, ScheduleWindow, min_system_size
from repro.dst.shrink import scenario_size, shrink


def violating_scenario(**kw):
    """A sync scenario whose injected bug violates agreement on every run."""
    base = dict(
        algorithm="algo", n=6, d=3, f=1, seed=5, inject="split-brain",
        faults=(FaultClause(pid=5, kind="mutate", start=1, end=4, param=20.0),
                FaultClause(pid=5, kind="duplicate", start=4, param=2.0)),
    )
    base.update(kw)
    return Scenario(**base)


class TestShrinkContract:
    @pytest.fixture(scope="class")
    def result(self):
        return shrink(violating_scenario(), max_attempts=120)

    def test_shrunk_still_violates_same_invariant(self, result):
        assert result.invariant == "agreement"
        rerun = run_scenario(result.shrunk)
        assert "agreement" in rerun.violations

    def test_never_larger_on_any_axis(self, result):
        o, s = scenario_size(result.original), scenario_size(result.shrunk)
        assert all(b <= a for a, b in zip(o, s)), (o, s)

    def test_actually_smaller_here(self, result):
        # split-brain violates everywhere, so the shrinker must reach the
        # structural floor: minimal n, d=1, no fault script.
        assert scenario_size(result.shrunk) < scenario_size(result.original)
        assert result.shrunk.n == min_system_size("algo", result.shrunk.d, 1)
        assert result.shrunk.d == 1
        assert result.shrunk.faults == ()

    def test_deterministic(self, result):
        again = shrink(violating_scenario(), max_attempts=120)
        assert again.shrunk == result.shrunk
        assert again.attempts == result.attempts
        assert again.accepted == result.accepted

    def test_counters_consistent(self, result):
        assert 0 < result.accepted <= result.attempts <= 120


class TestShrinkEdges:
    def test_clean_scenario_rejected(self):
        clean = Scenario(algorithm="algo", n=4, d=2, f=1, seed=11)
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink(clean)

    def test_wrong_invariant_rejected(self):
        with pytest.raises(ValueError, match="does not violate"):
            shrink(violating_scenario(), invariant="termination")

    def test_attempt_budget_respected(self):
        result = shrink(violating_scenario(), max_attempts=3)
        assert result.attempts <= 3

    def test_named_invariant_shrinks_to_its_floor(self):
        # split-brain breaks agreement first and validity second: asked to
        # hold on to validity, the shrinker keeps that one violated down
        # to the structural floor.
        result = shrink(violating_scenario(), invariant="validity",
                        max_attempts=80)
        assert result.invariant == "validity"
        assert result.shrunk.d == 1 and result.shrunk.faults == ()
        assert "validity" in run_scenario(result.shrunk).violations

    def test_schedule_windows_get_dropped(self):
        # Async scenario with an incidental schedule window: split-brain
        # violates regardless, so shrinking must delete the window.
        s = Scenario(
            algorithm="averaging", n=4, d=2, f=1, seed=13, inject="split-brain",
            schedule=(ScheduleWindow(kind="delay", start=0, end=40, victims=(0,)),),
        )
        result = shrink(s, max_attempts=25)
        assert result.shrunk.schedule == ()
        assert scenario_size(result.shrunk) < scenario_size(s)


def test_scenario_size_ordering():
    a = Scenario(algorithm="algo", n=5, d=2, f=1, seed=0)
    b = Scenario(algorithm="algo", n=4, d=2, f=1, seed=0)
    assert scenario_size(b) < scenario_size(a)
    withsched = Scenario(
        algorithm="averaging", n=4, d=2, f=1, seed=0,
        schedule=(ScheduleWindow(kind="fifo", start=0, end=10),),
    )
    nosched = Scenario(algorithm="averaging", n=4, d=2, f=1, seed=0)
    assert scenario_size(nosched) < scenario_size(withsched)
