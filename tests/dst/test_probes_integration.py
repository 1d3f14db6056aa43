"""Probes riding DST scenarios: injections must trip the matching probe."""

from __future__ import annotations

from repro.dst import replay
from repro.dst.explore import run_scenario
from repro.dst.scenarios import Scenario


class TestScenarioProbes:
    def test_honest_scenario_clean(self):
        result = run_scenario(
            Scenario(algorithm="algo", n=6, d=2, f=1, seed=7),
            probes=("all",),
        )
        assert result.ok
        assert result.probe_violations == 0
        assert {r.name for r in result.probe_reports} == {
            "validity", "agreement", "broadcast",
        }

    def test_split_brain_trips_agreement_and_validity(self):
        result = run_scenario(
            Scenario(algorithm="algo", n=6, d=2, f=1, seed=3,
                     inject="split-brain"),
            probes=("all",),
        )
        assert not result.ok and "agreement" in result.violations
        tripped = {r.name for r in result.probe_reports if r.violations}
        assert "agreement" in tripped
        assert "validity" in tripped

    def test_equivocation_strategy_still_safe(self):
        # an equivocating Byzantine sender is within the fault model: the
        # protocol masks it, so the probes must stay silent (no false
        # positives under real — tolerated — faults)
        from repro.dst.scenarios import FaultClause

        result = run_scenario(
            Scenario(algorithm="algo", n=6, d=2, f=1, seed=5,
                     faults=(FaultClause(pid=0, kind="equivocate"),)),
            probes=("all",),
        )
        assert result.ok
        assert result.probe_violations == 0

    def test_no_probes_yields_no_reports(self):
        result = run_scenario(Scenario(algorithm="algo", n=6, d=2, f=1, seed=7))
        assert result.probe_reports == ()
        assert result.probe_violations == 0


class TestReplayProbes:
    def test_replay_forwards_probes(self):
        report = replay(
            Scenario(algorithm="algo", n=6, d=2, f=1, seed=3,
                     inject="split-brain"),
            probes=("all",),
        )
        assert report.result.probe_violations >= 1
        done = next(e for e in report.tracer.events
                    if e.name == "dst.replay.done")
        assert done.fields["probe_violations"] == report.result.probe_violations
