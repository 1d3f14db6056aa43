"""Tests for the explorer: verdicts, injections, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dst.explore import (
    ALGORITHM_NAMES,
    INJECTIONS,
    explore,
    run_scenario,
    sample_scenario,
    violation_from,
)
from repro.dst.corpus import decode_token
from repro.dst.scenarios import Scenario


def honest_scenario(algorithm="algo", **kw):
    base = dict(algorithm=algorithm, n=4, d=2, f=1, seed=11)
    base.update(kw)
    return Scenario(**base)


class TestRunScenario:
    def test_honest_run_is_clean(self):
        result = run_scenario(honest_scenario())
        assert result.ok
        assert result.violations == {}
        assert result.invariant is None

    def test_validates_before_running(self):
        bad = Scenario(algorithm="exact", n=4, d=3, f=1, seed=0)
        with pytest.raises(ValueError, match="needs n >="):
            run_scenario(bad)

    def test_unknown_injection_rejected(self):
        s = honest_scenario(inject="heisenbug")
        with pytest.raises(ValueError, match="unknown injection"):
            run_scenario(s)

    def test_split_brain_injection_breaks_agreement(self):
        # The offset decision is both far from its peers and far outside
        # the honest hull; agreement is still reported first.
        result = run_scenario(honest_scenario(inject="split-brain"))
        assert {"agreement", "validity"} <= set(result.violations)
        assert result.invariant == "agreement"

    def test_stale_echo_injection_breaks_agreement(self):
        result = run_scenario(honest_scenario(inject="stale-echo"))
        assert not result.ok

    def test_injection_does_not_touch_real_outcome(self):
        # Injections perturb the checked decision map, not the run: the
        # underlying ConsensusOutcome still reports the true (clean) run.
        result = run_scenario(honest_scenario(inject="split-brain"))
        assert result.outcome.report.ok


class TestViolation:
    def violation(self):
        result = run_scenario(honest_scenario(inject="split-brain"))
        return violation_from(result)

    def test_token_round_trips_scenario(self):
        v = self.violation()
        assert decode_token(v.token) == v.scenario

    def test_replay_command_embeds_token(self):
        v = self.violation()
        assert v.replay_command == f"python -m repro replay --token {v.token}"
        assert v.token in v.shrink_command

    def test_flags_reflect_violations(self):
        v = self.violation()
        assert v.invariant == "agreement"
        assert not v.agreement_ok
        assert v.termination_ok


class TestSampling:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sample_scenario(np.random.default_rng(0), "paxos")

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_samples_are_valid(self, algorithm):
        rng = np.random.default_rng(42)
        for _ in range(25):
            s = sample_scenario(rng, algorithm)
            s.validate()  # must not raise
            assert s.algorithm == algorithm

    def test_schedule_only_for_averaging(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert sample_scenario(rng, "algo").schedule == ()
        saw_schedule = any(
            sample_scenario(rng, "averaging").schedule for _ in range(25)
        )
        assert saw_schedule


class TestExplore:
    def test_clean_on_honest_configs(self):
        # A miniature of the CI soak / acceptance sweep: no algorithm
        # ever breaks an invariant under the sampled (in-model) faults.
        for algorithm in ALGORITHM_NAMES:
            trials = 2 if algorithm == "averaging" else 5
            assert explore(algorithm, trials=trials, seed=7) == [], algorithm

    def test_deterministic_in_seed(self):
        a = explore("k1", trials=4, seed=9, inject="split-brain")
        b = explore("k1", trials=4, seed=9, inject="split-brain")
        assert [v.token for v in a] == [v.token for v in b]
        assert len(a) == 4

    def test_parallel_sweep_is_the_serial_sweep(self):
        serial = explore("k1", trials=7, seed=9, inject="split-brain")
        parallel = explore("k1", trials=7, seed=9, inject="split-brain",
                           workers=2)
        assert len(serial) == 7
        assert parallel == serial  # same violations, in trial order

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            explore("algo", trials=0)

    def test_violation_token_replays_standalone(self):
        v = explore("algo", trials=1, seed=3, inject="split-brain")[0]
        replayed = run_scenario(decode_token(v.token))
        assert v.invariant in replayed.violations


def test_injection_registry_names():
    assert {"split-brain", "stale-echo"} <= set(INJECTIONS)
