"""Tests for the high-level runner API surface."""

from __future__ import annotations

import numpy as np

from repro.core.runner import ConsensusOutcome, run
from repro.core.runspec import RunSpec
from repro.system.adversary import Adversary


class TestRunnerSurface:
    def test_outcome_fields(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=1))
        assert isinstance(out, ConsensusOutcome)
        assert out.honest_inputs.shape == (4, 2)
        assert out.result.completed
        assert out.ok == out.report.ok

    def test_honest_inputs_exclude_faulty_rows(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="exact", inputs=inputs, f=1, adversary=Adversary(faulty=[1]),
        ))
        assert out.honest_inputs.shape == (3, 2)
        np.testing.assert_array_equal(out.honest_inputs, inputs[[0, 2, 3]])

    def test_decisions_only_correct(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="exact", inputs=inputs, f=1, adversary=Adversary(faulty=[0]),
        ))
        assert 0 not in out.decisions
        assert set(out.decisions) == {1, 2, 3}

    def test_scalar_runner(self, rng):
        out = run(RunSpec(algorithm="scalar", inputs=rng.normal(size=(4, 1)), f=1))
        assert out.ok

    def test_k_relaxed_runner_k1(self, rng):
        out = run(RunSpec(
            algorithm="krelaxed", inputs=rng.normal(size=(4, 4)), f=1, k=1,
        ))
        assert out.ok

    def test_averaging_runner_defaults(self, rng):
        out = run(RunSpec(
            algorithm="averaging", inputs=rng.normal(size=(4, 2)), f=1, epsilon=0.05,
            seed=3,
        ))
        assert out.ok
        assert out.delta_used is not None

    def test_seed_controls_schedule(self, rng):
        inputs = rng.normal(size=(4, 2))
        a = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, epsilon=0.05, seed=1,
        ))
        b = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, epsilon=0.05, seed=1,
        ))
        assert a.result.rounds == b.result.rounds

    def test_f_zero_runs(self, rng):
        inputs = rng.normal(size=(3, 2))
        out = run(RunSpec(algorithm="exact", inputs=inputs, f=0))
        assert out.ok

    def test_adversary_none_default(self, rng):
        out = run(RunSpec(algorithm="exact", inputs=rng.normal(size=(4, 2)), f=1))
        assert out.ok and len(out.decisions) == 4
