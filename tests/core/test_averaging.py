"""Tests for Relaxed Verified Averaging (paper §10)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.averaging import (
    VerifiedAveragingProcess,
    contraction_factor,
    rounds_for_epsilon,
)
from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.system.adversary import Adversary, MutateStrategy, SilentStrategy
from repro.system.scheduler import DelayPolicy, FifoPolicy


class TestContractionMath:
    def test_factor(self):
        assert contraction_factor(4, 1) == pytest.approx(1 / 3)
        assert contraction_factor(7, 2) == pytest.approx(2 / 5)
        assert contraction_factor(5, 0) == 0.0

    def test_factor_below_half_at_3f1(self):
        for f in range(1, 6):
            assert contraction_factor(3 * f + 1, f) < 0.5

    def test_rounds_monotone_in_epsilon(self):
        r_loose = rounds_for_epsilon(10.0, 4, 1, 1.0)
        r_tight = rounds_for_epsilon(10.0, 4, 1, 1e-6)
        assert r_tight > r_loose >= 2

    def test_rounds_trivial_when_range_small(self):
        assert rounds_for_epsilon(0.001, 4, 1, 0.01) == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            rounds_for_epsilon(1.0, 4, 1, 0.0)


class TestProcessValidation:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            VerifiedAveragingProcess(4, 1, 0, np.zeros(2), num_rounds=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            VerifiedAveragingProcess(4, 1, 0, np.zeros(2), num_rounds=2, mode="bogus")


class TestRVAEndToEnd:
    def test_failure_free(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, epsilon=1e-2, seed=0,
        ))
        assert out.ok
        assert out.report.agreement_diameter <= 1e-2

    def test_silent_fault(self, rng):
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[3], strategy=SilentStrategy()), epsilon=1e-2,
            seed=1,
        ))
        assert out.ok

    def test_honest_faulty_below_classic_bound(self, rng):
        """The paper's point: n = d+1 < (d+2)f+1 works with input-
        dependent δ."""
        d = 3
        inputs = rng.normal(size=(d + 1, d))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[0]), epsilon=1e-2, seed=2,
        ))
        assert out.ok
        assert out.delta_used is not None and out.delta_used > 0

    def test_delta_honours_theorem15(self, rng):
        """δ used at round 1 respects κ(n-f, f, d, p)·max-edge over the
        honest inputs (Theorem 15) when the faulty input stays inside the
        honest spread."""
        from repro.core.bounds import theorem15_bound

        # Theorem 15 needs n-f in the synchronous κ range (n-f >= 3f+1):
        # the smallest covered async configuration is d=3, f=1, n=5.
        d, n, f = 3, 5, 1
        for seed in range(5):
            r = np.random.default_rng(seed)
            honest = r.normal(size=(n - f, d))
            # faulty input = mean of honest inputs (inside their hull)
            faulty_row = honest.mean(axis=0, keepdims=True)
            inputs = np.vstack([honest, faulty_row])
            out = run(RunSpec(
                algorithm="averaging", inputs=inputs, f=f,
                adversary=Adversary(faulty=[n - 1]), epsilon=1e-2, seed=seed,
            ))
            assert out.ok
            bound = theorem15_bound(honest, n, f, d)
            assert out.delta_used < bound + 1e-9, f"seed={seed}"

    def test_lying_round0_value_is_just_an_input(self, rng):
        """A faulty process broadcasting a wild round-0 value cannot break
        validity (its value is treated as its input; the selection
        discounts any f inputs)."""

        def wild(tag, payload, rng_):
            phase, v = payload
            if phase == "init" and isinstance(v, tuple) and v and v[0] == "val":
                return (phase, ("val", tuple(100.0 for _ in v[1])))
            return payload

        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[2], strategy=MutateStrategy(wild)),
            epsilon=1e-2, seed=3,
        ))
        assert out.report.agreement_ok
        assert out.report.validity_ok

    def test_adversarial_refs_still_valid(self, rng):
        """A faulty process choosing skewed reference sets stays verified
        — that freedom is allowed, so validity must still hold."""

        def skew_refs(tag, payload, rng_):
            phase, v = payload
            if (
                phase == "init"
                and isinstance(v, tuple)
                and len(v) == 2
                and v[0] == "refs"
            ):
                return (phase, ("refs", tuple(sorted(v[1], reverse=True))))
            return payload

        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[1], strategy=MutateStrategy(skew_refs)),
            epsilon=1e-2, seed=4,
        ))
        assert out.ok

    def test_malformed_refs_ignored(self, rng):
        """Garbage reference lists make the claim unverifiable; correct
        processes simply never use it."""

        def garbage(tag, payload, rng_):
            phase, v = payload
            if (
                phase == "init"
                and isinstance(v, tuple)
                and len(v) == 2
                and v[0] == "refs"
            ):
                return (phase, ("refs", (0, 0, 99)))
            return payload

        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[2], strategy=MutateStrategy(garbage)),
            epsilon=1e-2, seed=5,
        ))
        assert out.ok

    def test_delay_policy(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[3], strategy=SilentStrategy()), epsilon=1e-2,
            policy=DelayPolicy(victims=[1]), seed=6,
        ))
        assert out.ok

    def test_fifo_policy(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, epsilon=1e-2,
            policy=FifoPolicy(), seed=7,
        ))
        assert out.ok

    def test_zero_mode_needs_enough_processes(self, rng):
        """mode='zero' at n = (d+2)f+1 works (the classic bound)."""
        d = 2
        inputs = rng.normal(size=((d + 2) + 1, d))  # n=5
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, mode="zero", epsilon=1e-2,
            seed=8, adversary=Adversary(faulty=[4], strategy=SilentStrategy()),
        ))
        assert out.ok
        assert out.delta_used == 0.0

    def test_epsilon_tightness_sweep(self, rng):
        """Tighter ε still achieved (more rounds)."""
        inputs = rng.normal(size=(4, 2))
        for eps in (1e-1, 1e-3):
            out = run(RunSpec(
                algorithm="averaging", inputs=inputs, f=1, epsilon=eps, seed=9,
            ))
            assert out.report.agreement_diameter <= eps

    def test_explicit_num_rounds(self, rng):
        inputs = rng.normal(size=(4, 2))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, rounds=3, epsilon=10.0,
            seed=10,
        ))
        assert out.report.termination_ok

    def test_decisions_are_convex_combos_of_round1(self, rng):
        """Validity structure: every decision lies in the fattened hull of
        honest inputs with the δ the processes used."""
        from repro.geometry.relaxed import DeltaPHull

        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1,
            adversary=Adversary(faulty=[2]), epsilon=1e-2, seed=11,
        ))
        hull = DeltaPHull(out.honest_inputs, out.delta_used + 1e-9, 2)
        for dec in out.decisions.values():
            assert hull.contains(dec, tol=1e-6)
