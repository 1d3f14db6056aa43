"""Meta-integration: the bound catalogue against actual executions.

For each solvable/unsolvable configuration near a bound, the
corresponding algorithm must succeed/raise exactly as
``repro.core.bounds`` predicts — the bounds are not just documentation,
they describe the code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunSpec, bounds, run
from repro.system import Adversary


class TestExactBVCBoundary:
    @pytest.mark.parametrize("d", [2, 3])
    def test_succeeds_at_bound(self, d, rng):
        n = bounds.exact_bvc_min_n(d, 1)
        inputs = rng.normal(size=(n, d))
        out = run(RunSpec(
            algorithm="exact", inputs=inputs, f=1,
            adversary=Adversary(faulty=[n - 1]),
        ))
        assert out.ok

    @pytest.mark.parametrize("d", [3, 4])
    def test_fails_below_bound(self, d, rng):
        n = bounds.exact_bvc_min_n(d, 1) - 1
        inputs = rng.normal(size=(n, d))
        with pytest.raises(ValueError):
            run(RunSpec(
                algorithm="exact", inputs=inputs, f=1,
                adversary=Adversary(faulty=[n - 1]),
            ))


class TestAlgoBoundary:
    def test_succeeds_at_lemma10_floor(self, rng):
        """ALGO works at n = 3f+1 regardless of d (the §9 point)."""
        n = bounds.input_dependent_min_n(1)
        for d in (3, 5):
            inputs = rng.normal(size=(n, d))
            out = run(RunSpec(
                algorithm="algo", inputs=inputs, f=1,
                adversary=Adversary(faulty=[n - 1]),
            ))
            assert out.ok, f"d={d}"

    def test_broadcast_needs_3f_plus_1_point_to_point(self):
        """Below 3f+1 even constructing the system fails (OM(f) bound)."""
        with pytest.raises(ValueError):
            run(RunSpec(algorithm="algo", inputs=np.zeros((3, 2)), f=1))

    def test_atomic_channel_goes_below(self, rng):
        inputs = rng.normal(size=(3, 2))
        out = run(RunSpec(
            algorithm="algo", inputs=inputs, f=1, adversary=Adversary(faulty=[2]),
            broadcast="atomic",
        ))
        assert out.ok


class TestKRelaxedBoundary:
    def test_k1_at_3f1_any_dim(self, rng):
        for d in (2, 6):
            inputs = rng.normal(size=(4, d))
            out = run(RunSpec(
                algorithm="krelaxed", inputs=inputs, f=1, k=1,
                adversary=Adversary(faulty=[0]),
            ))
            assert out.ok

    def test_k2_fails_below_its_bound(self, rng):
        d = 3
        n = bounds.k_relaxed_exact_min_n(d, 1, 2) - 1  # = 4
        inputs = rng.normal(size=(n, d))
        with pytest.raises(ValueError):
            run(RunSpec(
                algorithm="krelaxed", inputs=inputs, f=1, k=2,
                adversary=Adversary(faulty=[0]),
            ))

    def test_k2_succeeds_at_its_bound(self, rng):
        d = 3
        n = bounds.k_relaxed_exact_min_n(d, 1, 2)
        inputs = rng.normal(size=(n, d))
        out = run(RunSpec(
            algorithm="krelaxed", inputs=inputs, f=1, k=2,
            adversary=Adversary(faulty=[0]),
        ))
        assert out.ok


class TestAveragingBoundary:
    def test_zero_mode_at_bound(self, rng):
        d = 2
        n = bounds.approx_bvc_min_n(d, 1)
        inputs = rng.normal(size=(n, d))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, mode="zero", epsilon=5e-2,
            adversary=Adversary(faulty=[n - 1]), seed=1,
        ))
        assert out.ok

    def test_optimal_mode_below_bound(self, rng):
        d = 3
        n = d + 1  # < (d+2)f+1
        inputs = rng.normal(size=(n, d))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, epsilon=5e-2,
            adversary=Adversary(faulty=[n - 1]), seed=2,
        ))
        assert out.ok

    def test_fixed_mode_end_to_end(self, rng):
        """A generous constant δ also works end-to-end (sufficiency side
        of Theorem 6's regime: above δ*, the fixed relaxation is fine)."""
        import math

        d = 3
        inputs = rng.normal(size=(d + 1, d))
        out = run(RunSpec(
            algorithm="averaging", inputs=inputs, f=1, mode="fixed", delta=50.0,
            p=math.inf, epsilon=5e-2, adversary=Adversary(faulty=[d]), seed=3,
        ))
        assert out.report.agreement_ok
        assert out.report.termination_ok
