"""Tests for the relaxed hulls H_k and H_{(δ,p)} and their lemmas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import distance as distance_mod
from repro.geometry.distance import distance_to_hull
from repro.geometry.relaxed import DeltaPHull, KRelaxedHull
from repro.obs.metrics import MetricsRegistry, use_registry


def random_points(seed: int, m: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(m, d))


class TestKRelaxedHull:
    def test_k_equals_d_is_convex_hull(self, rng):
        S = rng.normal(size=(5, 3))
        hk = KRelaxedHull(S, 3)
        w = rng.dirichlet(np.ones(5))
        assert hk.contains(S.T @ w)
        # a point outside the bounding box is outside H_d
        assert not hk.contains(S.max(axis=0) + 1.0)

    def test_k1_is_bounding_box(self, rng):
        S = rng.normal(size=(5, 3))
        hk = KRelaxedHull(S, 1)
        lo, hi = S.min(axis=0), S.max(axis=0)
        assert hk.contains((lo + hi) / 2)
        assert hk.contains(lo)  # corner of the box, usually NOT in H(S)
        assert not hk.contains(hi + 0.1)

    def test_k1_contains_box_corner_not_in_hull(self):
        """The relaxation is strict: H(S) ⊊ H_1(S) for a triangle."""
        S = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        h1 = KRelaxedHull(S, 1)
        corner = np.array([1.0, 1.0])  # in the box, not in the triangle
        assert h1.contains(corner)
        h2 = KRelaxedHull(S, 2)
        assert not h2.contains(corner)

    def test_input_points_always_members(self, rng):
        S = rng.normal(size=(6, 4))
        for k in range(1, 5):
            hk = KRelaxedHull(S, k)
            for s in S:
                assert hk.contains(s)

    def test_violation_zero_iff_member(self, rng):
        S = rng.normal(size=(5, 3))
        hk = KRelaxedHull(S, 2)
        inside = S.mean(axis=0)
        assert hk.violation(inside) < 1e-7
        outside = S.max(axis=0) + 2.0
        assert hk.violation(outside) > 0.1

    def test_cylinder_count(self):
        S = np.zeros((3, 4))
        assert len(KRelaxedHull(S, 2).cylinders) == 6  # C(4,2)

    def test_rejects_bad_k(self):
        S = np.zeros((3, 3))
        with pytest.raises(ValueError):
            KRelaxedHull(S, 0)
        with pytest.raises(ValueError):
            KRelaxedHull(S, 4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lemma1_containment_order(self, seed):
        """Lemma 1: H_i(S) ⊆ H_j(S) for i >= j — verified by sampling
        points in H_i and checking membership in H_j."""
        rng = np.random.default_rng(seed)
        d = 4
        S = rng.normal(size=(6, d))
        hulls = {k: KRelaxedHull(S, k) for k in (1, 2, 3, 4)}
        # convex-hull points are in every H_k
        w = rng.dirichlet(np.ones(6))
        x = S.T @ w
        for k in (1, 2, 3, 4):
            assert hulls[k].contains(x, tol=1e-7)
        # random probes: membership in H_i implies membership in H_j<=i
        probes = rng.normal(size=(10, d)) * 2
        for x in probes:
            member = {k: hulls[k].contains(x, tol=1e-9) for k in (1, 2, 3, 4)}
            for i in (2, 3, 4):
                for j in range(1, i):
                    if member[i]:
                        assert member[j], f"H_{i} member escaped H_{j}"


def _hull_and_probe(seed: int, d: int, grid: bool, inside: bool):
    """A random or integer-grid multiset and a point in or off its hull."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    if grid:
        S = rng.integers(-3, 4, size=(m, d)).astype(float)
    else:
        S = rng.normal(scale=float(rng.choice([0.5, 1.0, 10.0])), size=(m, d))
    if inside:
        return S, S.T @ rng.dirichlet(np.ones(m))
    return S, S.mean(axis=0) + rng.normal(scale=2.0, size=d)


class TestOneLPPerQuestion:
    """At p = inf, ``violation`` and ``contains`` ask all C(d, k) cylinders
    in one LP whose residuals share one bound; the answer is the largest
    per-cylinder distance."""

    @given(
        st.integers(0, 2**31 - 1), st.integers(2, 4), st.booleans(), st.booleans()
    )
    @settings(max_examples=60, deadline=None)
    def test_block_lp_is_max_over_cylinders(self, seed, d, grid, inside):
        S, u = _hull_and_probe(seed, d, grid, inside)
        scale = max(1.0, float(np.max(np.abs(S))))
        for k in range(1, d):
            hk = KRelaxedHull(S, k)
            per_cylinder = max(c.distance(u, math.inf) for c in hk.cylinders)
            assert abs(hk.violation(u, math.inf) - per_cylinder) <= 1e-9 * scale

    @given(
        st.integers(0, 2**31 - 1), st.integers(2, 4), st.booleans(), st.booleans()
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_agrees_with_every_cylinder(self, seed, d, grid, inside):
        S, u = _hull_and_probe(seed, d, grid, inside)
        for k in range(1, d):
            hk = KRelaxedHull(S, k)
            value = max(c.distance(u, math.inf) for c in hk.cylinders)
            for tol in (1e-9, value / 2, value * 2, value + 1e-6):
                if abs(value - tol) > 1e-12:
                    assert hk.contains(u, tol) == all(
                        c.contains(u, tol) for c in hk.cylinders
                    )

    @pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_one_solve_per_question(self, monkeypatch, d, k):
        calls = []
        real = distance_mod.solve_lp
        monkeypatch.setattr(
            distance_mod, "solve_lp", lambda *a: calls.append(1) or real(*a)
        )
        S = random_points(d, 6, d)
        hk = KRelaxedHull(S, k)
        u = S.max(axis=0) + 0.5
        hk.violation(u, math.inf)
        assert len(calls) == 1
        hk.contains(u)
        assert len(calls) == 2

    def test_counter_counts_every_cylinder(self):
        hk = KRelaxedHull(random_points(1, 5, 4), 2)
        reg = MetricsRegistry()
        with use_registry(reg):
            hk.violation(np.ones(4), math.inf)
        assert reg.counter_value("geometry.distance_to_hull.calls") == 6

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_k_equals_d_is_the_hull_lp(self, d):
        # Asked on the cylinder's own copy of S: the residual ``pts.T @ lam``
        # is recomputed by BLAS, whose last bit can follow the array's
        # memory alignment even when HiGHS returns the same weights.
        for seed in range(10):
            S, u = _hull_and_probe(seed, d, seed % 2 == 0, seed % 3 == 0)
            hk = KRelaxedHull(S, d)
            (cylinder,) = hk.cylinders
            want = distance_to_hull(cylinder.base_points, u, math.inf).distance
            assert hk.violation(u, math.inf).hex() == want.hex()

    def test_rejects_wrong_size(self):
        hk = KRelaxedHull(np.zeros((2, 3)), 2)
        with pytest.raises(ValueError, match="3-vector"):
            hk.contains(np.zeros(4))


class TestDeltaPHull:
    def test_zero_delta_is_hull(self, rng):
        S = rng.normal(size=(5, 3))
        h = DeltaPHull(S, 0.0, 2)
        assert h.contains(S.mean(axis=0))
        assert not h.contains(S.max(axis=0) + 1.0)

    def test_fattening_contains_nearby(self):
        S = np.array([[0.0, 0.0], [1.0, 0.0]])
        h = DeltaPHull(S, 0.5, 2)
        assert h.contains([0.5, 0.4])
        assert not h.contains([0.5, 0.6])

    def test_lemma6_monotone_in_delta(self, rng):
        """H_{(δ',p)} ⊆ H_{(δ,p)} for δ' <= δ."""
        S = rng.normal(size=(4, 3))
        probes = rng.normal(size=(15, 3)) * 2
        h_small = DeltaPHull(S, 0.2, 2)
        h_big = DeltaPHull(S, 0.7, 2)
        for x in probes:
            if h_small.contains(x):
                assert h_big.contains(x)

    def test_norm_containment(self, rng):
        """H_{(δ,p)} ⊆ H_{(δ,∞)} since ||·||_∞ <= ||·||_p (Theorem 5's
        transfer step)."""
        S = rng.normal(size=(4, 3))
        probes = rng.normal(size=(15, 3)) * 2
        h_p = DeltaPHull(S, 0.4, 2)
        h_inf = DeltaPHull(S, 0.4, math.inf)
        for x in probes:
            if h_p.contains(x):
                assert h_inf.contains(x)

    def test_violation_measures_excess(self):
        S = np.array([[0.0], [1.0]])
        h = DeltaPHull(S, 0.5, 2)
        assert h.violation(np.array([2.0])) == pytest.approx(0.5)
        assert h.violation(np.array([1.2])) == 0.0

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            DeltaPHull(np.zeros((2, 2)), -0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeltaPHull(np.zeros((0, 2)), 0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DeltaPHull(np.array([[np.inf, 0.0]]), 0.1)

    def test_single_vector_promoted(self):
        assert DeltaPHull(np.array([1.0, 2.0]), 0.1).S.shape == (1, 2)

    def test_repr(self):
        assert "DeltaPHull" in repr(DeltaPHull(np.zeros((2, 2)), 0.1))

    def test_contains_hull_always(self, rng):
        """H(S) ⊆ H_{(δ,p)}(S) for every δ >= 0 (§5.3 discussion)."""
        S = rng.normal(size=(5, 3))
        for delta in (0.0, 0.1, 2.0):
            h = DeltaPHull(S, delta, 2)
            w = rng.dirichlet(np.ones(5))
            assert h.contains(S.T @ w)
