"""Tests for the relaxed hulls H_k and H_{(δ,p)} and their lemmas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.relaxed import DeltaPHull, KRelaxedHull


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
