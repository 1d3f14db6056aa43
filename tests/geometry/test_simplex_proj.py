"""Tests for Euclidean projection onto the probability simplex."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.simplex_proj import project_to_simplex

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


class TestProjectToSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-12)

    def test_uniform_from_equal(self):
        np.testing.assert_allclose(
            project_to_simplex(np.array([7.0, 7.0, 7.0, 7.0])), 0.25
        )

    def test_negative_clipped(self):
        out = project_to_simplex(np.array([-10.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_single_element(self):
        np.testing.assert_allclose(project_to_simplex(np.array([3.0])), [1.0])

    def test_custom_radius(self):
        out = project_to_simplex(np.array([5.0, 1.0]), radius=2.0)
        assert out.sum() == pytest.approx(2.0)
        assert np.all(out >= 0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([1.0]), radius=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))

    @given(arrays(float, st.integers(1, 12), elements=finite))
    @settings(max_examples=100, deadline=None)
    def test_feasibility(self, v):
        out = project_to_simplex(v)
        assert np.all(out >= -1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    @given(arrays(float, st.integers(2, 10), elements=finite))
    @settings(max_examples=100, deadline=None)
    def test_optimality_vs_random_feasible(self, v):
        """The projection is at least as close as random feasible points."""
        out = project_to_simplex(v)
        d_opt = np.linalg.norm(out - v)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(v.size))
            assert d_opt <= np.linalg.norm(w - v) + 1e-9

    @given(arrays(float, st.integers(2, 10), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_variational_inequality(self, v):
        """KKT: <v - proj, w - proj> <= 0 for all feasible w (vertices
        suffice by linearity)."""
        out = project_to_simplex(v)
        g = v - out
        for j in range(v.size):
            e = np.zeros(v.size)
            e[j] = 1.0
            assert g @ (e - out) <= 1e-8

