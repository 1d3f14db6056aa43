"""Tests for the reusable HullSystem LP builder."""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import in_hull
from repro.geometry import intersections
from repro.geometry.intersections import HullSystem, f_subsets

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestHullSystem:
    def test_single_hull_feasible(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        assert sys_.feasible()
        pt = sys_.lexicographic_point()
        assert in_hull(SQ, pt, tol=1e-7)

    def test_lexicographic_minimum(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        pt = sys_.lexicographic_point()
        # lexicographic min of the unit square is its (0,0) corner
        np.testing.assert_allclose(pt, [0.0, 0.0], atol=1e-6)

    def test_infeasible_system(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        sys_.add_hull_constraint(SQ + 10.0)
        assert not sys_.feasible()
        assert sys_.lexicographic_point() is None

    def test_coords_subset_constraint(self):
        """Cylinder-style constraint on one coordinate only."""
        sys_ = HullSystem(3)
        sys_.add_hull_constraint(np.array([[2.0], [3.0]]), coords=[1])
        pt = sys_.lexicographic_point()
        assert pt is not None
        assert 2.0 - 1e-6 <= pt[1] <= 3.0 + 1e-6

    def test_fattened_linf_constraint(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(np.array([[5.0, 5.0]]), delta=1.0, p=math.inf)
        pt = sys_.lexicographic_point()
        assert pt is not None
        assert np.max(np.abs(pt - 5.0)) <= 1.0 + 1e-6

    def test_fattened_l1_constraint(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(np.array([[5.0, 5.0]]), delta=1.0, p=1)
        pt = sys_.lexicographic_point()
        assert pt is not None
        assert np.sum(np.abs(pt - 5.0)) <= 1.0 + 1e-6

    def test_rejects_bad_delta_p_combo(self):
        sys_ = HullSystem(2)
        with pytest.raises(ValueError):
            sys_.add_hull_constraint(SQ, delta=0.5, p=2)  # nonlinear

    def test_rejects_negative_delta(self):
        sys_ = HullSystem(2)
        with pytest.raises(ValueError):
            sys_.add_hull_constraint(SQ, delta=-1.0)

    def test_coords_dim_mismatch(self):
        sys_ = HullSystem(3)
        with pytest.raises(ValueError):
            sys_.add_hull_constraint(SQ, coords=[0])  # 1 coord, 2-D points


def _parent_lexicographic_point(system: HullSystem):
    """``lexicographic_point`` as it was before the pins became local to
    the call: a feasibility solve, then d minimisations that each append
    their pin to ``rows_ub`` — run here on a copy, through ``solve``."""
    system = copy.deepcopy(system)
    sol = system.solve()
    if sol is None:
        return None
    for j in range(system.d):
        obj = np.zeros(system.d)
        obj[j] = 1.0
        sol_j = system.solve(obj)
        if sol_j is None:
            break
        system.rows_ub.append((np.array([j]), np.array([1.0]), sol_j[j] + 1e-8))
        sol = sol_j
    return sol[: system.d]


def _subset_system(rng, n, d, f, **constraint) -> HullSystem:
    Y = rng.normal(scale=3.0, size=(n, d))
    system = HullSystem(d)
    for T in f_subsets(n, f):
        system.add_hull_constraint(Y[list(T)], **constraint)
    return system


class TestLexicographicPointLeavesTheSystemAlone:
    def _two_hulls(self) -> HullSystem:
        system = HullSystem(3)
        cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        system.add_hull_constraint(cube)
        system.add_hull_constraint(cube * 2.0 - 0.5)
        return system

    def test_rows_do_not_grow_and_calls_repeat(self):
        # Regression: every call appended its d pin rows to rows_ub
        # (0 -> 3 -> 6 here) and never removed them.
        system = self._two_hulls()
        n_eq, n_ub = len(system.rows_eq), len(system.rows_ub)
        first = system.lexicographic_point()
        second = system.lexicographic_point()
        assert first.tobytes() == second.tobytes()
        assert (len(system.rows_eq), len(system.rows_ub)) == (n_eq, n_ub)

    def test_later_solves_see_the_whole_set(self):
        # Regression: after one call the system was a 1e-8 sliver around
        # the lexmin, so maximising x[0] answered 0 instead of 1.
        system = self._two_hulls()
        np.testing.assert_allclose(system.lexicographic_point(), 0.0, atol=1e-7)
        far = system.solve(-np.eye(3)[0])
        assert far[0] == pytest.approx(1.0, abs=1e-7)
        assert system.feasible()

    @pytest.mark.parametrize(
        "n, d, f, constraint",
        [
            (6, 2, 1, {}),
            (9, 3, 2, {}),
            (5, 3, 1, {"delta": 2.5, "p": math.inf}),
            (5, 3, 1, {"delta": 4.0, "p": 1}),
        ],
        ids=["gamma-d2", "gamma-d3-f2", "fattened-inf", "fattened-l1"],
    )
    def test_same_bytes_from_one_lp_fewer(self, rng, monkeypatch, n, d, f, constraint):
        system = _subset_system(rng, n, d, f, **constraint)
        calls = []
        real = intersections.solve_lp

        def recording(c, A_ub, b_ub, A_eq, b_eq, lb, ub):
            calls.append(tuple(
                np.asarray(part).tobytes()
                for part in (c, A_ub.toarray(), b_ub, A_eq.toarray(), b_eq, lb, ub)
            ))
            return real(c, A_ub, b_ub, A_eq, b_eq, lb, ub)

        monkeypatch.setattr(intersections, "solve_lp", recording)
        expected = _parent_lexicographic_point(system)
        parent_calls, calls[:] = list(calls), []
        n_eq, n_ub = len(system.rows_eq), len(system.rows_ub)
        got = system.lexicographic_point()
        assert got.tobytes() == expected.tobytes()
        assert (len(system.rows_eq), len(system.rows_ub)) == (n_eq, n_ub)
        # the feasibility solve is gone; the d minimisations are the very
        # LPs the parent ran, dense row for dense row: same rows, same
        # order, pins after the base rows
        assert len(parent_calls) == d + 1
        assert calls == parent_calls[1:]

    def test_empty_set_is_none(self):
        system = HullSystem(2)
        system.add_hull_constraint(SQ)
        system.add_hull_constraint(SQ + 5.0)
        assert system.lexicographic_point() is None
        assert _parent_lexicographic_point(system) is None

    def test_unbounded_coordinate_answers_as_before(self):
        # A cylinder over coordinates (1, 2) leaves x[0] free: the first
        # minimisation is unbounded and the feasibility solve answers.
        system = HullSystem(3)
        system.add_hull_constraint(SQ, coords=[1, 2])
        got = system.lexicographic_point()
        assert got.tobytes() == _parent_lexicographic_point(system).tobytes()
        assert in_hull(SQ, got[1:], tol=1e-7)


class TestMinimizePairLinf:
    def test_overlapping_sets_zero_separation(self):
        sys_ = HullSystem(4)
        sys_.add_hull_constraint(SQ, coords=[0, 1])
        sys_.add_hull_constraint(SQ + 0.5, coords=[2, 3])
        sep, x = sys_.minimize_pair_linf(2)
        assert sep == pytest.approx(0.0, abs=1e-7)

    def test_disjoint_sets_positive_separation(self):
        sys_ = HullSystem(4)
        sys_.add_hull_constraint(SQ, coords=[0, 1])
        sys_.add_hull_constraint(SQ + 3.0, coords=[2, 3])
        sep, x = sys_.minimize_pair_linf(2)
        assert sep == pytest.approx(2.0, abs=1e-6)  # gap between squares

    def test_infeasible_returns_none(self):
        sys_ = HullSystem(4)
        sys_.add_hull_constraint(SQ, coords=[0, 1])
        sys_.add_hull_constraint(SQ, coords=[0, 1])  # fine
        sys_.add_hull_constraint(SQ + 10.0, coords=[0, 1])  # kills v1
        sys_.add_hull_constraint(SQ, coords=[2, 3])
        assert sys_.minimize_pair_linf(2) is None

    def test_requires_enough_vars(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        with pytest.raises(ValueError):
            sys_.minimize_pair_linf(2)


@given(st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_separation_matches_hull_distance(seed):
    """min ||v1 - v2||_inf over two hulls equals the L_inf 'distance'
    between the hulls — cross-checked via direct point distances when one
    set is a single point."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 2))
    x = rng.normal(size=2) * 3
    sys_ = HullSystem(4)
    sys_.add_hull_constraint(pts, coords=[0, 1])
    sys_.add_hull_constraint(x[None, :], coords=[2, 3])
    sep, _ = sys_.minimize_pair_linf(2)
    from repro.geometry.distance import distance_linf

    assert sep == pytest.approx(distance_linf(pts, x), abs=1e-6)
