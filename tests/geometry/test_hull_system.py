"""Tests for the reusable HullSystem LP builder and its one point."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_to_hull, in_hull
from repro.geometry import intersections
from repro.geometry.intersections import HullSystem, f_subsets, gamma_point

from .test_lp import DenseHullSystem, hull_systems

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestHullSystem:
    def test_single_hull_feasible(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        assert sys_.feasible()
        pt = sys_.central_point()
        assert in_hull(SQ, pt, tol=1e-7)

    def test_unit_square_gives_its_centre(self):
        # t = 1/4 needs every weight at 1/4: the centre, and only it
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        np.testing.assert_allclose(sys_.central_point(), [0.5, 0.5], atol=1e-9)

    def test_infeasible_system(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(SQ)
        sys_.add_hull_constraint(SQ + 10.0)
        assert not sys_.feasible()
        assert sys_.central_point() is None

    def test_coords_subset_constraint(self):
        """Cylinder-style constraint on one coordinate only."""
        sys_ = HullSystem(3)
        sys_.add_hull_constraint(np.array([[2.0], [3.0]]), coords=[1])
        pt = sys_.central_point()
        assert pt is not None
        assert 2.0 - 1e-6 <= pt[1] <= 3.0 + 1e-6

    def test_fattened_linf_constraint(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(np.array([[5.0, 5.0]]), delta=1.0, p=math.inf)
        pt = sys_.central_point()
        assert pt is not None
        assert np.max(np.abs(pt - 5.0)) <= 1.0 + 1e-6

    def test_fattened_l1_constraint(self):
        sys_ = HullSystem(2)
        sys_.add_hull_constraint(np.array([[5.0, 5.0]]), delta=1.0, p=1)
        pt = sys_.central_point()
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


def _subset_system(rng, n, d, f, **constraint) -> HullSystem:
    Y = rng.normal(scale=3.0, size=(n, d))
    system = HullSystem(d)
    for T in f_subsets(n, f):
        system.add_hull_constraint(Y[list(T)], **constraint)
    return system


class TestCentralPointLeavesTheSystemAlone:
    def _two_hulls(self) -> HullSystem:
        system = HullSystem(3)
        cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        system.add_hull_constraint(cube)
        system.add_hull_constraint(cube * 2.0 - 0.5)
        return system

    def test_rows_do_not_grow_and_calls_repeat(self):
        # The t column lives in the call's copy of the rows.
        system = self._two_hulls()
        n_eq, n_ub, width = len(system.rows_eq), len(system.rows_ub), system.n_extra
        first = system.central_point()
        second = system.central_point()
        assert first.tobytes() == second.tobytes()
        assert (len(system.rows_eq), len(system.rows_ub)) == (n_eq, n_ub)
        assert system.n_extra == width

    def test_later_solves_see_the_whole_set(self):
        # The two cubes meet in [0, 1]^3, whose centre is the only point
        # with every weight of both cubes at 1/8; afterwards, maximising
        # x[0] must still reach the far face.
        system = self._two_hulls()
        np.testing.assert_allclose(system.central_point(), 0.5, atol=1e-7)
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
    def test_one_lp_with_one_more_column(self, rng, monkeypatch, n, d, f, constraint):
        system = _subset_system(rng, n, d, f, **constraint)
        calls = []
        real = intersections.solve_lp

        def recording(*lp):
            calls.append(lp)
            return real(*lp)

        monkeypatch.setattr(intersections, "solve_lp", recording)
        assert system.central_point() is not None
        [(c, A_ub, b_ub, A_eq, b_eq, lb, ub)] = calls
        base_ub, base_b_ub, base_eq, base_b_eq, base_lb, base_ub_bounds = system._assemble()
        width = system.d + system.n_extra
        weight = np.zeros(width)
        for off, size in system.weights:
            weight[off : off + size] = 1.0
        # the recorded rows, no row more, and t's column: each row's sum
        # over the weight columns (L1 slacks are not weights), up to the
        # order a dense product adds them in
        for A, base in ((A_ub, base_ub), (A_eq, base_eq)):
            dense, base = A.toarray(), base.toarray()
            assert dense.shape == (base.shape[0], width + 1)
            assert np.array_equal(dense[:, :width], base)
            np.testing.assert_allclose(dense[:, width], base @ weight, rtol=1e-14)
        assert b_ub.tobytes() == base_b_ub.tobytes()
        assert b_eq.tobytes() == base_b_eq.tobytes()
        assert c.tolist() == [0.0] * width + [-1.0]
        assert lb.tolist() == [*base_lb.tolist(), 0.0]
        assert ub.tolist() == [*base_ub_bounds.tolist(), 1.0]

    def test_empty_set_is_none(self):
        # fattened squares 4 apart (L_inf) meet only once 2δ covers the gap
        for delta, empty in ((0.5, True), (2.5, False)):
            system = HullSystem(2)
            system.add_hull_constraint(SQ, delta=delta, p=math.inf)
            system.add_hull_constraint(SQ + 5.0, delta=delta, p=math.inf)
            assert (system.central_point() is None) == empty

    def test_free_coordinate_still_gives_a_point(self):
        # A cylinder over coordinates (1, 2) leaves x[0] free; t does not
        # depend on it, so the LP stays bounded.
        system = HullSystem(3)
        system.add_hull_constraint(SQ, coords=[1, 2])
        got = system.central_point()
        np.testing.assert_allclose(got[1:], [0.5, 0.5], atol=1e-9)


class TestCentralPointProperties:
    """What every caller of ``central_point`` relies on, over drawn input."""

    @given(hull_systems())
    @settings(max_examples=60, deadline=None)
    def test_emptiness_is_the_lexicographic_lps(self, drawn):
        # Γ / Γ_(δ,p) at, around and below n = (d+1)f + 1 on grid points:
        # one LP says "empty" exactly when the d-LP selection did
        d, f, Y, constraint = drawn
        got, ref = HullSystem(d), DenseHullSystem(d)
        for T in f_subsets(Y.shape[0], f):
            got.add_hull_constraint(Y[list(T)], **constraint)
            ref.add_hull_constraint(Y[list(T)], **constraint)
        assert (got.central_point() is None) == (ref.lexicographic_point() is None)

    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_inside_every_subset_hull_above_the_tight_size(self, seed, d, f, extra):
        # n >= (d+1)f + 2 points in general position: the point has a
        # positive weight on every point of every H(Y[T]), so the
        # projections the checker runs measure rounding only (5.6e-14 of
        # the scale at worst over 58,502 drawn pairs).  The lexicographic
        # vertex sat on a boundary: 4e-9 out here, up to 3.8e-7 at d = 4.
        n = (d + 1) * f + 2 + extra
        Y = np.random.default_rng(seed).normal(scale=3.0, size=(n, d))
        x = gamma_point.__wrapped__(Y, f)
        scale = float(np.max(np.abs(Y)))
        for T in f_subsets(n, f):
            for p in (2, math.inf):
                assert distance_to_hull(Y[list(T)], x, p).distance <= 1e-12 * scale

    @given(st.integers(0, 10_000), st.sampled_from([(2, 1, 5), (3, 1, 6), (2, 2, 8)]))
    @settings(max_examples=15, deadline=None)
    def test_same_bytes_in_same_bytes_out(self, seed, shape):
        # agreement: processes holding the same input bytes decide the
        # same output bytes, whatever array object carries them
        d, f, n = shape
        Y = np.random.default_rng(seed).normal(size=(n, d))
        again = np.frombuffer(Y.tobytes()).reshape(n, d)
        a, b = gamma_point.__wrapped__(Y, f), gamma_point.__wrapped__(again, f)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


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
