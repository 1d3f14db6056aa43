"""Tests for Radon/Tverberg partitions (paper §8)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.distance import distance_to_hull, in_hull
from repro.geometry.tverberg import (
    has_tverberg_partition,
    iter_set_partitions,
    partition_intersection_nonempty,
    radon_partition,
    tverberg_partition,
    tverberg_point,
)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (partition counts)."""
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestIterSetPartitions:
    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (5, 3), (6, 3), (7, 3)])
    def test_counts_match_stirling(self, n, r):
        got = list(iter_set_partitions(n, r))
        assert len(got) == stirling2(n, r)

    def test_all_parts_nonempty_and_disjoint(self):
        for parts in iter_set_partitions(5, 3):
            assert len(parts) == 3
            flat = [i for p in parts for i in p]
            assert sorted(flat) == list(range(5))
            assert all(len(p) >= 1 for p in parts)

    def test_no_duplicates(self):
        got = list(iter_set_partitions(6, 3))
        canon = {tuple(sorted(tuple(sorted(p)) for p in parts)) for parts in got}
        assert len(canon) == len(got)

    def test_degenerate_r(self):
        assert list(iter_set_partitions(3, 4)) == []
        assert len(list(iter_set_partitions(3, 3))) == 1
        assert len(list(iter_set_partitions(3, 1))) == 1


class TestRadon:
    def test_square_case(self):
        """4 points in R^2: diagonals of a square cross."""
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        rp = radon_partition(pts)
        np.testing.assert_allclose(rp.point, [0.5, 0.5], atol=1e-8)

    def test_point_in_both_hulls(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            pts = r.normal(size=(5, 3))
            rp = radon_partition(pts)
            assert in_hull(pts[list(rp.part_a)], rp.point, tol=1e-6)
            assert in_hull(pts[list(rp.part_b)], rp.point, tol=1e-6)

    def test_parts_disjoint(self, rng):
        pts = rng.normal(size=(4, 2))
        rp = radon_partition(pts)
        assert not set(rp.part_a) & set(rp.part_b)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            radon_partition(np.zeros((3, 2)))


class TestTverberg:
    @pytest.mark.parametrize("d,f", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)])
    def test_partition_exists_at_bound(self, d, f):
        """(d+1)f+1 points always admit an (f+1)-Tverberg partition."""
        for seed in range(4):
            rng = np.random.default_rng(seed + d * 31 + f * 7)
            n = (d + 1) * f + 1
            pts = rng.normal(size=(n, d))
            tp = tverberg_partition(pts, f + 1)
            assert tp is not None, f"missing partition d={d} f={f} seed={seed}"
            assert len(tp.parts) == f + 1
            for part in tp.parts:
                assert in_hull(pts[list(part)], tp.point, tol=1e-6)

    @pytest.mark.parametrize("d,f", [(2, 1), (3, 1), (2, 2)])
    def test_generic_tightness_below_bound(self, d, f):
        """(d+1)f generic points admit NO partition (bound tight, §8)."""
        for seed in range(4):
            rng = np.random.default_rng(seed + d * 13 + f * 5)
            n = (d + 1) * f
            pts = rng.normal(size=(n, d))
            assert not has_tverberg_partition(pts, f + 1)

    def test_tverberg_point_validates_gamma(self, rng):
        """A Tverberg point witnesses Γ(Y) nonempty: with n=(d+1)f+1
        points and any f removed, one part survives intact... verified
        directly: the point is in the hull of every (n-f)-subset."""
        from repro.geometry.intersections import f_subsets

        d, f = 2, 1
        pts = rng.normal(size=((d + 1) * f + 1, d))
        pt = tverberg_point(pts, f)
        for T in f_subsets(pts.shape[0], f):
            assert in_hull(pts[list(T)], pt, tol=1e-6)

    def test_tverberg_point_raises_below(self, rng):
        pts = rng.normal(size=(3, 2))  # below 4 = (d+1)f+1
        with pytest.raises(ValueError):
            tverberg_point(pts, 1)

    def test_relaxed_hulls_keep_theorem(self, rng):
        """§8: replacing H by H_k or H_{(δ,p)} preserves partition
        existence (relaxed hulls contain the convex hulls)."""
        d, f = 2, 1
        pts = rng.normal(size=((d + 1) * f + 1, d))
        tp = tverberg_partition(pts, f + 1)
        assert tp is not None
        for kind, kw in [("k-relaxed", {"k": 1}), ("delta-p", {"delta": 0.5, "p": math.inf})]:
            pt = partition_intersection_nonempty(pts, tp.parts, kind, **kw)
            assert pt is not None

    def test_relaxed_tightness_survives(self, rng):
        """§8 also claims tightness survives for the relaxed hulls with
        small δ: generic (d+1)f points still have no (δ,p)-partition for
        δ = 0."""
        d, f = 2, 1
        pts = rng.normal(size=((d + 1) * f, d))
        for parts in iter_set_partitions(pts.shape[0], f + 1):
            assert (
                partition_intersection_nonempty(
                    pts, parts, "delta-p", delta=0.0, p=math.inf
                )
                is None
            )

    def test_k_relaxed_partition_easier(self):
        """k=1 hulls (bounding boxes) can intersect where convex hulls do
        not — partitions may exist below the Tverberg bound."""
        # three collinear-ish boxes overlapping
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 3.0], [3.0, 1.0]])
        parts = ((0, 1), (2, 3))
        convex = partition_intersection_nonempty(pts, parts, "convex")
        krelax = partition_intersection_nonempty(pts, parts, "k-relaxed", k=1)
        assert krelax is not None
        # (convex may or may not intersect for this instance; if it does
        # not, the k-relaxed success demonstrates the strict containment)
        if convex is None:
            assert krelax is not None

    def test_empty_part_rejected(self, rng):
        pts = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            partition_intersection_nonempty(pts, [(0, 1, 2, 3), ()], "convex")

    def test_unknown_hull_kind(self, rng):
        pts = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            partition_intersection_nonempty(pts, [(0, 1), (2, 3)], "bogus")

    # A segment and a point 9 away: at δ = 5, (5.5, 0) is 4.5 from both,
    # yet the inputs' mean (2.875, 0) is 7.125 from the point.
    GAP_PTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
    GAP_PARTS = ((0, 1, 2), (3,))

    def test_delta_p_at_p2_refused_not_guessed(self):
        """No linear encoding of H_(δ,2): the question is refused, not
        answered None from a probe of the mean."""
        with pytest.raises(ValueError):
            partition_intersection_nonempty(
                self.GAP_PTS, self.GAP_PARTS, "delta-p", delta=5.0, p=2
            )

    def test_delta_p_at_pinf_finds_the_gap_point(self):
        pt = partition_intersection_nonempty(
            self.GAP_PTS, self.GAP_PARTS, "delta-p", delta=5.0, p=math.inf
        )
        assert pt is not None
        for part in self.GAP_PARTS:
            assert distance_to_hull(self.GAP_PTS[list(part)], pt, math.inf).distance <= 5.0 + 1e-9
