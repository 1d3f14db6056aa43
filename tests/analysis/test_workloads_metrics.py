"""Tests for workload generators, metrics, and table rendering."""

from __future__ import annotations


import numpy as np
import pytest

from repro.analysis.metrics import measure_delta_star, summarize_trials
from repro.analysis.tables import format_table
from repro.analysis.workloads import (
    WORKLOADS,
    clustered_inputs,
    collinear_inputs,
    degenerate_inputs,
    duplicated_inputs,
    gaussian_inputs,
    make_workload,
    simplex_inputs,
    sphere_inputs,
)
from repro.geometry.hull import affine_basis


class TestWorkloads:
    def test_gaussian_shape(self, rng):
        assert gaussian_inputs(rng, 6, 3).shape == (6, 3)

    def test_sphere_on_sphere(self, rng):
        pts = sphere_inputs(rng, 10, 4, radius=2.5)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.5)

    def test_clustered_separation(self, rng):
        pts = clustered_inputs(rng, 6, 3, cluster_scale=0.01, outlier_scale=5.0)
        from repro.geometry.norms import min_edge_length, max_edge_length

        cluster = pts[:5]
        assert max_edge_length(cluster) < 0.2
        assert max_edge_length(pts) > max_edge_length(cluster)

    def test_clustered_validates(self, rng):
        with pytest.raises(ValueError):
            clustered_inputs(rng, 4, 2, cluster_size=0)

    def test_degenerate_rank(self, rng):
        pts = degenerate_inputs(rng, 6, 4, rank=2)
        assert affine_basis(pts)[1].shape[0] <= 2

    def test_degenerate_rejects_high_rank(self, rng):
        with pytest.raises(ValueError):
            degenerate_inputs(rng, 4, 2, rank=3)

    def test_collinear(self, rng):
        assert affine_basis(collinear_inputs(rng, 5, 3))[1].shape[0] <= 1

    def test_duplicated_distinct_count(self, rng):
        pts = duplicated_inputs(rng, 8, 3, distinct=2)
        assert len({tuple(p) for p in pts.tolist()}) == 2

    def test_duplicated_validates(self, rng):
        with pytest.raises(ValueError):
            duplicated_inputs(rng, 3, 2, distinct=5)

    def test_simplex_well_conditioned(self, rng):
        from repro.geometry.simplex import inradius

        pts = simplex_inputs(rng, 5, 4, min_inradius=0.01)
        assert inradius(pts) >= 0.01

    def test_simplex_validates_shape(self, rng):
        with pytest.raises(ValueError):
            simplex_inputs(rng, 4, 4)

    def test_registry_dispatch(self, rng):
        for name in WORKLOADS:
            pts = make_workload(name, rng, 5, 3)
            assert pts.shape == (5, 3)
        with pytest.raises(ValueError):
            make_workload("nope", rng, 5, 3)

    def test_reproducible_from_seed(self):
        a = gaussian_inputs(np.random.default_rng(3), 4, 2)
        b = gaussian_inputs(np.random.default_rng(3), 4, 2)
        np.testing.assert_array_equal(a, b)


class TestMetrics:
    def test_trial_fields(self, rng):
        inputs = rng.normal(size=(4, 3))
        t = measure_delta_star(inputs, [3], 1, bound=1.0)
        assert t.n == 4 and t.d == 3 and t.f == 1
        assert t.max_edge > 0 and t.ratio >= 0

    def test_honest_edges_exclude_faulty(self, rng):
        honest = rng.normal(size=(3, 3))
        wild = np.full((1, 3), 100.0)
        inputs = np.vstack([honest, wild])
        t = measure_delta_star(inputs, [3], 1)
        from repro.geometry.norms import max_edge_length

        assert t.max_edge == pytest.approx(max_edge_length(honest))

    def test_too_many_faulty_rejected(self, rng):
        with pytest.raises(ValueError):
            measure_delta_star(rng.normal(size=(4, 2)), [0, 1], 1)

    def test_within_bound_flag(self, rng):
        inputs = rng.normal(size=(4, 3))
        loose = measure_delta_star(inputs, [0], 1, bound=1e9)
        assert loose.within_bound
        tight = measure_delta_star(inputs, [0], 1, bound=0.0)
        assert tight.within_bound == (tight.delta_star <= 1e-7)

    def test_summary(self, rng):
        trials = [
            measure_delta_star(rng.normal(size=(4, 3)), [0], 1, bound=10.0)
            for _ in range(5)
        ]
        s = summarize_trials(trials)
        assert s.count == 5
        assert s.all_within_bound
        assert s.max_ratio >= s.mean_ratio >= 0

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_trials([])


class TestTables:
    def test_alignment_and_content(self):
        out = format_table(
            ["name", "value"], [["row1", 1.2345], ["longer-row", 0.0]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.2345" in out and "longer-row" in out

    def test_scientific_formatting(self):
        out = format_table(["x"], [[1.5e-7]])
        assert "e-07" in out
