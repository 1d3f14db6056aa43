"""The canonical-key geometry cache: correctness, counters, controls.

The cache may only ever change *time*: keys are the exact argument
bytes, so a hit can only serve a value computed from bit-identical
inputs — every memoized kernel must return bitwise what the uncached
computation (reached through ``__wrapped__``) returns — and results
must be immutable so a caller mutation cannot poison later hits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry import delta_star, gamma_point, tverberg_partition
from repro.geometry import cache as cache_mod
from repro.geometry.cache import (
    cache_disabled,
    cache_enabled,
    cached_kernel,
    canonical_array_bytes,
    clear_cache,
    set_cache_enabled,
)
from repro.geometry.hull import affine_basis
from repro.geometry.intersections import intersection_point
from repro.geometry.tolerance import DELTA_ATOL, close
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCanonicalKeys:
    def test_bit_identical_inputs_share_a_key(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert canonical_array_bytes(a) == canonical_array_bytes(a.copy())
        # canonicalisation is representational only: dtype/layout, not value
        assert canonical_array_bytes(np.array([[1, 2]])) == \
            canonical_array_bytes(np.array([[1.0, 2.0]]))
        assert canonical_array_bytes(a.T) == \
            canonical_array_bytes(np.ascontiguousarray(a.T))

    def test_shape_disambiguates(self):
        a = np.zeros((2, 3))
        b = np.zeros((3, 2))
        assert canonical_array_bytes(a) != canonical_array_bytes(b)

    def test_bit_different_inputs_get_distinct_keys(self):
        """No numeric canonicalisation: a hit must return exactly what
        the kernel would compute for *these* bits, so sub-tolerance
        jitter and -0.0 vs +0.0 must not collide."""
        S = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        jitter = S + 0.49 * DELTA_ATOL  # within tolerance, different bits
        assert canonical_array_bytes(S) != canonical_array_bytes(jitter)
        assert canonical_array_bytes(np.array([-0.0])) != \
            canonical_array_bytes(np.array([0.0]))


class TestCacheCorrectness:
    def test_delta_star_hit_agrees_with_uncached(self, rng):
        S = rng.normal(size=(5, 3))
        first = delta_star(S, 1)
        second = delta_star(S, 1)  # served from cache
        with cache_disabled():
            cold = delta_star(S, 1)
        assert close(first.value, second.value)
        assert close(first.value, cold.value)
        assert np.array_equal(first.point, second.point)
        np.testing.assert_array_equal(cold.point, first.point)

    def test_gamma_point_hit_is_bitwise_stable(self, rng):
        Y = rng.normal(size=(5, 2))
        a = gamma_point(Y, 1)
        b = gamma_point(Y, 1)
        assert a is not None and np.array_equal(a, b)
        with cache_disabled():
            c = gamma_point(Y, 1)
        np.testing.assert_array_equal(a, c)

    def test_wrapped_bypasses_cache(self, rng):
        """__wrapped__ is the raw kernel — used here to prove agreement."""
        Y = [rng.normal(size=(4, 2)) for _ in range(2)]
        cached = intersection_point(Y)
        raw = intersection_point.__wrapped__(Y)
        assert (cached is None) == (raw is None)
        if cached is not None:
            np.testing.assert_array_equal(cached, raw)

    def test_tverberg_cached_result_matches(self, rng):
        pts = rng.normal(size=(4, 1))
        first = tverberg_partition(pts, 2)
        again = tverberg_partition(pts, 2)
        assert first is not None and again is not None
        assert first.parts == again.parts
        assert np.array_equal(first.point, again.point)

    def test_results_are_readonly(self, rng):
        S = rng.normal(size=(5, 2))
        point = gamma_point(S, 1)
        assert point is not None
        with pytest.raises(ValueError):
            point[0] = 1e9
        origin, basis = affine_basis(S)
        with pytest.raises(ValueError):
            origin[0] = 1e9
        with pytest.raises(ValueError):
            basis[0, 0] = 1e9


    @pytest.mark.parametrize(
        "shape, p", [((5, 2), 2), ((4, 3), math.inf), ((4, 3), 2)],
        ids=["gamma-fast-path", "exact-lp", "cutting-plane"],
    )
    def test_delta_star_point_is_readonly_on_miss_and_hit(self, rng, shape, p):
        # ``point`` is the one array a DeltaStarResult carries.
        S = rng.normal(size=shape)
        for result in (delta_star(S, 1, p=p), delta_star(S, 1, p=p)):
            assert not result.point.flags.writeable
            with pytest.raises(ValueError):
                result.point[0] = 1e9
        partition = tverberg_partition(rng.normal(size=(4, 1)), 2)
        assert not partition.point.flags.writeable


class TestCounters:
    def test_hits_and_misses_counted(self, rng):
        S = rng.normal(size=(5, 2))
        reg = MetricsRegistry()
        with use_registry(reg):
            gamma_point(S, 1)
            assert reg.counter_value("geometry.cache.misses") == 1
            assert reg.counter_value("geometry.cache.hits") == 0
            gamma_point(S, 1)
        assert reg.counter_value("geometry.cache.hits") == 1

    def test_obs_registry_counters(self, rng):
        S = rng.normal(size=(5, 2))
        reg = MetricsRegistry()
        with use_registry(reg):
            gamma_point(S, 1)
            gamma_point(S, 1)
        assert reg.counter_value("geometry.cache.misses") == 1
        assert reg.counter_value("geometry.cache.hits") == 1
        assert reg.counter_value("geometry.cache.gamma_point.hits") == 1


class TestControls:
    def test_cache_disabled_context(self, rng):
        S = rng.normal(size=(5, 2))
        gamma_point(S, 1)
        reg = MetricsRegistry()
        with use_registry(reg), cache_disabled():
            assert not cache_enabled()
            gamma_point(S, 1)
        assert cache_enabled()
        # no lookup happened inside the context
        assert reg.counter_value("geometry.cache.hits") == 0
        assert reg.counter_value("geometry.cache.misses") == 0

    def test_set_cache_enabled_returns_previous(self):
        prev = set_cache_enabled(False)
        assert prev is True
        assert set_cache_enabled(prev) is False
        assert cache_enabled()

    def test_overflow_clears_table(self, rng, monkeypatch):
        monkeypatch.setattr(cache_mod._CACHE, "max_entries", 2)
        for i in range(4):
            gamma_point(rng.normal(size=(4, 2)) + i, 1)
        assert len(cache_mod._CACHE._store) <= 2

    def test_unhashable_args_bypass(self, rng):
        @cached_kernel("test_probe_kernel")
        def probed(S: np.ndarray, probe: object) -> float:
            return float(S.sum())

        S = rng.normal(size=(3, 2))
        reg = MetricsRegistry()
        with use_registry(reg):
            assert probed(S, lambda: None) == probed(S, lambda: None)
        # callables cannot be canonicalised -> neither hit nor miss
        assert reg.counter_value("geometry.cache.hits") == 0
        assert reg.counter_value("geometry.cache.misses") == 0
