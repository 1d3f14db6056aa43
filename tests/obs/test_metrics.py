"""Tests for counters, gauges, histograms, and the ambient registry."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import (
    active_registry,
    current_registry,
    inc,
    observe,
    set_gauge,
)


class TestCounters:
    def test_inc_defaults_and_amount(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter_value("a") == 5
        assert reg.counter_value("missing") == 0
        assert reg.counter_value("missing", default=-1) == -1


class TestGauges:
    def test_tracks_last_and_extremes(self):
        reg = MetricsRegistry()
        for v in (3.0, 10.0, 7.0):
            reg.set_gauge("depth", v)
        g = reg.gauge("depth")
        assert g.value == 7.0 and g.max == 10.0 and g.min == 3.0
        assert g.updates == 3

    def test_unset_gauge_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("never")
        assert reg.snapshot()["never"]["value"] is None


class TestHistograms:
    def test_percentiles_exact(self):
        reg = MetricsRegistry()
        for v in range(1, 101):  # 1..100
            reg.observe("lat", float(v))
        h = reg.histogram("lat")
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.mean == pytest.approx(50.5)
        assert h.count == 100
        assert h.max == 100.0 and h.min == 1.0

    def test_single_sample(self):
        reg = MetricsRegistry()
        reg.observe("x", 2.5)
        h = reg.histogram("x")
        assert h.percentile(0) == h.percentile(50) == h.percentile(100) == 2.5

    def test_empty_percentile_raises(self):
        h = MetricsRegistry().histogram("empty")
        with pytest.raises(ValueError):
            h.percentile(50)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_snapshot_has_standard_quantiles(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        snap = reg.snapshot()["h"]
        assert snap["type"] == "histogram"
        assert set(snap) >= {"count", "total", "mean", "p50", "p90", "p99"}


class TestAmbientRegistry:
    def test_global_is_default(self):
        assert isinstance(current_registry(), MetricsRegistry)
        assert active_registry() is None

    def test_use_registry_scopes(self):
        ambient = current_registry()
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_registry() is reg
            assert active_registry() is reg
            inc("scoped")
            observe("scoped.h", 1.0)
            set_gauge("scoped.g", 2.0)
        assert current_registry() is ambient
        assert reg.counter_value("scoped") == 1
        assert ambient.counter_value("scoped") == 0

    def test_nested_registries(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            inc("x")
            with use_registry(inner):
                inc("x")
            inc("x")
        assert outer.counter_value("x") == 2
        assert inner.counter_value("x") == 1
