"""Prometheus exposition: rendering, the validating parser, the server."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    CONTENT_TYPE,
    MetricsServer,
    parse_prometheus_text,
    prom_name,
    render_exposition,
    render_metrics_snapshot,
)


def samples(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in parse_prometheus_text(text)
    }


class TestNames:
    def test_dotted_names_are_sanitised_and_prefixed(self):
        assert prom_name("bcast.bracha.echo") == "repro_bcast_bracha_echo"
        assert (
            prom_name("geometry.delta_star.seconds")
            == "repro_geometry_delta_star_seconds"
        )

    def test_slashes_and_leading_digits_survive(self):
        assert prom_name("core.run/sched.round") == "repro_core_run_sched_round"
        assert prom_name("9lives", prefix="") == "_9lives"


class TestMetricsRendering:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("bcast.bracha.echo", 4)
        reg.set_gauge("sched.sync.backlog", 2.5)
        for v in (0.01, 0.02, 0.03):
            reg.observe("sched.round.seconds", v)
        return reg

    def test_counters_gauges_histograms_round_trip(self):
        text = render_metrics_snapshot(self._registry().snapshot())
        got = samples(text)
        assert got[("repro_bcast_bracha_echo", ())] == 4
        assert got[("repro_sched_sync_backlog", ())] == 2.5
        assert got[("repro_sched_sync_backlog_min", ())] == 2.5
        assert got[("repro_sched_round_seconds_count", ())] == 3
        assert got[("repro_sched_round_seconds_sum", ())] == pytest.approx(0.06)
        assert (
            "repro_sched_round_seconds",
            (("quantile", "0.5"),),
        ) in got

    def test_type_lines_match_metric_kinds(self):
        text = render_metrics_snapshot(self._registry().snapshot())
        assert "# TYPE repro_bcast_bracha_echo counter" in text
        assert "# TYPE repro_sched_sync_backlog gauge" in text
        assert "# TYPE repro_sched_round_seconds summary" in text

    def test_quantile_free_summary_is_sum_and_count(self):
        # a fleet merge carries no quantiles: render none
        record = {"type": "histogram", "count": 4, "total": 40.0,
                  "min": 4.0, "max": 20.0, "mean": 10.0}
        got = samples(render_metrics_snapshot({"net.live.queue_wait_us": record}))
        assert got == {
            ("repro_net_live_queue_wait_us_sum", ()): 40.0,
            ("repro_net_live_queue_wait_us_count", ()): 4.0,
        }

    def test_untouched_gauge_is_omitted(self):
        reg = MetricsRegistry()
        reg.gauge("sched.sync.backlog")  # registered but never set
        assert render_metrics_snapshot(reg.snapshot()) == ""

    def test_empty_exposition_placeholder(self):
        assert render_exposition(None) == "# (no metrics recorded)\n"
        assert parse_prometheus_text(render_exposition(None)) == []


class TestParser:
    def test_rejects_non_grammatical_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus_text("this is not a metric\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("name{unclosed 1\n")

    def test_accepts_inf_and_labels_with_escapes(self):
        got = parse_prometheus_text(
            'x_bucket{le="+Inf",phase="a\\"b"} 3\n'
        )
        assert got == [("x_bucket", {"le": "+Inf", "phase": 'a\\"b'}, 3.0)]


class TestServer:
    def _scrape(self, url: str) -> tuple[int, str, str]:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return (
                resp.status,
                resp.headers.get("Content-Type", ""),
                resp.read().decode("utf-8"),
            )

    def test_serves_valid_exposition_on_metrics_route(self):
        reg = MetricsRegistry()
        reg.inc("bcast.bracha.echo", 5)
        server = MetricsServer(
            lambda: render_exposition(reg.snapshot()), port=0
        )
        host, port = server.address
        thread = server.start_background()
        try:
            status, ctype, body = self._scrape(f"http://{host}:{port}/metrics")
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert status == 200
        assert ctype == CONTENT_TYPE
        got = samples(body)  # parses — the CI smoke contract
        assert got[("repro_bcast_bracha_echo", ())] == 5

    def test_live_source_is_re_rendered_per_scrape(self):
        reg = MetricsRegistry()
        server = MetricsServer(
            lambda: render_exposition(reg.snapshot()), port=0
        )
        host, port = server.address
        thread = server.start_background()
        try:
            reg.inc("bcast.om.decisions", 1)
            _, _, first = self._scrape(f"http://{host}:{port}/metrics")
            reg.inc("bcast.om.decisions", 1)
            _, _, second = self._scrape(f"http://{host}:{port}/")
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert samples(first)[("repro_bcast_om_decisions", ())] == 1
        assert samples(second)[("repro_bcast_om_decisions", ())] == 2

    def test_other_routes_404(self):
        server = MetricsServer(lambda: "# (no metrics recorded)\n", port=0)
        host, port = server.address
        thread = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._scrape(f"http://{host}:{port}/other")
            assert err.value.code == 404
        finally:
            server.shutdown()
            thread.join(timeout=10)

    def test_source_failure_is_a_500_not_a_crash(self):
        def boom() -> str:
            raise RuntimeError("registry gone")

        server = MetricsServer(boom, port=0)
        host, port = server.address
        thread = server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._scrape(f"http://{host}:{port}/metrics")
            assert err.value.code == 500
        finally:
            server.shutdown()
            thread.join(timeout=10)
