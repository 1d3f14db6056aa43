"""Prometheus text-format exposition of metrics.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` snapshot as the
Prometheus text exposition format (version 0.0.4), so any scraper — or
plain ``curl`` — can consume the repo's telemetry:

* counters → ``# TYPE <name> counter`` + one sample;
* gauges → ``gauge`` (last-written value; ``_min``/``_max`` companions);
* exact histograms (:class:`~repro.obs.metrics.Histogram`) → ``summary``
  with exact ``quantile`` labels plus ``_sum``/``_count``.

Metric names are mapped into the Prometheus grammar by replacing every
character outside ``[a-zA-Z0-9_:]`` with ``_`` and prefixing ``repro_``
(``geometry.delta_star.seconds`` → ``repro_geometry_delta_star_seconds``).

:func:`parse_prometheus_text` is a small validating parser used by the
tests and the CI smoke job: it checks every line against the exposition
grammar and returns the samples, so "the endpoint serves valid
Prometheus text" is a mechanical assertion, not a claim.

The HTTP side (:class:`MetricsServer`) is a deliberately tiny stdlib
server — one ``GET /metrics`` route over
:class:`http.server.ThreadingHTTPServer` — that a live node
(``repro node`` / ``repro launch --metrics-port``) runs for the length
of its run; ``repro fleet metrics`` renders the same text offline.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "CONTENT_TYPE",
    "MetricsServer",
    "parse_prometheus_text",
    "prom_name",
    "render_metrics_snapshot",
    "render_exposition",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Exposition grammar for one sample line:
#: ``name{label="value",...} number`` (timestamp omitted — we never emit one).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" (?P<value>[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
    r"|Inf|\+Inf|-Inf|NaN))$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prom_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted metric name into the Prometheus name grammar."""
    cleaned = _INVALID.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return prefix + cleaned


def _fmt(value: float) -> str:
    """Number formatting for sample values (Prometheus accepts repr floats)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    f = float(value)
    return repr(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


def render_metrics_snapshot(
    snapshot: Mapping[str, Any], *, prefix: str = "repro_"
) -> str:
    """Render a ``MetricsRegistry.snapshot()`` document as exposition text.

    Counters map to counters, gauges to gauges (with ``_min``/``_max``
    companion gauges), exact histograms to summaries with exact
    quantiles.  A histogram record without quantiles (a fleet merge)
    renders as ``_sum`` / ``_count`` only.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        record = snapshot[name]
        kind = record.get("type")
        pname = prom_name(name, prefix)
        if kind == "counter":
            lines.append(f"# HELP {pname} repro counter {name}")
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_fmt(float(record['value']))}")
        elif kind == "gauge":
            if not record.get("updates"):
                continue
            lines.append(f"# HELP {pname} repro gauge {name}")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(float(record['value']))}")
            lines.append(f"{pname}_min {_fmt(float(record['min']))}")
            lines.append(f"{pname}_max {_fmt(float(record['max']))}")
        elif kind == "histogram":
            lines.append(f"# HELP {pname} repro histogram {name}")
            lines.append(f"# TYPE {pname} summary")
            count = int(record.get("count", 0))
            if count:
                for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                    if key not in record:
                        continue
                    lines.append(
                        f'{pname}{{quantile="{q}"}} '
                        f"{_fmt(float(record[key]))}"
                    )
                lines.append(f"{pname}_sum {_fmt(float(record['total']))}")
            else:
                lines.append(f"{pname}_sum 0")
            lines.append(f"{pname}_count {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_exposition(
    snapshot: Optional[Mapping[str, Any]], *, prefix: str = "repro_"
) -> str:
    """Full scrape body: the metrics, or a comment when none are recorded."""
    body = render_metrics_snapshot(snapshot, prefix=prefix) if snapshot else ""
    return body or "# (no metrics recorded)\n"


# ---------------------------------------------------------------------------
# validating parser (tests + CI smoke)
# ---------------------------------------------------------------------------


def parse_prometheus_text(
    text: str,
) -> list[tuple[str, dict[str, str], float]]:
    """Parse exposition text into ``(name, labels, value)`` samples.

    Raises
    ------
    ValueError
        On any line that is neither a comment, blank, nor a grammatical
        sample line — the validation half of the CI smoke contract.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(
                f"line {lineno} is not valid Prometheus text format: {line!r}"
            )
        labels: dict[str, str] = {}
        if m.group("labels"):
            for lm in _LABEL_RE.finditer(m.group("labels")):
                labels[lm.group(1)] = lm.group(2)
        raw = m.group("value")
        value = float(raw.replace("Inf", "inf").replace("NaN", "nan"))
        samples.append((m.group("name"), labels, value))
    return samples


# ---------------------------------------------------------------------------
# the scrapeable endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """A tiny ``GET /metrics`` HTTP server over a body-producing callable.

    ``source`` is called per scrape and must return the exposition text —
    so a live registry is re-snapshotted on every request.
    """

    def __init__(
        self,
        source: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.source = source
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    body = outer.source().encode("utf-8")
                except Exception as exc:  # defensive: a scrape must not kill
                    self.send_error(500, f"metrics source failed: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: Any) -> None:
                return  # scrapes stay silent

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved when 0 was asked."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown`."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._httpd.shutdown()

