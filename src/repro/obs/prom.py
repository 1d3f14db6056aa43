"""Prometheus text-format exposition of metrics and phase profiles.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` snapshot (and
optionally a :class:`~repro.obs.perf.PhaseProfiler` snapshot) as the
Prometheus text exposition format (version 0.0.4), so any scraper — or
plain ``curl`` — can consume the repo's telemetry:

* counters → ``# TYPE <name> counter`` + one sample;
* gauges → ``gauge`` (last-written value; ``_min``/``_max`` companions);
* exact histograms (:class:`~repro.obs.metrics.Histogram`) → ``summary``
  with exact ``quantile`` labels plus ``_sum``/``_count``;
* fixed-bucket phase timers → native ``histogram`` with cumulative
  ``le`` buckets, labelled by phase path.

Metric names are mapped into the Prometheus grammar by replacing every
character outside ``[a-zA-Z0-9_:]`` with ``_`` and prefixing ``repro_``
(``geometry.delta_star.seconds`` → ``repro_geometry_delta_star_seconds``);
the original dotted name is kept as a ``path`` label only where the
mapping is lossy (phase paths contain ``/``).

:func:`parse_prometheus_text` is a small validating parser used by the
tests and the CI smoke job: it checks every line against the exposition
grammar and returns the samples, so "the endpoint serves valid
Prometheus text" is a mechanical assertion, not a claim.

The HTTP side (:func:`serve_metrics`) is a deliberately tiny stdlib
server — one ``GET /metrics`` route over
:class:`http.server.ThreadingHTTPServer` — because the simulator is a
research artifact, not a production daemon; anything heavier belongs to
the service layer of ROADMAP item 3.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "CONTENT_TYPE",
    "MetricsServer",
    "diff_counter_snapshots",
    "parse_prometheus_text",
    "prom_name",
    "render_metrics_snapshot",
    "render_profiler_snapshot",
    "render_exposition",
    "serve_metrics",
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


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


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


def render_profiler_snapshot(
    snapshot: Mapping[str, Any], *, prefix: str = "repro_"
) -> str:
    """Render a ``PhaseProfiler.snapshot()`` document as exposition text.

    Two families under ``repro_perf_``: every span path becomes one
    series of the ``phase_seconds`` histogram (cumulative ``le`` buckets
    straight from the fixed bucket ladder) and one
    ``phase_cpu_seconds_total`` counter.
    """
    phases: Mapping[str, Any] = snapshot.get("phases", {})
    lines: list[str] = []
    if phases:
        family = prefix + "perf_"
        base = family + "phase_seconds"
        lines.append(f"# HELP {base} wall seconds per profiled phase")
        lines.append(f"# TYPE {base} histogram")
        for path in sorted(phases):
            entry = phases[path]
            label = _escape_label(path)
            cumulative = 0
            saw_inf = False
            for bound, count in entry.get("buckets", []):
                cumulative += int(count)
                saw_inf = saw_inf or bound == "inf"
                le = "+Inf" if bound == "inf" else _fmt(float(bound))
                lines.append(
                    f'{base}_bucket{{phase="{label}",le="{le}"}} {cumulative}'
                )
            count_total = int(entry.get("count", 0))
            if not saw_inf:  # a histogram always ends with its +Inf bucket
                lines.append(
                    f'{base}_bucket{{phase="{label}",le="+Inf"}} {count_total}'
                )
            lines.append(
                f'{base}_sum{{phase="{label}"}} '
                f"{_fmt(float(entry.get('wall_seconds', 0.0)))}"
            )
            lines.append(f'{base}_count{{phase="{label}"}} {count_total}')
        cpu = family + "phase_cpu_seconds_total"
        lines.append(f"# HELP {cpu} CPU seconds per profiled phase")
        lines.append(f"# TYPE {cpu} counter")
        for path in sorted(phases):
            label = _escape_label(path)
            lines.append(
                f'{cpu}{{phase="{label}"}} '
                f"{_fmt(float(phases[path].get('cpu_seconds', 0.0)))}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_exposition(
    metrics_snapshot: Optional[Mapping[str, Any]] = None,
    perf_snapshot: Optional[Mapping[str, Any]] = None,
    *,
    prefix: str = "repro_",
) -> str:
    """Full scrape body: metrics first, then the phase profile (if any)."""
    parts = []
    if metrics_snapshot:
        parts.append(render_metrics_snapshot(metrics_snapshot, prefix=prefix))
    if perf_snapshot and perf_snapshot.get("phases"):
        parts.append(render_profiler_snapshot(perf_snapshot, prefix=prefix))
    body = "".join(parts)
    return body if body else "# (no metrics recorded)\n"


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


def diff_counter_snapshots(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, float]:
    """Per-counter deltas between two ``MetricsRegistry.snapshot()`` docs.

    Only counters participate (gauges are point-in-time, histograms have
    no subtraction); counters absent from ``before`` count from zero.
    """
    out: dict[str, float] = {}
    for name, record in after.items():
        if record.get("type") != "counter":
            continue
        prev = before.get(name, {})
        base = float(prev.get("value", 0)) if prev.get("type") == "counter" else 0.0
        delta = float(record["value"]) - base
        if delta:
            out[name] = delta
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# the scrapeable endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """A tiny ``GET /metrics`` HTTP server over a body-producing callable.

    ``source`` is called per scrape and must return the exposition text —
    so a live registry is re-snapshotted on every request, while a static
    snapshot just returns the same string.  ``max_requests`` makes the
    serve loop terminate after N scrapes (the CI smoke job scrapes once).
    """

    def __init__(
        self,
        source: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
    ) -> None:
        self.source = source
        self.max_requests = max_requests
        self.requests_served = 0
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
                outer.requests_served += 1

            def log_message(self, format: str, *args: Any) -> None:
                return  # scrapes stay silent; the CLI prints its own line

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved when 0 was asked."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> int:
        """Serve until ``max_requests`` scrapes (or forever); returns the
        number of requests served."""
        try:
            if self.max_requests is None:
                self._httpd.serve_forever(poll_interval=0.1)
            else:
                # handlers run in their own threads, so the count moves
                # after handle_request returns; a short accept timeout
                # keeps the bound re-checked instead of blocking on a
                # request that never comes
                self._httpd.timeout = 0.1
                while self.requests_served < self.max_requests:
                    self._httpd.handle_request()
        finally:
            self._httpd.server_close()
        return self.requests_served

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests); returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._httpd.shutdown()


def serve_metrics(
    source: Callable[[], str],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
) -> MetricsServer:
    """Construct (but do not start) a :class:`MetricsServer` for ``source``."""
    return MetricsServer(
        source, host=host, port=port, max_requests=max_requests
    )
