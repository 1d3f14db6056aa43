"""The repo benchmark: four workloads, six end-to-end metrics, per-layer spans.

``BENCHMARK.json`` at the repo root names the metrics; this package
measures them.  ``bench.py`` is the entry point the benchmark driver
calls (one workload, one seed, a fixed number of seconds);
``python -m benchmarks.perf run | compare | check`` are the tools a
developer uses.  See ``README.md`` next to this file.

Only :mod:`benchmarks.perf.worker` (and the modules it imports) touches
``repro``; the orchestration side is stdlib-only so that the measured
set-up time is the worker's, not the harness's.
"""
