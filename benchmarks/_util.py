"""Shared helpers for the benchmark/experiment harness.

Every benchmark file reproduces one row of DESIGN.md's experiment index:
it sweeps the experiment, prints a paper-vs-measured table (captured in
``bench_output.txt`` when run with ``pytest benchmarks/ --benchmark-only
-s``), asserts the paper's qualitative claim, and times a representative
kernel with pytest-benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core import RunSpec, run

__all__ = [
    "OBS_HEADERS",
    "obs_columns",
    "report",
    "rng_for",
    "run_spec",
    "sweep_rows",
]


def report(title: str, headers, rows) -> None:
    """Print one experiment table (shown with ``-s`` / captured by tee)."""
    print("\n" + format_table(headers, rows, title=title))


#: Column headers matching :func:`obs_columns`.
OBS_HEADERS = ["msgs", "bytes", "δ*-time(s)"]


def obs_columns(outcome_or_result) -> list:
    """Message/byte/solver-time columns for one run's benchmark row.

    Accepts a :class:`~repro.core.runner.ConsensusOutcome` or a raw
    :class:`~repro.system.scheduler.RunResult`; reads the run's metrics
    registry (``RunResult.metrics``).
    """
    result = getattr(outcome_or_result, "result", outcome_or_result)
    m = result.metrics
    solver = m.histogram("geometry.delta_star.seconds")
    return [
        m.counter_value("net.messages_sent"),
        m.counter_value("net.bytes_estimate"),
        round(solver.total, 4),
    ]


def rng_for(tag: str, index: int = 0) -> np.random.Generator:
    """Deterministic per-experiment generator.

    Seeded from a stable hash of the tag — ``hash()`` is randomised per
    interpreter process and must not be used here.
    """
    import hashlib

    digest = hashlib.sha256(f"{tag}#{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def run_spec(**kwargs):
    """Declare-and-run shorthand: ``run(RunSpec(**kwargs))``.

    The benchmarks' single entry point into the consensus stack — one
    vocabulary (the :class:`~repro.core.runspec.RunSpec` fields).
    """
    return run(RunSpec(**kwargs))


def sweep_rows(grid, *, workers: int = 1):
    """Run an experiment grid through :mod:`repro.exec`; yield table rows.

    Shared harness for benchmarks that fan a grid of repeated trials:
    returns ``(SweepResult, rows)`` where each row is
    ``[algorithm, n, d, adversary, ok, rounds, msgs, wall(s)]`` in grid
    order — ready for :func:`report`.
    """
    from repro.exec import run_grid

    result = run_grid(grid, workers=workers)
    rows = [
        [t.algorithm, t.n, t.d, t.adversary, t.ok, t.rounds, t.messages,
         round(t.wall_seconds, 4)]
        for t in result.trials
    ]
    return result, rows
