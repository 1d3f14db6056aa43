"""The sweep grid the repository benchmark's exec probe runs.

``python -m benchmarks.perf`` is the one benchmark (see
``docs/performance.md``); its exec probe times
``run_grid(bench_grid("small"))`` at one and at two workers.  The grid
lives here, next to the engine it exercises, so the tier-1 suite can pin
its decisions digest (``tests/exec/test_bench.py``).
"""

from __future__ import annotations

from .grid import SweepGrid

__all__ = ["bench_grid"]

# Every synchronous family plus averaging, two dimensions, silent
# faults: 48 trials, seconds to run.
_SMALL = SweepGrid(
    algorithms=("algo", "exact", "averaging"),
    dimensions=(2, 3),
    faults=(1,),
    sizes=(6, 8),
    adversaries=("none", "silent"),
    reps=2,
    base_seed=2016,
)


def bench_grid(name: str) -> SweepGrid:
    """The named benchmark grid; ``"small"`` is the only one."""
    if name != "small":
        raise ValueError(f"unknown bench grid {name!r}; choose from small")
    return _SMALL
