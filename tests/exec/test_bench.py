"""The benchmark's exec-probe grid and its behavioural-contract digest."""

from __future__ import annotations

import pytest

from repro.exec import SweepGrid, run_grid
from repro.exec.bench import bench_grid

#: ``bench_grid("small")`` and the decisions digest of running it, side
#: by side: a deliberate re-cut is a one-line diff here.
SMALL = SweepGrid(
    algorithms=("algo", "exact", "averaging"),
    dimensions=(2, 3),
    faults=(1,),
    sizes=(6, 8),
    adversaries=("none", "silent"),
    reps=2,
    base_seed=2016,
)
SMALL_DIGEST = "86cda92dfbddf06bef3cc123a826befce1bc60078ec7c1c873ff97ddadf85612"


class TestGrids:
    def test_named_grids_exist(self):
        assert bench_grid("small") == SMALL

    def test_unknown_grid_rejected(self):
        for name in ("huge", "tiny", "standard"):
            with pytest.raises(ValueError, match="unknown bench grid"):
                bench_grid(name)

    def test_small_grid_reproduces_pinned_digest(self):
        result = run_grid(bench_grid("small"))
        assert result.trial_count == result.ok_count == 48
        assert result.decisions_digest() == SMALL_DIGEST
