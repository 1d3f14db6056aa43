"""The benchmark's exec-probe grid and its behavioural-contract digest."""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.perf.workloads import WORKLOADS, cells_of, generate
from repro.core import run
from repro.exec import SweepGrid, run_grid
from repro.exec.bench import bench_grid
from repro.exec.results import decisions_to_hex

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


def verdict_digest(instances) -> str:
    """SHA-256 over every decision and every ``ValidityReport`` field
    (floats as hex, ``violations`` in report order) of the instances."""
    digest = hashlib.sha256()
    for inst in instances:
        outcome = run(inst.to_spec())
        report = outcome.report
        digest.update(repr((
            inst.id, decisions_to_hex(outcome.decisions),
            report.agreement_ok, report.validity_ok, report.termination_ok,
            float(report.agreement_diameter).hex(),
            [(pid, float(v).hex()) for pid, v in report.violations.items()],
        )).encode())
    return digest.hexdigest()


class TestBenchmarkVerdictIdentity:
    """Decisions *and* verdicts of the repo benchmark's instances, cut at
    the commit before the checker, the validity probe and δ*'s result
    stopped asking one geometric question per process / per subset."""

    @pytest.mark.parametrize(
        "workload, pinned",
        [
            ("sim-geometry", "4c12fc90d08f85bff6ccea75e55a5c6dc2f50eb5b857b2bbeed57d4b7d825b29"),
            ("sim-broadcast", "0e4243a24dd58cc8004c36a00790120ce594e9390087e251b6ec96fa62aae74b"),
        ],
        ids=["sim-geometry", "sim-broadcast"],
    )
    def test_first_rep_of_every_cell(self, workload, pinned):
        instances = generate(workload, 2016, reps=1)
        assert len(instances) == len(cells_of(WORKLOADS[workload]))
        assert verdict_digest(instances) == pinned

    def test_known_tolerance_misses_keep_their_bits(self):
        # ROADMAP item 1: two of seed 2016's four validity misses (all 12 /
        # 11 correct pids report the one shared excess, 1.0e-7 / 1.3e-7).
        misses = [
            inst for inst in generate("sim-geometry", 2016, reps=2)
            if inst.id in ("algo-p1/n12d4f1/none/r1", "algo-p1/n12d4f1/mutate/r1")
        ]
        assert len(misses) == 2
        assert verdict_digest(misses) == (
            "17455d36e2ba3b4bfe6900b5aac55f482fffb93eda50e1bd80601404385a9b79"
        )
