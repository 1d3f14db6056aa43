"""The benchmark's exec-probe grid and its behavioural-contract digest."""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.perf.worker import classify
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
SMALL_DIGEST = "3dc3c5f7ab1021172b0b888820ac2b6ff4b04016d1140f91dd8cee4054d288cd"


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
    """Decisions *and* verdicts of the repo benchmark's instances.  The
    sync pins were cut when a point of Γ became the one LP's central point
    instead of the lexicographic minimum over d LPs; ``sim-rva``'s when a
    p = 2 δ* of affinely dependent verified values was first solved inside
    their affine hull (only its ``averaging/n4d3f1`` cells moved).  Held
    since by every change that only makes the geometric questions
    cheaper."""

    @pytest.mark.parametrize(
        "workload, pinned",
        [
            ("sim-geometry", "4d5a1e845206f86270d9c2430f5fdb1bff76e63d130ce8c41ab988c2a0266155"),
            ("sim-broadcast", "aa874ef982044744d822537315062b73e8e835c01251a0182505f3ce85a23647"),
            ("sim-rva", "4753de6b29f42902c6a8715449c6040587fe336ab55451502ded1c51873dae10"),
        ],
        ids=["sim-geometry", "sim-broadcast", "sim-rva"],
    )
    def test_first_rep_of_every_cell(self, workload, pinned):
        instances = generate(workload, 2016, reps=1)
        assert len(instances) == len(cells_of(WORKLOADS[workload]))
        assert verdict_digest(instances) == pinned

    def test_former_tolerance_misses_are_ok(self):
        # Two of seed 2016's four validity misses while the decision was a
        # lexicographic vertex of Γ: all 12 / 11 correct pids reported the
        # one shared excess, 1.0e-7 / 1.3e-7 over the checker's 1e-7.
        former = [
            inst for inst in generate("sim-geometry", 2016, reps=2)
            if inst.id in ("algo-p1/n12d4f1/none/r1", "algo-p1/n12d4f1/mutate/r1")
        ]
        assert len(former) == 2
        for inst in former:
            outcome = run(inst.to_spec())
            assert outcome.ok and not outcome.report.violations


def honest_misses(workload: str, seed: int) -> list[tuple[str, str, float]]:
    """``(id, kind, violation)`` of every ``workload`` instance of
    ``seed`` that the benchmark does not classify ``ok``."""
    misses = []
    for inst in generate(workload, seed):
        kind, violation = classify(run(inst.to_spec()))
        if kind != "ok":
            misses.append((inst.id, kind, violation))
    return misses


@pytest.mark.parametrize("seed", [7, 2016, 1, 2, 3])
def test_every_honest_geometry_run_is_ok(seed):
    """Every variant that decides through a subset-hull intersection
    (``algo-p1``, ``algo-pinf``, ``exact``, ``krelaxed-k2``), faulty or
    not, meets validity with the checker's own ``tol`` — no run is a
    ``tolerance`` miss.  CI's ``honest-validity`` job asks seeds 1-20."""
    assert honest_misses("sim-geometry", seed) == []


@pytest.mark.parametrize("seed", [7, 2016])
def test_every_honest_rva_run_is_ok(seed):
    """Every Relaxed Verified Averaging run meets validity, its round-1
    values included: each is a δ* point, solved inside the affine hull of
    the verified values when they span fewer than d dimensions.  CI's
    ``honest-validity`` job asks seeds 1-20."""
    assert honest_misses("sim-rva", seed) == []
