"""A run forks by ``copy.deepcopy``: between two ``step()`` calls a
simulator's state is plain values, so a copy taken mid-run finishes
exactly like the original and like a fresh run."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import RunSpec
from repro.core.averaging import VerifiedAveragingProcess
from repro.core.runner import build_processes, resolved_rounds
from repro.dst.scenarios import ScenarioPolicy, ScheduleWindow
from repro.exec.grid import build_adversary
from repro.system.scheduler import AsyncScheduler, DelayPolicy, SynchronousScheduler


def _averaging(policy=None):
    inputs = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    procs = [
        VerifiedAveragingProcess(4, 1, pid, inputs[pid], num_rounds=4)
        for pid in range(4)
    ]
    return AsyncScheduler(
        procs, f=1, adversary=build_adversary("equivocate", 4, 1),
        policy=policy or DelayPolicy([0]), rng=np.random.default_rng(2016),
    )


def _averaging_scenario():
    # Seeded-uniform order inside the reorder window, then a FIFO one:
    # the policy carries a step counter and the scheduler a draw buffer.
    windows = (ScheduleWindow("reorder", 0, 400), ScheduleWindow("fifo", 400, 410))
    return _averaging(ScenarioPolicy(windows))


def _algo_eig():
    spec = RunSpec(algorithm="algo", n=7, d=2, f=2, broadcast="eig", seed=2016)
    inputs = np.asarray(spec.resolved_inputs(), dtype=float)
    procs = build_processes(
        spec, inputs, range(7), rounds=resolved_rounds(spec, inputs)
    )
    return SynchronousScheduler(
        procs, 2, build_adversary("mutate", 7, 2),
        rng=np.random.default_rng(spec.seed),
    )


def _fingerprint(res):
    decisions = {
        pid: np.asarray(v, dtype=float).tobytes()
        for pid, v in res.decisions.items()
    }
    return decisions, res.rounds, res.stats.as_dict(), res.completed


#: Fork points of the async runs (592 and 548 steps).  The last one is
#: past the first refill of the delivery draw's 512-word buffer.
DELAY_FORKS = (0, 1, 100, 300, 585)
SCENARIO_FORKS = (0, 1, 100, 300, 545)


@pytest.mark.parametrize(
    "make, steps",
    [(_averaging, k) for k in DELAY_FORKS]
    + [(_averaging_scenario, k) for k in SCENARIO_FORKS]
    + [(_algo_eig, r) for r in (0, 1, 2)],
    ids=[f"averaging-{k}" for k in DELAY_FORKS]
    + [f"averaging-scenario-{k}" for k in SCENARIO_FORKS]
    + [f"algo-eig-{r}" for r in (0, 1, 2)],
)
def test_fork_finishes_like_a_fresh_run(make, steps):
    fresh = _fingerprint(make().run())
    assert fresh[3]

    original = make()
    original.start()
    for _ in range(steps):
        original.step()
    fork = copy.deepcopy(original)
    assert _fingerprint(original.run()) == fresh
    assert _fingerprint(fork.run()) == fresh
