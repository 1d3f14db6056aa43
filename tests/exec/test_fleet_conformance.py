"""Sim/live probe conformance: post-hoc fleet verdicts match the sim's.

For each spec the same run executes twice — once in-process on the
deterministic simulator with online probes attached, once as a real
subprocess-per-node cluster with tracing on, probed *post hoc* from the
stitched trails.  The schedules differ, but on honest runs both paths
must return the same verdict for every shared probe: the trail files
are meant to be sufficient evidence, not a weaker approximation.
"""

from __future__ import annotations

import pytest

from repro.core import RunSpec, run
from repro.exec.live_launch import launch_local
from repro.obs.fleet import (
    discover_trails,
    fleet_probes,
    load_trails,
    stitch,
)

#: (algorithm, knobs) — 4..7 nodes, spanning the exact-delta,
#: epsilon-approximate, and k-hull probe parameterisations.
CASES = [
    ("averaging", dict(n=4, d=2, f=1, epsilon=5e-2)),
    ("exact", dict(n=5, d=2, f=1)),
    ("krelaxed", dict(n=6, d=2, f=1, k=1)),
]


def sim_verdicts(algorithm: str, knobs: dict, seed: int) -> dict[str, bool]:
    outcome = run(
        RunSpec(
            algorithm=algorithm, seed=seed,
            probes=("validity", "agreement"), **knobs,
        )
    )
    assert outcome.result.completed
    return {r.name: r.ok for r in outcome.probe_reports}


def live_verdicts(
    algorithm: str, knobs: dict, seed: int, tmp_path
) -> dict[str, bool]:
    trace_dir = tmp_path / "traces"
    (tmp_path / "cluster").mkdir()
    report = launch_local(
        RunSpec(algorithm=algorithm, seed=seed, **{"epsilon": 5e-2, **knobs}),
        kind="uds",
        workdir=str(tmp_path / "cluster"), trace_dir=str(trace_dir),
    )
    assert report["ok"], report
    trails = load_trails(discover_trails(str(trace_dir)))
    assert len(trails) == knobs["n"]
    graph, stitch_report = stitch(trails)
    assert stitch_report.complete, stitch_report.to_dict()
    reports, context = fleet_probes(trails, graph)
    assert context["algorithm"] == algorithm
    assert context["decided_nodes"] == list(range(knobs["n"]))
    return {r.name: r.ok for r in reports}


class TestProbeConformance:
    @pytest.mark.parametrize(
        "algorithm,knobs", CASES, ids=[c[0] for c in CASES]
    )
    def test_fleet_verdicts_match_sim(self, algorithm, knobs, tmp_path):
        seed = 23
        sim = sim_verdicts(algorithm, knobs, seed)
        live = live_verdicts(algorithm, knobs, seed, tmp_path)
        shared = sorted(set(sim) & set(live))
        assert shared == ["agreement", "validity"]
        for name in shared:
            assert live[name] == sim[name], (name, sim, live)
        # Honest runs are clean on both paths, including the post-hoc
        # structural broadcast check only the fleet side can run.
        assert all(sim.values()) and all(live.values()), (sim, live)
