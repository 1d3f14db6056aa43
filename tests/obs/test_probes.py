"""Online invariant probes: honest runs stay clean, faults trip them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.problems import DeltaPExactBVC, problem_for
from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.dst.injections import inject
from repro.exec.grid import build_adversary
from repro.obs.probes import (
    PROBE_NAMES,
    BroadcastIntegrityProbe,
    ProbeView,
    ValidityEnvelopeProbe,
    build_probes,
)

ALGORITHMS = ("exact", "algo", "krelaxed", "scalar", "iterative", "averaging")


def _spec(algorithm: str, **kw) -> RunSpec:
    base = dict(algorithm=algorithm, n=6, d=2, f=1, seed=9, probes=("all",))
    if algorithm == "scalar":
        base["d"] = 1
    if algorithm == "krelaxed":
        base["k"] = 1
    if algorithm in ("averaging", "iterative"):
        base["epsilon"] = 5e-2
    base.update(kw)
    return RunSpec(**base)


class TestHonestRuns:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_six_process_honest_run_is_clean(self, algorithm):
        outcome = run(_spec(algorithm))
        assert outcome.ok
        assert outcome.probe_violations == 0, [
            (r.name, [v.detail for v in r.violations])
            for r in outcome.probe_reports
        ]
        names = [r.name for r in outcome.probe_reports]
        assert names == list(PROBE_NAMES)
        # the probes genuinely looked at the run
        assert any(r.checks > 0 for r in outcome.probe_reports)

    def test_no_probes_means_no_reports(self):
        outcome = run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=9))
        assert outcome.probe_reports == ()
        assert outcome.probe_violations == 0

    def test_probe_violation_counter_on_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        outcome = run(_spec("algo", metrics=registry))
        assert outcome.probe_violations == 0
        for name in PROBE_NAMES:
            assert registry.counter_value(f"probe.{name}.violations") == 0


class _Proc:
    def __init__(self, input_value, delivered=None, multiset=None):
        self.input_value = input_value
        if delivered is not None:
            self._delivered = delivered
        if multiset is not None:
            self.multiset = multiset


class _Ctx:
    def __init__(self, decision=None):
        self.decision = decision
        self.decided = decision is not None


def _view(processes, contexts, f=1, faulty=()):
    n = len(processes)
    return ProbeView(
        n=n, f=f,
        contexts={i: c for i, c in enumerate(contexts)},
        processes={i: p for i, p in enumerate(processes)},
        faulty=frozenset(faulty),
    )


class TestBroadcastProbe:
    def test_divergent_delivery_flagged_once(self):
        probe = BroadcastIntegrityProbe()
        procs = [
            _Proc([0.0], delivered={("bc", 0): 1.0}),
            _Proc([0.0], delivered={("bc", 0): 2.0}),  # diverges
            _Proc([0.0], delivered={("bc", 0): 1.0}),
        ]
        view = _view(procs, [_Ctx() for _ in procs], f=0)
        probe.on_boundary(view, 1)
        probe.on_boundary(view, 2)  # same divergence: not double-counted
        report = probe.report()
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.time == 1 and set(v.pids) == {0, 1}

    def test_divergent_multiset_flagged(self):
        probe = BroadcastIntegrityProbe()
        procs = [
            _Proc([0.0], multiset=((0, (1.0,)),)),
            _Proc([0.0], multiset=((0, (2.0,)),)),
        ]
        view = _view(procs, [_Ctx() for _ in procs], f=0)
        probe.on_boundary(view, 3)
        assert len(probe.report().violations) == 1

    def test_agreeing_deliveries_clean(self):
        probe = BroadcastIntegrityProbe()
        procs = [_Proc([0.0], delivered={("bc", 0): 1.0}) for _ in range(3)]
        view = _view(procs, [_Ctx() for _ in procs], f=0)
        probe.on_boundary(view, 1)
        report = probe.report()
        assert report.ok and report.checks > 0


@dataclass(frozen=True)
class _CountingDeltaP(DeltaPExactBVC):
    asked: list = field(default_factory=list, compare=False)

    def violation(self, decision, honest_inputs):
        self.asked.append(decision.tobytes())
        return super().violation(decision, honest_inputs)


def _per_pid_reference(problem, view, time):
    """The validity probe as it was: a fresh projection per correct pid
    per new value — ``(checks, [(pid, what, excess bits)])``."""
    honest = view.honest_inputs()
    problem = problem.achieved(view.delta_used())
    checks, found = 0, []
    for pid in view.correct:
        items = [
            (f"round-{rnd} value", value)
            for rnd, value in sorted(getattr(view.processes[pid], "my_values", {}).items())
            if rnd >= 1
        ]
        if view.contexts[pid].decided:
            items.append(("decision", view.contexts[pid].decision))
        for what, value in items:
            checks += 1
            excess = problem.violation(np.asarray(value, dtype=float).ravel(), honest)
            if excess > problem.tol:
                found.append((pid, what, float(excess).hex()))
    return checks, found


class TestValidityProbeAsksOnce:
    INPUTS = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [3.0, 3.0], [1.0, 2.0]])

    def _run(self, decisions, my_values=None, faulty=()):
        problem = _CountingDeltaP(2, 1, delta=0.0, p=2.0)
        procs = [_Proc(row) for row in self.INPUTS]
        for pid, values in (my_values or {}).items():
            procs[pid].my_values = values
        view = _view(procs, [_Ctx(decisions.get(pid)) for pid in range(5)], faulty=faulty)
        probe = ValidityEnvelopeProbe(problem)
        probe.on_boundary(view, 7)
        return problem, probe, view

    def test_identical_decisions_are_one_question(self):
        point = np.array([1.0, 1.0])
        problem, probe, view = self._run({pid: point.copy() for pid in range(5)})
        assert probe.checks == 5 and len(problem.asked) == 1
        assert probe.report().ok
        probe.on_boundary(view, 8)  # every decision already measured
        assert probe.checks == 5 and len(problem.asked) == 1

    @pytest.mark.parametrize("injection", ["split-brain", "stale-echo"])
    def test_injected_decision_is_flagged_as_by_the_per_pid_loop(self, injection):
        point = np.array([1.0, 1.0])
        decisions = inject(injection, {pid: point for pid in range(5)}, 3.0, 2)
        problem, probe, view = self._run(decisions)
        checks, found = _per_pid_reference(DeltaPExactBVC(2, 1), view, 7)
        assert probe.checks == checks == 5
        assert [
            (v.pids[0], v.detail.split(" of pid")[0], float(v.measure).hex())
            for v in probe.violations
        ] == found
        assert found and all(v.time == 7 for v in probe.violations)
        assert len(problem.asked) == len({d.tobytes() for d in decisions.values()})

    def test_round_values_and_decisions_share_one_call(self):
        inside, outside = np.array([1.0, 1.0]), np.array([9.0, 9.0])
        my_values = {
            0: {0: outside, 1: inside, 2: inside},  # round 0 is the input: skipped
            1: {1: inside, 2: outside},
            3: {1: outside},
        }
        problem, probe, view = self._run(
            {0: inside, 1: inside, 2: outside}, my_values, faulty=(4,)
        )
        checks, found = _per_pid_reference(DeltaPExactBVC(2, 1), view, 7)
        assert probe.checks == checks == 8
        assert [(v.pids[0], float(v.measure).hex()) for v in probe.violations] == [
            (pid, bits) for pid, _, bits in found
        ]
        assert [pid for pid, _, _ in found] == [1, 2, 3]
        assert len(problem.asked) == 2

    @pytest.mark.parametrize(
        "kw, checks",
        [
            (dict(algorithm="algo", n=7, f=2, broadcast="eig"), 5),
            (dict(algorithm="averaging", n=6, f=1, epsilon=5e-2), 30),
            (dict(algorithm="exact", n=6, f=1), 5),
        ],
        ids=["algo-eig", "averaging", "exact"],
    )
    def test_equivocate_run_counts_what_it_counted(self, kw, checks):
        # ``checks`` cut at the parent commit (one projection per pid).
        outcome = run(RunSpec(
            d=2, seed=5, probes=("validity",),
            adversary=build_adversary("equivocate", kw["n"], kw["f"]), **kw,
        ))
        (report,) = outcome.probe_reports
        assert outcome.ok and report.ok and report.checks == checks


class TestBuildProbes:
    def test_all_names_resolve(self):
        probes = build_probes(["all"], problem_for("algo", 2, 1))
        assert [p.name for p in probes] == list(PROBE_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_probes(["nonsense"], problem_for("algo", 2, 1))

    def test_runspec_rejects_unknown_probe_name(self):
        with pytest.raises(ValueError):
            RunSpec(algorithm="algo", n=6, d=2, f=1, seed=1,
                    probes=("nonsense",))
