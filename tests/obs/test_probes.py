"""Online invariant probes: honest runs stay clean, faults trip them."""

from __future__ import annotations

import pytest

from repro.core.problems import problem_for
from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.obs.probes import (
    PROBE_NAMES,
    BroadcastIntegrityProbe,
    ProbeView,
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
