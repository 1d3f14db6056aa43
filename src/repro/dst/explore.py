"""Seed-driven scenario explorer: sample, run, check, record.

Every trial derives one :class:`Scenario` from the master seed, runs it
through the full protocol stack, reads the verdict of the run's
:class:`~repro.core.problems.ProblemSpec` (agreement / validity /
termination), and — when an invariant breaks — records a
:class:`Violation` carrying a compact replay token and a ready-to-paste
replay command.  Because a scenario is plain data, a violation found
here is already a regression test: shrink it (:mod:`repro.dst.shrink`)
and commit it to ``tests/corpus/`` (:mod:`repro.dst.corpus`).

Bug *injections* (:mod:`repro.dst.injections`) perturb the decision map
after the run; the perturbed map is re-judged by the same
``ProblemSpec.check`` that produced the run's own report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..core.problems import ValidityReport
from ..core.runner import ConsensusOutcome, run
from ..core.runspec import RunSpec
from ..exec.engine import pool_map
from ..obs.probes import Probe, ProbeReport, fold_verdict
from .injections import INJECTIONS, inject
from .scenarios import (
    FaultClause,
    Scenario,
    ScheduleWindow,
    build_adversary,
    build_policy,
    min_system_size,
)

__all__ = [
    "ALGORITHM_NAMES",
    "AVERAGING_EPSILON",
    "INJECTIONS",
    "ExplorationResult",
    "Violation",
    "explore",
    "replay_command",
    "run_scenario",
    "sample_scenario",
]

#: The four consensus algorithms under test.
ALGORITHM_NAMES = ("exact", "algo", "k1", "averaging")

#: ε-agreement target used for the asynchronous algorithm in exploration.
AVERAGING_EPSILON = 5e-2


def _verdict_details(
    report: ValidityReport, outcome: ConsensusOutcome
) -> dict[str, str]:
    """Violated invariant -> detail, in agreement / validity /
    termination order."""
    details: dict[str, str] = {}
    if not report.agreement_ok:
        details["agreement"] = (
            f"decision diameter {report.agreement_diameter:.6g} exceeds "
            f"{outcome.problem.agreement_bound:.6g}"
        )
    if not report.validity_ok:
        worst = max(report.violations.values(), default=0.0)
        details["validity"] = (
            f"{len(report.violations)} decisions outside the valid set "
            f"(worst {worst:.6g})"
        )
    if not report.termination_ok:
        details["termination"] = (
            f"run ended after {outcome.result.rounds} rounds/steps "
            "without all correct decisions"
        )
    return details


# ---------------------------------------------------------------------------
# running + recording
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationResult:
    """One executed scenario with its verdicts."""

    scenario: Scenario
    outcome: ConsensusOutcome
    #: invariant name -> violation detail, for every invariant that failed.
    violations: dict[str, str]
    #: online probe reports (empty unless ``run_scenario(..., probes=...)``),
    #: with the verdict on any injected decisions folded in.
    probe_reports: tuple[ProbeReport, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def probe_violations(self) -> int:
        """Total probe violations (including the post-injection verdict)."""
        return sum(len(r.violations) for r in self.probe_reports)

    @property
    def invariant(self) -> Optional[str]:
        """First violated invariant (None when ok)."""
        return next(iter(self.violations), None)


def replay_command(token: str, *flags: str) -> str:
    """Ready-to-paste ``python -m repro replay`` line for a replay token."""
    return " ".join(("python -m repro replay", *flags, "--token", token))


@dataclass(frozen=True)
class Violation:
    """An invariant violation, replayable from its token alone."""

    scenario: Scenario
    invariant: str
    detail: str
    token: str
    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool

    @property
    def replay_command(self) -> str:
        """Ready-to-paste CLI command reproducing this violation."""
        return replay_command(self.token)

    @property
    def shrink_command(self) -> str:
        return replay_command(self.token, "--shrink")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        s = self.scenario
        return (
            f"[{s.algorithm}] {self.invariant}: {self.detail} "
            f"(n={s.n} d={s.d} f={s.f} seed={s.seed} "
            f"faults={s.strategy_label()})\n  replay: {self.replay_command}"
        )


def run_scenario(
    scenario: Scenario,
    *,
    probes: Sequence[Union[str, Probe]] = (),
) -> ExplorationResult:
    """Execute one scenario and judge it.

    The verdict is the run's own ``ProblemSpec.check`` report; after a
    bug injection the same spec re-checks the perturbed decision map and
    that one report is also folded into every probe, so an injected
    split-brain shows up as ``agreement`` + ``validity`` violations both
    in ``violations`` and in the probe reports.

    ``probes`` enables online invariant probes for the run: names from
    :data:`repro.obs.probes.PROBE_NAMES` (or ``"all"``), or pre-built
    :class:`~repro.obs.probes.Probe` objects.
    """
    scenario.validate()
    # The explorer's "k1" is k-relaxed consensus at k=1.
    algorithm = "krelaxed" if scenario.algorithm == "k1" else scenario.algorithm
    outcome = run(RunSpec(
        algorithm=algorithm,
        inputs=scenario.inputs(),
        f=scenario.f,
        adversary=build_adversary(scenario),
        epsilon=AVERAGING_EPSILON,
        policy=build_policy(scenario),
        seed=scenario.seed,
        probes=tuple(probes),
    ))
    decisions: Mapping[int, np.ndarray] = outcome.decisions
    report = outcome.report
    probe_reports = outcome.probe_reports
    if scenario.inject is not None:
        decisions = inject(
            scenario.inject, decisions, scenario.input_scale, scenario.d
        )
        report = outcome.problem.check(
            outcome.honest_inputs, decisions,
            terminated=outcome.result.completed,
        )
        probe_reports = fold_verdict(
            probe_reports, outcome.problem, report,
            time=int(outcome.result.rounds),
        )
    return ExplorationResult(
        scenario=scenario, outcome=outcome,
        violations=_verdict_details(report, outcome),
        probe_reports=probe_reports,
    )


def violation_from(result: ExplorationResult) -> Violation:
    """Package a failed run as a :class:`Violation` (token included)."""
    from .corpus import encode_token  # local import: corpus imports explore

    assert result.violations, "no invariant violated"
    invariant = result.invariant
    report = result.outcome.report
    return Violation(
        scenario=result.scenario,
        invariant=invariant or "unknown",
        detail=result.violations.get(invariant or "", ""),
        token=encode_token(result.scenario),
        agreement_ok="agreement" not in result.violations and report.agreement_ok,
        validity_ok="validity" not in result.violations and report.validity_ok,
        termination_ok="termination" not in result.violations
        and report.termination_ok,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sample_shape(rng: np.random.Generator, algorithm: str) -> tuple[int, int, int]:
    """Sample a legal (n, d, f), biased toward the resilience boundary."""
    f = 1
    if algorithm == "exact":
        d = int(rng.integers(1, 4))
    elif algorithm in ("algo", "averaging"):
        d = int(rng.integers(2, 5))
    else:  # k1
        d = int(rng.integers(1, 6))
    n = min_system_size(algorithm, d, f) + int(rng.integers(0, 2))
    return n, d, f


def _sample_faults(
    rng: np.random.Generator, n: int, f: int, horizon: int
) -> tuple[FaultClause, ...]:
    """Sample a fault script: corrupt set + windowed, possibly switching kinds."""
    count = int(rng.integers(0, f + 1))
    pids = sorted(rng.choice(n, size=count, replace=False).tolist())
    clauses: list[FaultClause] = []
    kinds = ("silent", "mutate", "equivocate", "duplicate", "drop", "honest")
    for pid in pids:
        segments = int(rng.integers(1, 3))
        start = 0
        for i in range(segments):
            kind = str(rng.choice(kinds))
            if kind == "drop":
                param = float(rng.uniform(0.2, 1.0))
            elif kind == "duplicate":
                param = float(rng.integers(2, 4))
            else:
                param = float(rng.uniform(0.5, 100.0))
            last = i == segments - 1
            end = None if last else int(start + rng.integers(1, max(2, horizon // 2)))
            clauses.append(
                FaultClause(pid=pid, kind=kind, start=start, end=end, param=param)
            )
            start = end if end is not None else start
    return tuple(clauses)


def _sample_schedule(
    rng: np.random.Generator, n: int
) -> tuple[ScheduleWindow, ...]:
    """Sample 0-2 delivery windows for an async run."""
    windows: list[ScheduleWindow] = []
    for _ in range(int(rng.integers(0, 3))):
        kind = str(rng.choice(("partition", "delay", "fifo", "reorder")))
        start = int(rng.integers(0, 200))
        end = start + int(rng.integers(20, 400))
        if kind == "partition":
            cut = int(rng.integers(1, n))
            perm = rng.permutation(n).tolist()
            groups = (tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:])))
            windows.append(
                ScheduleWindow(kind=kind, start=start, end=end, groups=groups)
            )
        elif kind == "delay":
            k = int(rng.integers(1, max(2, n // 2)))
            victims = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            windows.append(
                ScheduleWindow(kind=kind, start=start, end=end, victims=victims)
            )
        else:
            windows.append(ScheduleWindow(kind=kind, start=start, end=end))
    return tuple(windows)


def sample_scenario(
    rng: np.random.Generator,
    algorithm: str,
    *,
    seed: Optional[int] = None,
    input_scale: float = 3.0,
    inject: Optional[str] = None,
) -> Scenario:
    """Draw one random scenario for ``algorithm`` from ``rng``."""
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choices {sorted(ALGORITHM_NAMES)}"
        )
    n, d, f = _sample_shape(rng, algorithm)
    # Sync runs live for tens of rounds; async clocks tick per activation.
    horizon = 8 if algorithm != "averaging" else 40
    faults = _sample_faults(rng, n, f, horizon)
    schedule = _sample_schedule(rng, n) if algorithm == "averaging" else ()
    scen = Scenario(
        algorithm=algorithm,
        n=n,
        d=d,
        f=f,
        seed=int(seed if seed is not None else rng.integers(0, 2**31 - 1)),
        input_scale=input_scale,
        faults=faults,
        schedule=schedule,
        inject=inject,
    )
    scen.validate()
    return scen


def _explore_trial(scenario: Scenario) -> Optional[Violation]:
    """Pool work unit: run one pre-sampled scenario."""
    result = run_scenario(scenario)
    return None if result.ok else violation_from(result)


def explore(
    algorithm: str,
    trials: int = 50,
    seed: int = 0,
    *,
    input_scale: float = 3.0,
    inject: Optional[str] = None,
    workers: int = 1,
) -> list[Violation]:
    """Run ``trials`` sampled scenarios; return every invariant violation.

    Deterministic in ``(algorithm, trials, seed, input_scale, inject)``:
    trial *t* always runs the same scenario, and each violation's token
    replays independently of the sweep that found it.  ``workers > 1``
    fans the trials over :func:`repro.exec.engine.pool_map`: the master
    RNG is consumed entirely by (serial) scenario sampling before any
    trial runs, and results come back in trial order, so the violation
    list is identical to a serial sweep's regardless of worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    master = np.random.default_rng(seed)
    scenarios = [
        sample_scenario(master, algorithm, input_scale=input_scale,
                        inject=inject)
        for _ in range(trials)
    ]
    if workers == 1 or trials == 1:
        found = [_explore_trial(scenario) for scenario in scenarios]
    else:
        found = pool_map(_explore_trial, scenarios, workers=workers)
    return [violation for violation in found if violation is not None]
