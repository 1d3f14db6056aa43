"""Online invariant probes evaluated at round/step boundaries.

The paper's guarantees are run-time invariants, not just post-hoc
verdicts: every intermediate and decided value must stay inside the
relaxed hull of the correct inputs (validity, Xiang–Vaidya Theorems 6/15,
Vaidya–Garg validity for the exact baseline), per-round spread must
shrink monotonically for Relaxed Verified Averaging (the ``ρ = f/(n-f)``
contraction), and reliable broadcast must never let two correct processes
accept different values for one ``(sender, tag)`` instance (Bracha
agreement).  A :class:`Probe` watches one of these invariants *during*
the run: the schedulers evaluate the installed probes at every round
boundary (synchronous) or every ``PROBE_INTERVAL`` delivery steps
(asynchronous), so a violating execution is flagged at the moment it
diverges, with the offending round and processes attached.

Violations surface three ways at once:

* a warning-level trace event (``probe.<name>.violation``),
* a counter on the ambient registry (``probe.<name>.violations``),
* a structured :class:`ProbeReport` on ``RunResult.probes``.

Probes gather evidence; they do not judge it.  Validity, agreement and
broadcast integrity are decided by the run's
:class:`~repro.core.problems.ProblemSpec` (handed in by the runner) and
:func:`~repro.core.problems.broadcast_conflicts` — the same oracle the
post-hoc checker uses, so an online verdict and a checker verdict on the
same evidence cannot disagree.

Probes are read-only: they never touch the scheduler's RNG, the network,
or process state, so enabling them cannot change any decision — the
bit-identity contract is pinned by ``tests/obs/test_probe_identity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import metrics as _obs
from .tracer import trace_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Never imported at run time: core's geometry kernels record onto
    # repro.obs.metrics, so a module-level import here would be circular.
    # The runner hands every probe the run's ProblemSpec instead.
    from ..core.problems import ProblemSpec, ValidityReport

__all__ = [
    "PROBE_NAMES",
    "Probe",
    "ProbeReport",
    "ProbeView",
    "ProbeViolation",
    "ValidityEnvelopeProbe",
    "AgreementConvergenceProbe",
    "BroadcastIntegrityProbe",
    "build_probes",
    "fold_verdict",
]

#: Canonical probe names accepted by :func:`build_probes` and
#: ``RunSpec.probes`` (``"all"`` expands to the full set).
PROBE_NAMES = ("validity", "agreement", "broadcast")


@dataclass(frozen=True)
class ProbeViolation:
    """One observed invariant violation."""

    probe: str
    time: Optional[int]  # round (sync) or step (async) of the boundary
    detail: str
    pids: tuple[int, ...] = ()
    measure: Optional[float] = None  # quantitative excess, when meaningful


@dataclass(frozen=True)
class ProbeReport:
    """Structured outcome of one probe over one run."""

    name: str
    checks: int
    violations: tuple[ProbeViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "checks": self.checks,
            "ok": self.ok,
            "violations": [
                {
                    "time": v.time,
                    "detail": v.detail,
                    "pids": list(v.pids),
                    "measure": v.measure,
                }
                for v in self.violations
            ],
        }


def _violation(
    probe: str,
    time: Optional[int],
    detail: str,
    *,
    pids: Iterable[int] = (),
    measure: Optional[float] = None,
) -> ProbeViolation:
    """Build one violation and surface it (trace event + counter)."""
    violation = ProbeViolation(
        probe=probe, time=time, detail=detail,
        pids=tuple(sorted(pids)), measure=measure,
    )
    trace_event(
        f"probe.{probe}.violation", level="warning",
        time=time, detail=detail, pids=list(violation.pids), measure=measure,
    )
    _obs.inc(f"probe.{probe}.violations")
    return violation


def _outside_envelope(
    what: str, pid: int, excess: float, time: Optional[int]
) -> ProbeViolation:
    return _violation(
        "validity", time,
        f"{what} of pid {pid} leaves the validity envelope by {excess:.3g}",
        pids=(pid,), measure=excess,
    )


def _disagreement(
    diameter: float, bound: float, pids: Iterable[int], time: Optional[int]
) -> ProbeViolation:
    return _violation(
        "agreement", time,
        f"decision diameter {diameter:.3g} exceeds the agreement bound "
        f"{bound:.3g}",
        pids=pids, measure=diameter - bound,
    )


class ProbeView:
    """Read-only window onto a live run, handed to every probe hook.

    Built once per run by the scheduler; exposes the per-process contexts
    and protocol objects so probes can inspect state without being able
    to perturb scheduling.
    """

    def __init__(
        self,
        n: int,
        f: int,
        contexts: Mapping[int, Any],
        processes: Mapping[int, Any],
        faulty: frozenset[int],
    ):
        self.n = n
        self.f = f
        self.contexts = contexts
        self.processes = processes
        self.faulty = faulty
        self.correct = tuple(p for p in range(n) if p not in faulty)
        self._honest: Optional[np.ndarray] = None

    def honest_inputs(self) -> Optional[np.ndarray]:
        """The ``(n - |faulty|, d)`` matrix of correct inputs, when the
        protocol objects expose ``input_value`` (all shipped ones do)."""
        if self._honest is None:
            rows = []
            for pid in self.correct:
                value = getattr(self.processes[pid], "input_value", None)
                if value is None:
                    return None
                rows.append(np.asarray(value, dtype=float).ravel())
            if not rows:
                return None
            self._honest = np.stack(rows)
        return self._honest

    def correct_decisions(self) -> dict[int, np.ndarray]:
        return {
            pid: np.asarray(self.contexts[pid].decision, dtype=float).ravel()
            for pid in self.correct
            if self.contexts[pid].decided
        }

    def delta_used(self) -> Optional[float]:
        """Largest δ a correct process has reported so far, if any."""
        used = [
            float(delta) for delta in (
                getattr(self.processes[pid], "delta_used", None)
                for pid in self.correct
            ) if delta is not None
        ]
        return max(used) if used else None


class Probe:
    """Base class: accumulate checks/violations; subclasses add the hooks."""

    name = "probe"

    def __init__(self) -> None:
        self.violations: list[ProbeViolation] = []
        self.checks = 0

    def attach(self, view: ProbeView) -> None:
        """Called once at run start, before any boundary."""

    def on_boundary(self, view: ProbeView, time: int) -> None:
        """Called at every round (sync) / probe-interval step (async)."""

    def on_finish(self, view: ProbeView, time: int) -> None:
        """Called once after the run loop (defaults to a last boundary)."""
        self.on_boundary(view, time)

    def record(
        self,
        time: Optional[int],
        detail: str,
        *,
        pids: Iterable[int] = (),
        measure: Optional[float] = None,
    ) -> None:
        self.violations.append(
            _violation(self.name, time, detail, pids=pids, measure=measure)
        )

    def report(self) -> ProbeReport:
        return ProbeReport(
            name=self.name, checks=self.checks,
            violations=tuple(self.violations),
        )


class ValidityEnvelopeProbe(Probe):
    """Intermediate and decided values stay in the validity set of the
    run's problem.

    The set is whatever ``problem`` says — ``H``, ``H_k`` or
    ``H_{(δ,p)}`` of the correct inputs — with δ the running max of the
    processes' achieved ``delta_used``, exactly as the post-hoc checker
    will judge it.  Checks are incremental: each ``(pid, round)``
    intermediate value and each decision is measured once, equal values
    of one boundary by one projection (``ProblemSpec.measure``).
    """

    name = "validity"

    def __init__(self, problem: "ProblemSpec"):
        super().__init__()
        self.problem = problem
        self._checked_values: set[tuple[int, int]] = set()
        self._checked_decisions: set[int] = set()

    def on_boundary(self, view: ProbeView, time: int) -> None:
        honest = view.honest_inputs()
        if honest is None:
            return
        problem = self.problem.achieved(view.delta_used())
        new: dict[tuple[str, int], Any] = {}
        for pid in view.correct:
            my_values = getattr(view.processes[pid], "my_values", None)
            if my_values is not None:
                for rnd in sorted(my_values):
                    if rnd < 1 or (pid, rnd) in self._checked_values:
                        continue
                    self._checked_values.add((pid, rnd))
                    new[f"round-{rnd} value", pid] = my_values[rnd]
            ctx = view.contexts[pid]
            if ctx.decided and pid not in self._checked_decisions:
                self._checked_decisions.add(pid)
                new["decision", pid] = ctx.decision
        self.checks += len(new)
        for (what, pid), excess in problem.measure(new, honest).items():
            if excess > problem.tol:
                self.violations.append(
                    _outside_envelope(what, pid, excess, time)
                )


class AgreementConvergenceProbe(Probe):
    """Agreement (exact or ε, per the run's problem) on decisions, plus
    monotone per-round spread contraction for Relaxed Verified Averaging.

    For any two verified round-``t`` values (``t >= 2``) share at least
    ``n - 2f`` averaging terms, so the coordinate range of the union of
    verified round-``t`` values can never exceed the round ``t-1`` range
    — the probe asserts that at every boundary, on the growing verified
    sets.
    """

    name = "agreement"

    #: float slack on the spread comparison (the contraction is the
    #: probe's own invariant; the problem spec only bounds decisions).
    CONTRACTION_TOL = 1e-7

    def __init__(self, problem: "ProblemSpec"):
        super().__init__()
        self.problem = problem
        self._flagged_rounds: set[int] = set()
        self._flagged_deciders: frozenset[int] = frozenset()

    def _round_ranges(self, view: ProbeView) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per round: coordinatewise (min, max) over the union of all
        correct processes' verified values."""
        ranges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for pid in view.correct:
            verified = getattr(view.processes[pid], "verified", None)
            if not verified:
                continue
            for (_, rnd), value in verified.items():
                vec = np.asarray(value, dtype=float).ravel()
                if rnd in ranges:
                    lo, hi = ranges[rnd]
                    ranges[rnd] = (np.minimum(lo, vec), np.maximum(hi, vec))
                else:
                    ranges[rnd] = (vec.copy(), vec.copy())
        return ranges

    def on_boundary(self, view: ProbeView, time: int) -> None:
        from ..core.problems import agreement_diameter

        ranges = self._round_ranges(view)
        for rnd in sorted(ranges):
            if rnd < 2 or rnd in self._flagged_rounds or rnd - 1 not in ranges:
                continue
            self.checks += 1
            lo_prev, hi_prev = ranges[rnd - 1]
            lo, hi = ranges[rnd]
            spread_prev = float(np.max(hi_prev - lo_prev))
            spread = float(np.max(hi - lo))
            if spread > spread_prev + self.CONTRACTION_TOL:
                self._flagged_rounds.add(rnd)
                self.record(
                    time,
                    f"round-{rnd} verified spread {spread:.3g} exceeds "
                    f"round-{rnd - 1} spread {spread_prev:.3g} "
                    "(contraction violated)",
                    measure=spread - spread_prev,
                )

        decisions = view.correct_decisions()
        deciders = frozenset(decisions)
        if len(deciders) < 2 or deciders == self._flagged_deciders:
            return
        self.checks += 1
        diameter = agreement_diameter(decisions)
        bound = self.problem.agreement_bound
        if diameter > bound:
            self._flagged_deciders = deciders
            self.violations.append(
                _disagreement(diameter, bound, deciders, time)
            )


class BroadcastIntegrityProbe(Probe):
    """No two correct processes accept different values for one
    ``(sender, tag)`` broadcast instance.

    Gathers the reliable-broadcast delivery maps of the asynchronous
    processes (``_delivered``: Bracha agreement) and the agreed multiset
    of the synchronous broadcast-all template (identical ``S`` at every
    correct process — EIG/Dolev–Strong correctness) and asks
    :func:`~repro.core.problems.broadcast_conflicts`.
    """

    name = "broadcast"

    def __init__(self) -> None:
        super().__init__()
        self._flagged: set[Any] = set()
        #: instance -> receivers compared so far (values never change
        #: once delivered, so only grown instances are looked at again).
        self._seen: dict[Any, int] = {}

    def on_boundary(self, view: ProbeView, time: int) -> None:
        from ..core.problems import broadcast_conflicts

        deliveries: dict[Any, dict[int, Any]] = {}
        for pid in view.correct:
            proc = view.processes[pid]
            for key, value in (getattr(proc, "_delivered", None) or {}).items():
                deliveries.setdefault(key, {})[pid] = value
            multiset = getattr(proc, "multiset", None)
            if multiset is not None:
                deliveries.setdefault("multiset", {})[pid] = multiset
        grown = {
            key: received for key, received in deliveries.items()
            if key not in self._flagged
            and len(received) > max(1, self._seen.get(key, 0))
        }
        self._seen.update((key, len(received)) for key, received in grown.items())
        self.checks += len(grown)
        for key, (first, other) in broadcast_conflicts(grown).items():
            self._flagged.add(key)
            what = (
                "agreed on different broadcast multisets"
                if key == "multiset"
                else f"accepted different values for broadcast instance {key!r}"
            )
            self.record(
                time, f"correct pids {first} and {other} {what}",
                pids=(first, other),
            )


def build_probes(names: Sequence[str], problem: "ProblemSpec") -> list[Probe]:
    """Instantiate probes by name for a run judged against ``problem``.

    ``names`` entries are members of :data:`PROBE_NAMES` or ``"all"``.
    """
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(PROBE_NAMES)
        elif name in PROBE_NAMES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown probe {name!r}; choices {PROBE_NAMES + ('all',)}"
            )
    probes: list[Probe] = []
    for name in dict.fromkeys(expanded):  # dedupe, keep order
        if name == "validity":
            probes.append(ValidityEnvelopeProbe(problem))
        elif name == "agreement":
            probes.append(AgreementConvergenceProbe(problem))
        else:
            probes.append(BroadcastIntegrityProbe())
    return probes


def fold_verdict(
    reports: Sequence[ProbeReport],
    problem: "ProblemSpec",
    verdict: "ValidityReport",
    *,
    time: Optional[int] = None,
) -> tuple[ProbeReport, ...]:
    """Fold one post-hoc ``problem.check`` verdict into probe reports.

    How a decision map nobody observed online is reported — a bug
    injection (DST), a cluster's logged decisions (fleet): the caller
    runs the checker once and the ``validity`` / ``agreement`` reports
    each gain one check and the violations that verdict found.
    """
    def folded(report: ProbeReport) -> ProbeReport:
        if report.name == "validity":
            found = [
                _outside_envelope("decision", pid, excess, time)
                for pid, excess in sorted(verdict.violations.items())
            ]
        elif report.name == "agreement" and not verdict.agreement_ok:
            found = [_disagreement(
                verdict.agreement_diameter, problem.agreement_bound, (), time
            )]
        elif report.name == "agreement":
            found = []
        else:
            return report
        return replace(
            report, checks=report.checks + 1,
            violations=report.violations + tuple(found),
        )

    return tuple(folded(report) for report in reports)
