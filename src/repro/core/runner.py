"""High-level entry point: build a system, run it, check it.

One declarative entry point runs everything: describe the execution as a
:class:`~repro.core.runspec.RunSpec` and call :func:`run`::

    from repro.core import RunSpec, run
    out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                      adversary=Adversary(faulty=[3])))

``run`` builds the processes from the per-algorithm table below,
executes the full protocol stack on the chosen transport, judges the
outcome once against the problem :func:`~repro.core.problems.problem_for`
names for the algorithm, and returns a :class:`ConsensusOutcome`
bundling decisions, the checker's verdict, and run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

import numpy as np

from ..obs.metrics import use_registry
from ..obs.probes import Probe, ProbeReport, build_probes
from ..obs.tracer import trace_span
from ..system.adversary import Adversary
from ..system.crypto import SignatureScheme
from ..system.scheduler import RunResult
from ..system.topology import Topology, complete_topology
from ..system.transport.base import get_transport
from .algo_sync import AlgoProcess
from .averaging import VerifiedAveragingProcess, rounds_for_epsilon
from .exact_bvc import ExactBVCProcess
from .iterative import IterativeBVCProcess
from .krelaxed import KRelaxedProcess
from .problems import ProblemSpec, ValidityReport, problem_for
from .runspec import ALGORITHMS, RunSpec
from .scalar import ScalarConsensusProcess

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["ConsensusOutcome", "RunSpec", "build_processes", "resolved_rounds",
           "run"]


@dataclass
class ConsensusOutcome:
    """Everything a caller needs from one consensus execution.

    ``problem`` is the spec ``report`` was judged against — what a
    post-hoc re-check of perturbed decisions must call.
    """

    decisions: dict[int, np.ndarray]
    report: ValidityReport
    result: RunResult
    honest_inputs: np.ndarray
    delta_used: Optional[float]
    problem: ProblemSpec

    @property
    def ok(self) -> bool:
        """Agreement + validity + termination all hold."""
        return self.report.ok

    @property
    def metrics(self) -> "MetricsRegistry":
        """The run's :class:`~repro.obs.metrics.MetricsRegistry`
        (shortcut for ``result.metrics``)."""
        return self.result.metrics

    @property
    def probe_reports(self) -> tuple[ProbeReport, ...]:
        """Per-probe reports (shortcut for ``result.probes``)."""
        return self.result.probes

    @property
    def probe_violations(self) -> int:
        """Total online invariant violations across all probes."""
        return self.result.probe_violations


class _Template(NamedTuple):
    """How one algorithm's processes are built and driven."""

    #: "broadcast-all" (sync, one broadcast per input), "iterative"
    #: (sync rounds on a topology) or "async".
    kind: str
    process: type[Any]
    #: RunSpec fields forwarded to the process as same-named keywords.
    fields: tuple[str, ...] = ()


_TEMPLATES: dict[str, _Template] = {
    "exact": _Template("broadcast-all", ExactBVCProcess),
    "algo": _Template("broadcast-all", AlgoProcess, ("p",)),
    "krelaxed": _Template("broadcast-all", KRelaxedProcess, ("k",)),
    "scalar": _Template("broadcast-all", ScalarConsensusProcess),
    "iterative": _Template("iterative", IterativeBVCProcess, ("alpha",)),
    "averaging": _Template(
        "async", VerifiedAveragingProcess, ("mode", "delta", "p")
    ),
}

assert set(_TEMPLATES) == set(ALGORITHMS)


def resolved_rounds(spec: RunSpec, inputs: np.ndarray) -> Optional[int]:
    """Protocol rounds ``spec`` executes; ``None`` for the broadcast-all
    algorithms, which have no round knob.

    ``"averaging"`` defaults to the contraction-bound estimate for
    ``epsilon`` computed from the *global* input spread (a simulation
    convenience — the full dynamic termination rule lives in the paper's
    reference [15]).
    """
    kind = _TEMPLATES[spec.algorithm].kind
    if kind == "broadcast-all":
        return None
    if spec.rounds is not None:
        return spec.rounds
    if kind == "iterative":
        return 30
    spread = float(np.max(inputs.max(axis=0) - inputs.min(axis=0)))
    # round-1 values can exceed the input hull by up to δ per side;
    # bound δ crudely by the spread itself.
    return rounds_for_epsilon(
        3.0 * max(spread, spec.epsilon), inputs.shape[0], spec.f, spec.epsilon
    )


def build_processes(
    spec: RunSpec,
    inputs: np.ndarray,
    pids: Sequence[int],
    *,
    rounds: Optional[int],
    scheme: Optional[SignatureScheme] = None,
    topology: Optional[Topology] = None,
) -> list[Any]:
    """The protocol processes of ``pids``, from the per-algorithm table."""
    kind, process, fields = _TEMPLATES[spec.algorithm]
    n = inputs.shape[0]
    kwargs = {name: getattr(spec, name) for name in fields}
    if kind == "broadcast-all":
        kwargs.update(broadcast=spec.broadcast, scheme=scheme)
    else:
        kwargs["num_rounds"] = rounds
        if kind == "iterative":
            kwargs["topology"] = (
                topology if topology is not None else complete_topology(n)
            )
    return [process(n, spec.f, pid, inputs[pid], **kwargs) for pid in pids]


def _spec_probes(spec: RunSpec, problem: ProblemSpec) -> list[Probe]:
    """Materialise ``spec.probes`` (names and/or objects) for one run."""
    if not spec.probes:
        return []
    names = [p for p in spec.probes if isinstance(p, str)]
    objects = [p for p in spec.probes if not isinstance(p, str)]
    return objects + build_probes(names, problem)


def _run(spec: RunSpec) -> ConsensusOutcome:
    inputs = np.atleast_2d(np.asarray(spec.resolved_inputs(), dtype=float))
    adversary = spec.adversary or Adversary.none()
    n, d = inputs.shape
    honest = np.array(
        [inputs[p] for p in range(n) if not adversary.is_faulty(p)]
    )
    rounds = resolved_rounds(spec, inputs)

    requested = problem_for(
        spec.algorithm, d, spec.f, k=spec.k, p=spec.p,
        epsilon=spec.epsilon, delta=spec.delta, rounds=rounds,
    )
    probes = _spec_probes(spec, requested)
    rng = np.random.default_rng(spec.seed)
    backend = get_transport(spec.transport)
    kind = _TEMPLATES[spec.algorithm].kind
    if kind == "async":
        procs = build_processes(spec, inputs, range(n), rounds=rounds)
        result = backend.run_async(
            procs, spec.f, adversary=adversary, policy=spec.policy, rng=rng,
            max_steps=spec.max_steps, probes=probes, seed=spec.seed,
        )
    elif kind == "iterative":
        assert rounds is not None
        topology = (
            spec.topology if spec.topology is not None else complete_topology(n)
        )
        procs = build_processes(
            spec, inputs, range(n), rounds=rounds, topology=topology
        )
        result = backend.run_sync(
            procs, spec.f, adversary=adversary, rng=rng,
            max_rounds=rounds + 2, topology=topology, probes=probes,
            seed=spec.seed,
        )
    else:
        scheme = (
            SignatureScheme(n, rng) if spec.broadcast == "dolev-strong" else None
        )
        procs = build_processes(
            spec, inputs, range(n), rounds=rounds, scheme=scheme
        )
        result = backend.run_sync(
            procs, spec.f, adversary=adversary, rng=rng,
            max_rounds=spec.max_rounds,
            sign=scheme.signer_for(set(adversary.faulty)) if scheme else None,
            probes=probes, seed=spec.seed,
        )
    decisions = {
        pid: np.asarray(v, dtype=float)
        for pid, v in result.correct_decisions.items()
    }
    deltas = [
        proc.delta_used
        for pid, proc in enumerate(procs)
        if pid not in adversary.faulty
        and getattr(proc, "delta_used", None) is not None
    ]
    delta_used = max(deltas) if deltas else None
    # The checker uses the δ the processes actually achieved, so the
    # report verifies the algorithm's own claim.
    judged = requested.achieved(delta_used)
    report = judged.check(honest, decisions, terminated=result.completed)
    return ConsensusOutcome(
        decisions, report, result, honest, delta_used, judged
    )


def run(spec: RunSpec) -> ConsensusOutcome:
    """Execute one :class:`~repro.core.runspec.RunSpec` end to end.

    Builds the processes and scheduler for ``spec.algorithm``, runs to
    completion, and checks the decisions against the matching problem
    spec.  When ``spec.metrics`` is given it is installed as the ambient
    :class:`~repro.obs.metrics.MetricsRegistry` for the run.
    """
    if spec.metrics is not None:
        with use_registry(spec.metrics), trace_span("core.run"):
            return _run(spec)
    with trace_span("core.run"):
        return _run(spec)
