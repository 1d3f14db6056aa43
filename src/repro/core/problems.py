"""Problem specifications and correctness checkers.

The paper defines six consensus problems (Definitions 7, 8, 10, 11 plus
the unrelaxed originals of §4).  Each is represented by a spec object that
knows how to *check* an outcome — agreement, the problem's validity
condition, termination — against the ground-truth honest inputs.  The
checkers are what every integration test and benchmark asserts on, so they
are written directly from the definitions:

* **Agreement** (exact problems): identical decision vectors at all
  non-faulty processes.
* **ε-Agreement** (approximate problems): for every coordinate ``l``, the
  ``l``-th elements of any two non-faulty decisions differ by at most
  ``ε`` (i.e. ``L_inf`` distance at most ``ε`` — footnotes 1–2 of the
  paper).
* **Validity** — membership of every non-faulty decision in ``H(N)``,
  ``H_k(N)`` or ``H_{(δ,p)}(N)`` where ``N`` is the multiset of non-faulty
  inputs.

This module is the repo's only invariant oracle.  :func:`problem_for`
names the problem each shipped algorithm solves, :func:`headroom` is the
one place the achieved-δ slack is written down, and
:func:`broadcast_conflicts` is the broadcast-integrity predicate.  The
runner, the online probes, the DST explorer and the post-hoc fleet
probes only gather evidence (honest inputs, decisions, δ used,
per-instance deliveries) and ask here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping, Optional, TypeVar, Union

import numpy as np

from ..geometry.distance import distance_to_hull
from ..geometry.norms import validate_p
from ..geometry.relaxed import DeltaPHull, KRelaxedHull

__all__ = [
    "ValidityReport",
    "ProblemSpec",
    "ExactBVC",
    "ApproximateBVC",
    "KRelaxedExactBVC",
    "KRelaxedApproximateBVC",
    "DeltaPExactBVC",
    "DeltaPApproximateBVC",
    "agreement_diameter",
    "broadcast_conflicts",
    "headroom",
    "problem_for",
]

PNorm = Union[float, int]
K = TypeVar("K", bound=Hashable)
R = TypeVar("R")


def agreement_diameter(decisions: Mapping[int, np.ndarray]) -> float:
    """Largest L_inf distance between any two decision vectors.

    Zero means exact agreement; ``<= ε`` means ε-agreement under the
    paper's coordinate-wise definition.
    """
    vals = [np.asarray(v, dtype=float) for v in decisions.values()]
    if len(vals) <= 1:
        return 0.0
    arr = np.stack(vals)
    return float(np.max(np.abs(arr[:, None, :] - arr[None, :, :])))


def headroom(delta: float) -> float:
    """Validity radius granted to a run that achieved ``delta``.

    δ* is a strict minimum: the decision sits exactly at distance δ*
    from some subset hull, so the checker needs solver-tolerance slack
    or re-measured distances tip it over by ~1e-7.
    """
    return delta * (1.0 + 1e-6) + 1e-9


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    result = a == b
    return bool(np.all(result)) if isinstance(result, np.ndarray) else bool(result)


def broadcast_conflicts(
    deliveries: Mapping[K, Mapping[R, Any]],
) -> dict[K, tuple[R, R]]:
    """Broadcast integrity over ``{instance: {receiver: value-or-digest}}``.

    One broadcast instance must show every receiver the same value
    (Bracha agreement; EIG / Dolev–Strong correctness).  Returns, per
    violating instance, the first pair of receivers that hold different
    values — empty when integrity holds.
    """
    conflicts: dict[K, tuple[R, R]] = {}
    for instance, received in deliveries.items():
        entries = list(received.items())
        for receiver, value in entries[1:]:
            if not _same(entries[0][1], value):
                conflicts[instance] = (entries[0][0], receiver)
                break
    return conflicts


@dataclass
class ValidityReport:
    """Checker verdict for one execution.

    ``violations`` maps pid -> quantitative violation (distance beyond the
    allowed set), for decisions that failed validity.
    """

    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool
    agreement_diameter: float
    violations: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All three conditions hold."""
        return self.agreement_ok and self.validity_ok and self.termination_ok


@dataclass(frozen=True)
class ProblemSpec:
    """Base problem: ``d``-dimensional inputs, up to ``f`` Byzantine.

    ``tol`` is the numerical slack of the membership test.
    """

    d: int
    f: int
    tol: float = field(default=1e-7, kw_only=True)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")

    # -- the contract, one predicate each --------------------------------------
    @property
    def agreement_bound(self) -> float:
        """Largest decision diameter that still counts as agreement."""
        return 1e-9

    def violation(self, decision: np.ndarray, honest_inputs: np.ndarray) -> float:
        """Distance by which one value exceeds the allowed validity set."""
        raise NotImplementedError

    def achieved(self, delta_used: Optional[float]) -> "ProblemSpec":
        """This problem at the δ a run achieved; only the (δ,p)-relaxed
        problems have one."""
        return self

    def measure(
        self, values: Mapping[K, Any], honest_inputs: np.ndarray
    ) -> dict[K, float]:
        """:meth:`violation` of every value, asked once per distinct value.

        Values are shared on their exact bytes (``-0.0`` and ``0.0`` stay
        apart, as in :mod:`repro.geometry.cache`) and nothing is
        remembered between calls.  The only caller of :meth:`violation`.
        """
        asked: dict[bytes, float] = {}
        out: dict[K, float] = {}
        for key, value in values.items():
            vec = np.asarray(value, dtype=float).ravel()
            raw = vec.tobytes()
            if raw not in asked:
                asked[raw] = self.violation(vec, honest_inputs)
            out[key] = asked[raw]
        return out

    # -- entry point -----------------------------------------------------------
    def check(
        self,
        honest_inputs: np.ndarray,
        decisions: Mapping[int, np.ndarray],
        *,
        terminated: bool = True,
    ) -> ValidityReport:
        """Validate an execution outcome.

        Parameters
        ----------
        honest_inputs:
            ``(m, d)`` inputs of the non-faulty processes (the multiset
            ``N``).
        decisions:
            pid -> decision vector, for the non-faulty processes.
        terminated:
            Whether every non-faulty process terminated (from the run
            result).
        """
        honest_inputs = np.atleast_2d(np.asarray(honest_inputs, dtype=float))
        if honest_inputs.shape[1] != self.d:
            raise ValueError(
                f"inputs have dimension {honest_inputs.shape[1]}, spec says {self.d}"
            )
        decs = {pid: np.asarray(v, dtype=float).ravel() for pid, v in decisions.items()}
        for pid, v in decs.items():
            if v.size != self.d:
                raise ValueError(f"decision of {pid} has dimension {v.size}")
        diam = agreement_diameter(decs)
        violations = {
            pid: viol
            for pid, viol in self.measure(decs, honest_inputs).items()
            if viol > self.tol
        }
        return ValidityReport(
            agreement_ok=diam <= self.agreement_bound,
            validity_ok=not violations,
            termination_ok=bool(terminated) and len(decs) > 0,
            agreement_diameter=diam,
            violations=violations,
        )


@dataclass(frozen=True)
class _EpsilonAgreement(ProblemSpec):
    """Mixin for the approximate problems: ε-agreement."""

    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @property
    def agreement_bound(self) -> float:
        return self.epsilon + 1e-12


@dataclass(frozen=True)
class ExactBVC(ProblemSpec):
    """Exact Byzantine vector consensus (§4): agreement + hull validity."""

    def violation(self, decision: np.ndarray, honest_inputs: np.ndarray) -> float:
        return distance_to_hull(honest_inputs, decision, math.inf).distance


@dataclass(frozen=True)
class ApproximateBVC(_EpsilonAgreement, ExactBVC):
    """Approximate BVC (§4): ε-agreement + hull validity."""


@dataclass(frozen=True)
class KRelaxedExactBVC(ProblemSpec):
    """k-relaxed exact BVC (Definition 7): decision in ``H_k(N)``."""

    k: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.k <= self.d:
            raise ValueError(f"need 1 <= k <= d={self.d}, got k={self.k}")

    def violation(self, decision: np.ndarray, honest_inputs: np.ndarray) -> float:
        return KRelaxedHull(honest_inputs, self.k).violation(decision, math.inf)


@dataclass(frozen=True)
class KRelaxedApproximateBVC(_EpsilonAgreement, KRelaxedExactBVC):
    """k-relaxed approximate BVC (Definition 8)."""


@dataclass(frozen=True)
class DeltaPExactBVC(ProblemSpec):
    """(δ,p)-relaxed exact BVC (Definition 10): decision within L_p
    distance δ of ``H(N)``.

    ``delta`` may be a constant, or — for the input-dependent setting of
    §9 — the δ the run achieved (:meth:`achieved`).
    """

    delta: float = 0.0
    p: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        validate_p(self.p)

    def violation(self, decision: np.ndarray, honest_inputs: np.ndarray) -> float:
        return DeltaPHull(honest_inputs, self.delta, self.p).violation(decision)

    def achieved(self, delta_used: Optional[float]) -> "ProblemSpec":
        if delta_used is None:
            return self
        return replace(self, delta=headroom(delta_used))


@dataclass(frozen=True)
class DeltaPApproximateBVC(_EpsilonAgreement, DeltaPExactBVC):
    """(δ,p)-relaxed approximate BVC (Definition 11)."""


def problem_for(
    algorithm: str,
    d: int,
    f: int,
    *,
    k: int = 1,
    p: PNorm = 2,
    epsilon: float = 1e-2,
    delta: float = 0.0,
    rounds: Optional[int] = None,
) -> ProblemSpec:
    """The problem each shipped algorithm solves (the paper's table).

    ``delta`` is the validity radius to check against; a run that reports
    its own δ* is judged at ``problem.achieved(δ*)`` instead.  ``rounds``
    only matters to ``"iterative"``, whose LP steps each carry ~1e-8
    feasibility slack that the membership test must match.
    """
    if algorithm in ("exact", "scalar"):
        return ExactBVC(d, f)
    if algorithm == "algo":
        return DeltaPExactBVC(d, f, delta=delta, p=p)
    if algorithm == "krelaxed":
        return KRelaxedExactBVC(d, f, k=k)
    if algorithm == "iterative":
        tol = 1e-7 if rounds is None else max(1e-7, 2e-8 * rounds)
        return ApproximateBVC(d, f, epsilon=epsilon, tol=tol)
    if algorithm == "averaging":
        return DeltaPApproximateBVC(d, f, delta=delta, p=p, epsilon=epsilon)
    raise ValueError(f"no problem is registered for algorithm {algorithm!r}")
