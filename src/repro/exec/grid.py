"""Deterministic experiment grids: cells, seeds, adversaries.

A :class:`SweepGrid` is the cross product ``algorithm × d × f × n ×
adversary × rep``.  Expansion is a plain nested loop over the declared
axes (no RNG), so the same grid always yields the same ordered tuple of
:class:`TrialSpec` cells; cells whose ``n`` falls below the algorithm's
resilience bound (:func:`min_trial_size`) are skipped deterministically.

Each cell's seed is derived by hashing the cell's coordinates
(:func:`derive_trial_seed`), so a trial's randomness depends only on
*what* it is — never on where in the grid it sits, which worker runs it,
or what ran before it.  That is the load-bearing half of the engine's
serial-vs-parallel bit-identity contract.

Adversaries are named (:data:`ADVERSARIES`) rather than stored as
objects: a :class:`TrialSpec` stays plain picklable data and the actual
:class:`~repro.system.adversary.Adversary` — which may hold stateful
strategies — is constructed fresh inside whichever worker process runs
the trial.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Union

from ..core import bounds
from ..core.runspec import ALGORITHMS, RunSpec
from ..system.adversary import (
    Adversary,
    CrashStrategy,
    DuplicateStrategy,
    EquivocateStrategy,
    MutateStrategy,
    SilentStrategy,
    perturb_payload,
)

__all__ = [
    "ADVERSARIES",
    "SweepGrid",
    "TrialSpec",
    "build_adversary",
    "build_runspec",
    "derive_trial_seed",
    "min_trial_size",
]

PNorm = Union[float, int]


# ---------------------------------------------------------------------------
# per-cell seed derivation
# ---------------------------------------------------------------------------


def derive_trial_seed(
    base_seed: int,
    algorithm: str,
    n: int,
    d: int,
    f: int,
    adversary: str,
    rep: int,
) -> int:
    """Position-independent seed for one grid cell.

    SHA-256 of the cell coordinates, truncated to 8 bytes.  Two cells
    differing in any coordinate get statistically independent seeds; the
    same cell gets the same seed in every expansion, ordering, and
    worker assignment.
    """
    key = f"{base_seed}|{algorithm}|n={n}|d={d}|f={f}|{adversary}|rep={rep}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# named adversaries
# ---------------------------------------------------------------------------


def _faulty_suffix(n: int, f: int) -> list[int]:
    """The highest-pid ``f`` processes — the conventional corrupt set."""
    return list(range(n - f, n))


def _adv_none(n: int, f: int) -> Optional[Adversary]:
    return None


def _adv_honest(n: int, f: int) -> Optional[Adversary]:
    # Corrupt set declared, but runs honest logic: exercises the f-count
    # bookkeeping (trim sizes, checker filtering) without misbehaviour.
    return Adversary(faulty=_faulty_suffix(n, f)) if f else None


def _adv_silent(n: int, f: int) -> Optional[Adversary]:
    if not f:
        return None
    return Adversary(faulty=_faulty_suffix(n, f), strategy=SilentStrategy())


def _adv_crash(n: int, f: int) -> Optional[Adversary]:
    if not f:
        return None
    return Adversary(faulty=_faulty_suffix(n, f), strategy=CrashStrategy(1))


def _adv_mutate(n: int, f: int) -> Optional[Adversary]:
    if not f:
        return None
    strategy = MutateStrategy(
        lambda tag, payload, rng: perturb_payload(payload, rng, 10.0)
    )
    return Adversary(faulty=_faulty_suffix(n, f), strategy=strategy)


def _adv_equivocate(n: int, f: int) -> Optional[Adversary]:
    if not f:
        return None
    strategy = EquivocateStrategy(
        lambda tag, payload, dst, rng: perturb_payload(payload, rng, 10.0)
    )
    return Adversary(faulty=_faulty_suffix(n, f), strategy=strategy)


def _adv_duplicate(n: int, f: int) -> Optional[Adversary]:
    if not f:
        return None
    return Adversary(faulty=_faulty_suffix(n, f), strategy=DuplicateStrategy(2))


#: name -> factory ``(n, f) -> Optional[Adversary]``.  Factories run inside
#: the worker process that executes the trial, so strategies never cross a
#: process boundary.
ADVERSARIES: dict[str, Callable[[int, int], Optional[Adversary]]] = {
    "none": _adv_none,
    "honest": _adv_honest,
    "silent": _adv_silent,
    "crash": _adv_crash,
    "mutate": _adv_mutate,
    "equivocate": _adv_equivocate,
    "duplicate": _adv_duplicate,
}


def build_adversary(name: str, n: int, f: int) -> Optional[Adversary]:
    """Instantiate the named adversary for an ``(n, f)`` system."""
    if name not in ADVERSARIES:
        raise ValueError(
            f"unknown adversary {name!r}; choices {sorted(ADVERSARIES)}"
        )
    return ADVERSARIES[name](n, f)


# ---------------------------------------------------------------------------
# grid cells
# ---------------------------------------------------------------------------


def min_trial_size(algorithm: str, d: int, f: int, k: int = 1) -> int:
    """Smallest legal ``n`` for a grid cell (resilience + geometry floor).

    Resilience bounds come from :mod:`repro.core.bounds`; the extra
    ``d + 1`` floor keeps the vector algorithms' subset machinery
    non-degenerate (matching the DST scenario sampler).
    """
    if algorithm == "exact":
        return bounds.exact_bvc_min_n(d, f)
    if algorithm == "scalar":
        return 3 * f + 1
    if algorithm == "iterative":
        return bounds.approx_bvc_min_n(d, f)
    if algorithm == "krelaxed":
        return max(bounds.k_relaxed_exact_min_n(d, f, k), d + 1)
    if algorithm in ("algo", "averaging"):
        return max(3 * f + 1, d + 1)
    raise ValueError(f"unknown algorithm {algorithm!r}; choices {ALGORITHMS}")


@dataclass(frozen=True)
class TrialSpec:
    """One grid cell: plain picklable data, no live objects.

    ``seed`` is the cell's derived seed (already position-independent);
    ``index`` is the cell's rank in grid order, used only to re-sort
    results after unordered parallel completion.
    """

    index: int
    algorithm: str
    n: int
    d: int
    f: int
    adversary: str
    rep: int
    seed: int
    p: PNorm = 2
    k: int = 1
    epsilon: float = 5e-2
    input_scale: float = 3.0
    #: Online probe names (never objects — cells must stay picklable).
    probes: tuple[str, ...] = ()


def build_runspec(trial: TrialSpec) -> RunSpec:
    """Materialise a cell into a runnable :class:`RunSpec`.

    Called in the worker that executes the trial — this is where the
    named adversary becomes an object.
    """
    return RunSpec(
        algorithm=trial.algorithm,
        n=trial.n,
        d=trial.d,
        f=trial.f,
        adversary=build_adversary(trial.adversary, trial.n, trial.f),
        p=trial.p,
        k=trial.k,
        epsilon=trial.epsilon,
        seed=trial.seed,
        input_scale=trial.input_scale,
        probes=trial.probes,
    )


@dataclass(frozen=True)
class SweepGrid:
    """Declarative cross product of experiment axes.

    ``sizes`` lists explicit ``n`` values; empty means "the smallest
    legal ``n`` for each ``(algorithm, d, f)`` cell".  Cells below the
    resilience floor are skipped (counted, not errors), so a grid can
    mix algorithms with different bounds without hand-tuning ``n``.
    Skips are counted at *trial* granularity — a skipped axis slice
    contributes the number of trials it would have expanded to, so
    ``len(trials) + skipped`` always equals the full cross product.
    """

    algorithms: tuple[str, ...] = ("algo",)
    dimensions: tuple[int, ...] = (2,)
    faults: tuple[int, ...] = (1,)
    sizes: tuple[int, ...] = ()
    adversaries: tuple[str, ...] = ("none",)
    reps: int = 1
    base_seed: int = 0
    p: PNorm = 2
    k: int = 1
    epsilon: float = 5e-2
    input_scale: float = 3.0
    #: Online probe names enabled for every trial ("all" expands).
    #: Violation counts aggregate into the sweep summary but stay out of
    #: the identity digest — probes observe, they never decide.
    probes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        from ..obs.probes import PROBE_NAMES

        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; choices {ALGORITHMS}"
                )
        for name in self.adversaries:
            if name not in ADVERSARIES:
                raise ValueError(
                    f"unknown adversary {name!r}; choices {sorted(ADVERSARIES)}"
                )
        for name in self.probes:
            if name not in PROBE_NAMES + ("all",):
                raise ValueError(
                    f"unknown probe {name!r}; choices {PROBE_NAMES + ('all',)}"
                )
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")

    def to_dict(self) -> dict[str, Any]:
        # JSON-native lists, so a saved sweep's grid compares equal to a
        # freshly built one after a load round-trip.
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }

    def trials(self) -> tuple[tuple[TrialSpec, ...], int]:
        """Expand to ``(cells, skipped_trials)`` in deterministic grid
        order; ``skipped_trials`` counts the trials each skipped slice
        would have expanded to (so cells + skipped = full cross product).
        """
        cells: list[TrialSpec] = []
        skipped = 0
        trials_per_n = len(self.adversaries) * self.reps
        index = 0
        for algorithm in self.algorithms:
            for d in self.dimensions:
                if algorithm == "scalar" and d != 1:
                    skipped += (len(self.faults)
                                * (len(self.sizes) or 1) * trials_per_n)
                    continue
                for f in self.faults:
                    floor = min_trial_size(algorithm, d, f, self.k)
                    sizes = self.sizes or (floor,)
                    for n in sizes:
                        if n < floor:
                            skipped += trials_per_n
                            continue
                        for adversary in self.adversaries:
                            for rep in range(self.reps):
                                seed = derive_trial_seed(
                                    self.base_seed, algorithm, n, d, f,
                                    adversary, rep,
                                )
                                cells.append(TrialSpec(
                                    index=index,
                                    algorithm=algorithm,
                                    n=n,
                                    d=d,
                                    f=f,
                                    adversary=adversary,
                                    rep=rep,
                                    seed=seed,
                                    p=self.p,
                                    k=self.k,
                                    epsilon=self.epsilon,
                                    input_scale=self.input_scale,
                                    probes=self.probes,
                                ))
                                index += 1
        return tuple(cells), skipped
