"""The four workloads: fixed cells, seed-generated instances.

A *cell* is one coordinate ``(variant, n, d, f, adversary)``; an
*instance* is one repetition of a cell — an input matrix plus the
scheduler/adversary seed, both derived from ``--seed`` and the cell
coordinates with :func:`repro.exec.grid.derive_trial_seed`.  The program
under test only ever sees the generated :class:`~repro.core.RunSpec`.

Instances are listed rep-major (rep 0 of every cell, then rep 1, ...),
so the first ``len(cells)`` instances are "the first rep of every cell"
— the set the traced pass runs — and a time-cut pass still covers every
cell evenly.

The table below is stdlib-only on purpose: the orchestrating process
imports it for names and reasons without paying for NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Cell",
    "DEFAULT_SEED",
    "INPUT_SCALE",
    "Instance",
    "WORKLOADS",
    "Workload",
    "cells_of",
    "generate",
    "input_bytes",
    "warmups",
]

#: Default ``--seed`` (the paper's year, as the other bench grids use).
DEFAULT_SEED = 2016
#: Standard deviation of the generated inputs (``RunSpec.input_scale``'s default).
INPUT_SCALE = 3.0


@dataclass(frozen=True)
class Cell:
    """One workload coordinate (adversary included)."""

    variant: str
    algorithm: str
    n: int
    d: int
    f: int
    adversary: str
    #: Extra ``RunSpec`` fields (``broadcast``, ``p``, ``k``, ``transport``).
    knobs: tuple[tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        return f"{self.variant}/n{self.n}d{self.d}f{self.f}/{self.adversary}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reps: int
    #: ``(variant, algorithm, n, d, f, knobs)``; each row x each adversary
    #: is one cell.
    rows: tuple[tuple[str, str, int, int, int, tuple[tuple[str, Any], ...]], ...]
    adversaries: tuple[str, ...]
    #: Sim decisions are a pure function of the spec; live ones are not.
    deterministic: bool = True


def _rows(variants, shapes):
    return tuple(
        (variant, algorithm, n, d, f, knobs)
        for variant, algorithm, knobs in variants
        for n, d, f in shapes
    )


_ATOMIC = (("broadcast", "atomic"),)
_UDS = (("transport", "live-uds"),)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-rva",
            why=(
                "async Relaxed Verified Averaging over Bracha RBC: scheduler, "
                "network and message accounting dominate, geometry is small"
            ),
            reps=9,
            rows=_rows(
                (("averaging", "averaging", ()),),
                ((4, 3, 1), (6, 2, 1), (8, 3, 1), (7, 2, 2)),
            ),
            adversaries=("none", "silent", "mutate"),
        ),
        Workload(
            name="sim-geometry",
            why=(
                "sync runs over atomic broadcast (n messages): the LP kernels "
                "and their cache dominate, the event loop does almost nothing"
            ),
            reps=4,
            rows=_rows(
                (
                    ("algo-p2", "algo", _ATOMIC + (("p", 2),)),
                    ("algo-p1", "algo", _ATOMIC + (("p", 1),)),
                    ("algo-pinf", "algo", _ATOMIC + (("p", math.inf),)),
                    ("exact", "exact", _ATOMIC),
                    ("krelaxed-k2", "krelaxed", _ATOMIC + (("k", 2),)),
                ),
                ((12, 4, 1), (16, 4, 1), (13, 3, 2)),
            ),
            adversaries=("none", "mutate"),
        ),
        Workload(
            name="sim-broadcast",
            why=(
                "ALGO at d=2 over point-to-point EIG / Dolev-Strong at f>=2: "
                "relay trees, signature chains and the sync round flush dominate"
            ),
            reps=6,
            rows=(
                ("algo-eig", "algo", 7, 2, 2, (("broadcast", "eig"),)),
                ("algo-eig", "algo", 9, 2, 2, (("broadcast", "eig"),)),
                ("algo-eig", "algo", 10, 2, 2, (("broadcast", "eig"),)),
                ("algo-ds", "algo", 10, 2, 2, (("broadcast", "dolev-strong"),)),
                ("algo-ds", "algo", 10, 2, 3, (("broadcast", "dolev-strong"),)),
                ("algo-eig", "algo", 13, 2, 2, (("broadcast", "eig"),)),
            ),
            adversaries=("none", "silent", "equivocate"),
        ),
        Workload(
            name="live-uds",
            why=(
                "honest runs through the asyncio UDS backend: same handlers as "
                "the sim workloads plus wire codec, peer queues and sockets"
            ),
            reps=20,
            rows=(
                ("averaging", "averaging", 4, 3, 1, _UDS),
                ("averaging", "averaging", 6, 2, 1, _UDS),
                ("algo-eig", "algo", 6, 2, 1, _UDS + (("broadcast", "eig"),)),
                ("algo-eig", "algo", 7, 2, 2, _UDS + (("broadcast", "eig"),)),
                ("exact-eig", "exact", 8, 3, 1, _UDS + (("broadcast", "eig"),)),
            ),
            # The live backend rejects adversaries today (honest runs only).
            adversaries=("none",),
            deterministic=False,
        ),
    )
}


def cells_of(workload: Workload) -> list[Cell]:
    """The workload's cells in fixed order."""
    return [
        Cell(variant, algorithm, n, d, f, adversary, knobs)
        for variant, algorithm, n, d, f, knobs in workload.rows
        for adversary in workload.adversaries
    ]


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated run: everything ``RunSpec`` needs, as plain data."""

    id: str
    cell: Cell
    rep: int
    seed: int
    inputs: Any = field(repr=False)

    def to_spec(self, **extra: Any) -> Any:
        """A fresh ``RunSpec`` (adversary strategies are stateful, so the
        adversary object is rebuilt for every execution); ``extra`` sets
        further fields such as ``probes``."""
        from repro.core import RunSpec
        from repro.exec.grid import build_adversary

        cell = self.cell
        return RunSpec(
            algorithm=cell.algorithm,
            inputs=self.inputs,
            f=cell.f,
            adversary=build_adversary(cell.adversary, cell.n, cell.f),
            seed=self.seed,
            **dict(cell.knobs),
            **extra,
        )


#: Rep index of the untimed warm-up instance of each cell: outside every
#: timed list, so no timed instance finds its own results in a cache.
WARMUP_REP = 1_000_000


def generate(name: str, seed: int, *, reps: int | None = None) -> list[Instance]:
    """The workload's instance list — a pure function of ``(name, seed)``.

    The trial seed hashes the cell coordinates *without* the workload
    name, so the ``live-uds`` averaging cells run the very instances of
    their ``sim-rva`` twins and sim-vs-live overhead is a ratio of two
    named numbers over identical inputs.
    """
    workload = WORKLOADS[name]
    return _instances(workload, seed, range(workload.reps if reps is None else reps))


def warmups(name: str, seed: int) -> list[Instance]:
    """One instance per cell that is in no timed list."""
    return _instances(WORKLOADS[name], seed, range(WARMUP_REP, WARMUP_REP + 1))


def _instances(workload: Workload, seed: int, reps: range) -> list[Instance]:
    import numpy as np

    from repro.exec.grid import derive_trial_seed

    cells = cells_of(workload)
    out = []
    for rep in reps:
        for cell in cells:
            coords = (cell.n, cell.d, cell.f, cell.adversary, rep)
            run_seed = derive_trial_seed(seed, cell.variant, *coords)
            input_seed = derive_trial_seed(seed, cell.variant + "/inputs", *coords)
            inputs = np.random.default_rng(input_seed).normal(
                scale=INPUT_SCALE, size=(cell.n, cell.d)
            )
            inputs.setflags(write=False)
            out.append(Instance(f"{cell.key}/r{rep}", cell, rep, run_seed, inputs))
    return out


def input_bytes(instances: list[Instance]) -> bytes:
    """Every id, seed and input matrix, concatenated — what "same seed,
    same inputs" means, byte for byte."""
    return b"".join(
        f"{inst.id}|{inst.seed}|".encode() + inst.inputs.tobytes()
        for inst in instances
    )
