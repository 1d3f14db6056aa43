"""Declarative run specification — the single vocabulary for experiments.

A :class:`RunSpec` is one frozen value describing one consensus
execution: which algorithm, the system shape ``(n, d, f)``, the inputs
(given explicitly or derived from ``seed``), the adversary, and every
knob of the six algorithms.  ``repro.core.runner.run(spec)`` executes
it — the only way to run one.

Why a dataclass instead of a function per algorithm: the experiment
engine (:mod:`repro.exec`), the DST explorer, the benchmarks, and the
CLI all need to *build, store, and compare* run descriptions before
executing them — a frozen value does that; a call frame does not.

Canonical knob vocabulary (see ``docs/api.md``):

============  =========================================================
``p``         norm order of the relaxation
``broadcast``   broadcast primitive of the synchronous algorithms
``transport``   execution backend (``"sim"``, ``"live-tcp"``,
              ``"live-uds"``) — see :mod:`repro.system.transport`
``rounds``    protocol rounds an algorithm executes; ``None`` means
              the algorithm's default
``max_rounds``  synchronous scheduler safety cap, not a protocol knob
``max_steps``   asynchronous scheduler safety cap
``epsilon``   agreement target (approximate/averaging algorithms)
``delta``     relaxation radius requested of the checker/algorithm
============  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection, Mapping, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..system.adversary import Adversary
    from ..system.scheduler import DeliveryPolicy
    from ..system.topology import Topology

__all__ = ["ALGORITHMS", "RUN_KNOBS", "RunSpec", "derive_inputs"]

PNorm = Union[float, int]

#: Canonical algorithm names accepted by :func:`repro.core.runner.run`.
ALGORITHMS = ("exact", "algo", "krelaxed", "scalar", "iterative", "averaging")

#: The :class:`RunSpec` fields a plain-data document carries — a topology
#: file, the ``transport.node.topology`` event of a node's trail — with
#: the JSON types each is read as; the first is the one it is written as.
#: (Inputs, adversary, topology, policy, probes are objects: a document
#: describes an honest, seed-derived run.)
RUN_KNOBS: dict[str, tuple[type, ...]] = {
    "algorithm": (str,),
    "n": (int,),
    "d": (int,),
    "f": (int,),
    "seed": (int,),
    "broadcast": (str,),
    "p": (float, int),
    "k": (int,),
    "delta": (float, int),
    "epsilon": (float, int),
    "mode": (str,),
    "alpha": (float, int),
    "rounds": (int, type(None)),
    "input_scale": (float, int),
    "max_rounds": (int,),
    "max_steps": (int,),
}


def derive_inputs(seed: int, input_scale: float, n: int, d: int) -> np.ndarray:
    """The ``(n, d)`` input matrix a seed stands for — the one derivation
    behind :meth:`RunSpec.resolved_inputs`, the DST scenarios, live
    nodes and the fleet probes."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=input_scale, size=(n, d))


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One consensus execution, as a frozen plain value.

    Parameters
    ----------
    algorithm:
        One of :data:`ALGORITHMS`: ``"exact"`` (Vaidya–Garg exact BVC),
        ``"algo"`` (the paper's ALGO), ``"krelaxed"``, ``"scalar"``,
        ``"iterative"`` (Vaidya 2014 approximate BVC), ``"averaging"``
        (Relaxed Verified Averaging, asynchronous).
    inputs:
        Explicit ``(n, d)`` input matrix.  When omitted, inputs are
        derived deterministically from ``seed``/``input_scale`` over the
        declared ``(n, d)`` shape — the same derivation the DST
        :class:`~repro.dst.scenarios.Scenario` uses.
    n, d:
        System shape.  Redundant (and checked) when ``inputs`` is given;
        required when it is not.
    f:
        Maximum number of Byzantine processes.
    adversary:
        :class:`~repro.system.adversary.Adversary` (default: none
        faulty).
    broadcast:
        Broadcast primitive for the synchronous algorithms (``"eig"``,
        ``"dolev-strong"``, or ``"atomic"``).
    transport:
        Execution backend, one of the registered transport names:
        ``"sim"`` (deterministic in-process simulator, the default),
        ``"live-tcp"`` / ``"live-uds"`` (real asyncio nodes over
        loopback sockets; honest runs only).
    topology:
        Communication graph for ``"iterative"`` (default: complete).
    p, k, delta, epsilon:
        Relaxation knobs: norm order, coordinate relaxation, relaxation
        radius, agreement target.
    mode:
        ``"averaging"`` selection mode: ``"optimal"`` (the paper's) or
        ``"zero"`` (classic verified-averaging baseline).
    alpha:
        ``"iterative"`` mixing weight.
    rounds:
        Protocol rounds (``"iterative"`` steps / ``"averaging"``
        rounds).  ``None``: the algorithm's own default (30 for
        iterative; the contraction-bound estimate for averaging).
    max_rounds, max_steps:
        Scheduler safety caps (synchronous rounds / async activations).
    probes:
        Online invariant probes evaluated during the run: names from
        :data:`repro.obs.probes.PROBE_NAMES` (or ``"all"``), or
        pre-built :class:`~repro.obs.probes.Probe` objects.  Reports
        surface as ``RunResult.probes``; enabling probes never changes a
        decision.
    policy:
        Async delivery policy (``"averaging"`` only).
    seed:
        Master seed: drives the scheduler, the adversary rng, and —
        when ``inputs`` is omitted — the input derivation.
    input_scale:
        Standard deviation of derived inputs.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` installed
        for the run; the run's own metrics land in it (and it is
        surfaced as ``RunResult.metrics``).
    """

    algorithm: str
    f: int = 1
    inputs: Optional[np.ndarray] = None
    n: Optional[int] = None
    d: Optional[int] = None
    adversary: Optional["Adversary"] = None
    broadcast: str = "eig"
    transport: str = "sim"
    topology: Optional["Topology"] = None
    p: PNorm = 2
    k: int = 1
    delta: float = 0.0
    epsilon: float = 1e-2
    mode: str = "optimal"
    alpha: float = 0.5
    rounds: Optional[int] = None
    max_rounds: int = 64
    max_steps: int = 2_000_000
    policy: Optional["DeliveryPolicy"] = None
    probes: tuple = ()
    seed: int = 0
    input_scale: float = 3.0
    metrics: Optional["MetricsRegistry"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choices {ALGORITHMS}"
            )
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        from ..system.broadcast.interface import BROADCAST_KINDS

        if self.broadcast not in BROADCAST_KINDS + ("atomic",):
            raise ValueError(
                f"unknown broadcast {self.broadcast!r}; choices "
                f"{BROADCAST_KINDS + ('atomic',)}"
            )
        from ..system.transport.base import transport_names

        if self.transport not in transport_names():
            raise ValueError(
                f"unknown transport {self.transport!r}; choices "
                f"{transport_names()}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not isinstance(self.probes, tuple):
            object.__setattr__(self, "probes", tuple(self.probes))
        from ..obs.probes import PROBE_NAMES

        for probe in self.probes:
            if isinstance(probe, str):
                if probe not in PROBE_NAMES + ("all",):
                    raise ValueError(
                        f"unknown probe {probe!r}; choices "
                        f"{PROBE_NAMES + ('all',)}"
                    )
            elif not hasattr(probe, "on_boundary"):
                raise ValueError(
                    f"probes entries must be names or Probe objects, "
                    f"got {type(probe).__name__}"
                )
        if self.inputs is not None:
            arr = np.atleast_2d(np.asarray(self.inputs, dtype=float)).copy()
            arr.setflags(write=False)
            object.__setattr__(self, "inputs", arr)
            n, d = arr.shape
            if self.n is not None and self.n != n:
                raise ValueError(f"n={self.n} disagrees with inputs shape {arr.shape}")
            if self.d is not None and self.d != d:
                raise ValueError(f"d={self.d} disagrees with inputs shape {arr.shape}")
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "d", d)
        else:
            if self.n is None or self.d is None:
                raise ValueError(
                    "either inputs or both n and d must be given "
                    f"(got n={self.n}, d={self.d})"
                )
        assert self.n is not None and self.d is not None
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if self.algorithm == "scalar" and self.d != 1:
            raise ValueError(f"scalar consensus requires d=1, got d={self.d}")

    def resolved_inputs(self) -> np.ndarray:
        """The ``(n, d)`` input matrix this spec runs on.

        Explicit ``inputs`` verbatim; otherwise the deterministic
        seed-derived matrix (:func:`derive_inputs`).
        """
        if self.inputs is not None:
            return self.inputs
        assert self.n is not None and self.d is not None
        return derive_inputs(self.seed, self.input_scale, self.n, self.d)

    def to_document(self) -> dict[str, Any]:
        """This spec's :data:`RUN_KNOBS`, as JSON-ready plain data."""
        out: dict[str, Any] = {}
        for name, types in RUN_KNOBS.items():
            value = getattr(self, name)
            out[name] = None if value is None else types[0](value)
        return out

    @classmethod
    def from_document(
        cls, doc: Mapping[str, Any], *, envelope: Collection[str] = ()
    ) -> "RunSpec":
        """The run a plain-data document describes.

        ``doc`` must hold exactly the :data:`RUN_KNOBS` keys plus the
        caller's own ``envelope`` keys (which are not looked at), each
        knob with one of its table types; anything else is a
        ``ValueError``, as is a knob value :class:`RunSpec` rejects.
        """
        missing = [name for name in RUN_KNOBS if name not in doc]
        if missing:
            raise ValueError(f"missing run knobs: {missing}")
        unknown = sorted(set(doc) - set(RUN_KNOBS) - set(envelope))
        if unknown:
            raise ValueError(f"unknown run knobs: {unknown}")
        knobs: dict[str, Any] = {}
        for name, types in RUN_KNOBS.items():
            value = doc[name]
            if type(value) not in types:
                raise ValueError(
                    f"run knob {name!r} must be "
                    f"{' or '.join(t.__name__ for t in types)}, "
                    f"got {value!r}"
                )
            knobs[name] = None if value is None else types[0](value)
        return cls(**knobs)
