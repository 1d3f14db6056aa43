"""The transport abstraction: one protocol surface, pluggable backends.

A :class:`Transport` executes protocol processes — the same
:class:`~repro.system.process.SyncProcess` / ``AsyncProcess`` objects,
driving the same :class:`~repro.system.process.Context` surface — over
some message-moving substrate and returns the usual
:class:`~repro.system.scheduler.RunResult`.  Two backends ship:

``"sim"``
    :class:`~repro.system.transport.sim.SimTransport` — a thin adapter
    over the in-process :class:`~repro.system.scheduler.SynchronousScheduler`
    / ``AsyncScheduler``.  Deterministic and bit-identical to driving the
    schedulers directly: DST replay, causal tracing, probes, and the
    sweep decision digests all run through it unchanged.

``"live-tcp"`` / ``"live-uds"``
    :class:`~repro.system.transport.live.LiveTransport` — real asyncio
    nodes speaking the length-prefixed wire protocol of
    :mod:`repro.system.transport.wire` over loopback TCP or Unix-domain
    sockets, with peer handshake, reconnect, and per-link backpressure.
    Honest executions only (a live network has no rushing adversary).

Protocol code (``core/``) selects a backend by name through
:func:`get_transport`; :func:`transport_names` is the construction-time
validation surface for ``RunSpec.transport``.  The backend modules are
imported only when asked for, so importing this module stays cheap and
cycle-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..adversary import Adversary
    from ..process import AsyncProcess, SyncProcess
    from ..scheduler import DeliveryPolicy, RunResult
    from ..topology import Topology
    from ...obs.probes import Probe

__all__ = [
    "Transport",
    "TransportError",
    "get_transport",
    "transport_names",
]


class TransportError(RuntimeError):
    """A transport backend could not execute the requested run."""


class Transport(ABC):
    """One message-moving backend capable of executing protocol processes.

    Implementations receive fully constructed process objects (the
    protocol layer owns process construction — including signature
    schemes and per-algorithm parameters) and drive them to decisions.
    ``rng`` is the run's master generator, already positioned where the
    runner left it (after any signature-key draws), so the deterministic
    backend stays bit-identical; non-deterministic backends derive per-node seeds from
    ``seed`` instead.
    """

    #: Name of this backend (``"sim"``, ``"live-tcp"``, ...).
    name: str = ""
    #: True when two runs of the same spec produce identical decisions.
    deterministic: bool = False

    @abstractmethod
    def run_sync(
        self,
        processes: Sequence["SyncProcess"],
        f: int,
        *,
        adversary: Optional["Adversary"] = None,
        rng: Optional["np.random.Generator"] = None,
        max_rounds: int = 10_000,
        sign: Optional[Callable[[int, Any], Any]] = None,
        topology: Optional["Topology"] = None,
        probes: Sequence["Probe"] = (),
        seed: int = 0,
    ) -> "RunResult":
        """Execute lockstep synchronous rounds until decision (or cap)."""

    @abstractmethod
    def run_async(
        self,
        processes: Sequence["AsyncProcess"],
        f: int,
        *,
        adversary: Optional["Adversary"] = None,
        policy: Optional["DeliveryPolicy"] = None,
        rng: Optional["np.random.Generator"] = None,
        max_steps: int = 1_000_000,
        probes: Sequence["Probe"] = (),
        seed: int = 0,
    ) -> "RunResult":
        """Execute event-driven asynchronous delivery until decision."""


def transport_names() -> tuple[str, ...]:
    """The backend names, sorted — ``RunSpec.transport`` choices."""
    return ("live-tcp", "live-uds", "sim")


def get_transport(name: str) -> Transport:
    """Instantiate the backend called ``name``.

    Raises ``ValueError`` on unknown names so callers validating user
    input get a message with the available choices.
    """
    if name == "sim":
        from .sim import SimTransport

        return SimTransport()
    if name in ("live-tcp", "live-uds"):
        from .live import LiveTransport

        return LiveTransport(kind=name[len("live-"):])
    raise ValueError(
        f"unknown transport {name!r}; choices {transport_names()}"
    )
