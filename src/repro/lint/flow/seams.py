"""The approved transport seams — XPT's allowlist, ROADMAP item 1's spec.

ROADMAP item 1 extracts a transport interface so ``core/`` and
``system/broadcast/`` can run as live asyncio nodes instead of simulated
processes.  That refactor is only safe if protocol code touches the
simulated transport exclusively through a narrow, enumerated surface —
anything else (a private deque, a scheduler field) silently couples the
algorithms to the simulator and breaks the moment the transport is
swapped.

This module *is* that surface, as data.  The XPT family enforces it:

* :data:`TRANSPORT_SEAMS` — the only names protocol code (``core/``,
  ``system/broadcast/``) may import from the seam modules: the
  message/process/network/scheduler surface, the transport selection
  surface (:mod:`repro.system.transport.base`), and the broadcast
  construction surface (:mod:`repro.system.broadcast.interface`).  The backend
  implementation modules (``transport/sim.py``, ``transport/live.py``,
  ``transport/wire.py``, ``transport/peer.py``) export *nothing* to
  protocol code — algorithms select backends by name, never by class.
* :data:`SEAM_INTERNAL` — seam modules themselves (the interface facades
  and package ``__init__`` re-exporters), exempt from the import
  allowlist so the facade can reach the implementations it fronts.
* :data:`APPROVED_HANDLER_GLOBALS` — module-level mutable state that is
  deliberately reachable from message handlers.  Each entry is
  node-local memoisation whose content never influences a decision value
  (results are bit-identical with the cache off), so it survives the
  move to one-OS-process-per-node unchanged.

Growing either list is an interface decision, not a lint workaround:
additions must be reflected in ``docs/static_analysis.md`` (and, for
seams, in the ROADMAP item 1 inventory).
"""

from __future__ import annotations

__all__ = [
    "APPROVED_HANDLER_GLOBALS",
    "SEAM_INTERNAL",
    "SEAM_MODULES",
    "TRANSPORT_SEAMS",
]

#: logical path -> names protocol code may import from that module.
TRANSPORT_SEAMS: dict[str, frozenset[str]] = {
    # The message envelope and its helpers: pure data, wire-ready.
    "system/messages.py": frozenset(
        {
            "ALL",
            "Message",
            "canonical_bytes",
            "defensive_copy",
            "estimate_bytes",
            "expand_bursts",
            "is_deeply_immutable",
        }
    ),
    # The process-facing execution surface (what a live node must offer),
    # and the one step every driver calls a handler through.
    "system/process.py": frozenset(
        {"Context", "SyncProcess", "AsyncProcess", "Inbox", "Node"}
    ),
    # The buffer abstraction a real transport replaces wholesale.
    "system/network.py": frozenset({"Network", "NetworkStats"}),
    # The driver surface the runners sit on.
    "system/scheduler.py": frozenset(
        {
            "SynchronousScheduler",
            "AsyncScheduler",
            "RunResult",
            "DeliveryPolicy",
            "RandomPolicy",
            "FifoPolicy",
            "DelayPolicy",
        }
    ),
    # How protocol code selects an execution substrate.  Note: no backend
    # classes; selection is by name only.
    "system/transport/base.py": frozenset(
        {
            "Transport",
            "TransportError",
            "get_transport",
            "transport_names",
        }
    ),
    "system/transport/__init__.py": frozenset(
        {
            "Transport",
            "TransportError",
            "get_transport",
            "transport_names",
        }
    ),
    # Backend implementations: private to the transport package.
    "system/transport/sim.py": frozenset(),
    "system/transport/live.py": frozenset(),
    "system/transport/wire.py": frozenset(),
    "system/transport/peer.py": frozenset(),
    # Broadcast construction surface: machines come from the factory,
    # never from the concrete State constructors.
    "system/broadcast/interface.py": frozenset(
        {
            "BROADCAST_KINDS",
            "BroadcastDefault",
            "majority",
            "make_broadcast",
        }
    ),
    "system/broadcast/__init__.py": frozenset(
        {
            "BROADCAST_KINDS",
            "BroadcastDefault",
            "majority",
            "make_broadcast",
            "INIT",
            "ECHO",
            "READY",
        }
    ),
    # Protocol constants stay importable; the State classes do not.
    "system/broadcast/bracha.py": frozenset({"INIT", "ECHO", "READY"}),
    "system/broadcast/om.py": frozenset(),
    "system/broadcast/dolev_strong.py": frozenset(),
}

#: Module names (dotted) covered by the seam discipline.
SEAM_MODULES: dict[str, str] = {
    "repro.system.messages": "system/messages.py",
    "repro.system.process": "system/process.py",
    "repro.system.network": "system/network.py",
    "repro.system.scheduler": "system/scheduler.py",
    "repro.system.transport": "system/transport/__init__.py",
    "repro.system.transport.base": "system/transport/base.py",
    "repro.system.transport.sim": "system/transport/sim.py",
    "repro.system.transport.live": "system/transport/live.py",
    "repro.system.transport.wire": "system/transport/wire.py",
    "repro.system.transport.peer": "system/transport/peer.py",
    "repro.system.broadcast": "system/broadcast/__init__.py",
    "repro.system.broadcast.interface": "system/broadcast/interface.py",
    "repro.system.broadcast.bracha": "system/broadcast/bracha.py",
    "repro.system.broadcast.om": "system/broadcast/om.py",
    "repro.system.broadcast.dolev_strong": "system/broadcast/dolev_strong.py",
}

#: Seam-machinery files exempt from the import allowlist: the facades
#: must import the implementations they front (interface.py constructs
#: the State classes; the package __init__ modules re-export).  The
#: private-attribute discipline still applies to them.
SEAM_INTERNAL: frozenset[str] = frozenset(
    {
        "system/broadcast/interface.py",
        "system/broadcast/__init__.py",
        "system/transport/__init__.py",
    }
)

#: (logical path, global name) pairs a handler may reach: node-local
#: memoisation, deterministic, decision-transparent (see module docstring).
APPROVED_HANDLER_GLOBALS: frozenset[tuple[str, str]] = frozenset(
    {
        # Cross-instance memo of every round's claim value: every correct
        # process recomputes the identical deterministic value (round 1's
        # selection, a later round's average) for the same referenced
        # values; the cache only dedupes the solve or the mean, and its
        # arrays are read-only.  Cleared wholesale (never iterated), so
        # hash order cannot leak.
        ("core/averaging.py", "_SELECT_CACHE"),
    }
)
