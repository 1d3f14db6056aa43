"""Shared pieces of the broadcast protocol implementations.

All three broadcast protocols here (OM/EIG, Dolev–Strong, Bracha) are
implemented as *embeddable state machines*: a consensus process hosts one
machine per broadcast instance (e.g. one per input being disseminated) and
forwards the relevant rounds/messages.  The machines never touch the
network directly — they return payloads to send or accept inbox
entries — which keeps them unit-testable without a scheduler and lets the
consensus layer multiplex ``n`` simultaneous instances over one tag
namespace.

Properties provided (under ``n >= 3f + 1``):

* **Validity** — if the sender (commander) is correct with value ``v``,
  every correct process outputs ``v``.
* **Agreement** — all correct processes output the same value, even for a
  Byzantine sender.
* (Bracha adds **Totality**: if one correct process delivers, all do.)
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "BROADCAST_KINDS",
    "BroadcastDefault",
    "majority",
    "make_broadcast",
]

#: Broadcast primitives constructible through :func:`make_broadcast` —
#: the construction-time vocabulary of ``RunSpec.broadcast`` (which also
#: accepts ``"atomic"``, a channel primitive with no state machine).
BROADCAST_KINDS = ("eig", "dolev-strong", "bracha")

#: Sentinel used as the default decision when a Byzantine sender's value
#: cannot be pinned down.  Protocol embeddings usually replace it with a
#: domain default (the paper never needs the default's actual value — a
#: detectably-faulty sender's input may be discarded or replaced).
BroadcastDefault = None


def majority(values: list[Any], default: Any = BroadcastDefault) -> Any:
    """Strict majority of ``values`` (by canonical equality), else default.

    NumPy arrays and nested tuples are compared via their canonical byte
    serialisation so that numerically identical vectors vote together.
    One object holding a majority — a correct commander's value fills
    its EIG subtree by reference — is returned serialising only the votes
    after its last, and one object voting several times is serialised
    once.  The vote lives with its one protocol caller, EIG resolution.
    """
    from .om import _majority

    return _majority(values, default, {})


def make_broadcast(
    kind: str,
    n: int,
    f: int,
    sender: int,
    pid: int,
    *,
    scheme: Any = None,
    instance: Optional[Any] = None,
    default: Any = BroadcastDefault,
) -> Any:
    """Construct one broadcast state machine — the single entry surface.

    Protocol code selects a primitive by name instead of importing the
    concrete ``*State`` classes (whose constructors are implementation
    detail and whose modules sit behind the XPT003 seam allowlist):

    ``"eig"``
        :class:`~repro.system.broadcast.om.EIGState` — unauthenticated
        OM(f); ``scheme`` must be omitted.
    ``"dolev-strong"``
        :class:`~repro.system.broadcast.dolev_strong.DolevStrongState`
        — authenticated; requires a
        :class:`~repro.system.crypto.SignatureScheme`.  ``instance``
        defaults to ``sender`` (the convention of every current caller:
        one instance per commander).
    ``"bracha"``
        :class:`~repro.system.broadcast.bracha.BrachaState` — async
        reliable broadcast; takes neither scheme nor default.
    """
    if kind == "eig":
        if scheme is not None:
            raise ValueError("eig broadcast is unauthenticated; scheme must be None")
        from .om import EIGState

        return EIGState(n, f, sender, pid, default=default)
    if kind == "dolev-strong":
        if scheme is None:
            raise ValueError("dolev-strong broadcast requires a SignatureScheme")
        from .dolev_strong import DolevStrongState

        return DolevStrongState(
            n, f, sender, pid, scheme,
            instance=sender if instance is None else instance,
            default=default,
        )
    if kind == "bracha":
        if scheme is not None:
            raise ValueError("bracha broadcast is unauthenticated; scheme must be None")
        from .bracha import BrachaState

        return BrachaState(n, f, sender, pid)
    raise ValueError(f"unknown broadcast kind {kind!r}; choices {BROADCAST_KINDS}")
