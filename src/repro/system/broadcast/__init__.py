"""Broadcast protocols: OM(f)/EIG, authenticated Dolev–Strong, Bracha RBC.

Protocol code constructs machines through
:func:`~repro.system.broadcast.interface.make_broadcast`; the concrete
``*State`` classes remain importable for tests and embeddings that poke
at machine internals.
"""

from .bracha import ECHO, INIT, READY, BrachaState
from .dolev_strong import DolevStrongState
from .interface import (
    BROADCAST_KINDS,
    BroadcastDefault,
    majority,
    make_broadcast,
)
from .om import EIGState

__all__ = [
    "BROADCAST_KINDS",
    "BrachaState",
    "BroadcastDefault",
    "DolevStrongState",
    "ECHO",
    "EIGState",
    "INIT",
    "READY",
    "majority",
    "make_broadcast",
]
