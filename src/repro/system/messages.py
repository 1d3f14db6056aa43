"""Message envelopes exchanged through the simulated network.

A message is an immutable envelope ``(src, dst, tag, payload)`` plus
bookkeeping (send sequence number, logical round for synchronous
executions).  Payloads are ordinary Python objects; protocols define their
own payload structures (e.g. EIG relay tuples, Bracha phase records).

``canonical_bytes`` provides a deterministic serialisation used by the
simulated signature scheme — NumPy arrays are serialised via shape+dtype+
data bytes so that numerically identical vectors sign identically.
"""

from __future__ import annotations

import copy
import io
import pickle
from typing import Any, NamedTuple, Optional

import numpy as np

__all__ = [
    "ALL",
    "Message",
    "canonical_bytes",
    "defensive_copy",
    "estimate_bytes",
    "is_deeply_immutable",
]


#: Assumed wire cost of fixed-width fields (ids, seq, round, framing).
_ENVELOPE_BYTES = 24
_SCALAR_BYTES = 8
#: Exact types that :func:`estimate_bytes` counts as one scalar slot.
_SIZED_SCALARS = frozenset({int, float, bool, type(None)})


def estimate_bytes(obj: Any) -> int:
    """Cheap wire-size estimate of a payload object, in bytes.

    Deliberately *not* ``len(pickle.dumps(...))`` — this runs on every
    ``Network.submit`` so it must stay allocation-light.  Scalars count 8
    bytes, strings/bytes their length, NumPy arrays their buffer size,
    containers the sum of their items plus a small per-item overhead.
    """
    if type(obj) is tuple and _SIZED_SCALARS.issuperset(map(type, obj)):
        # A flat run of numbers (an honest vector) without a call per item.
        return 2 + _SCALAR_BYTES * len(obj)
    if obj is None or isinstance(obj, (int, float, bool, np.generic)):
        return _SCALAR_BYTES
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 2 + sum(estimate_bytes(v) for v in obj)
    if isinstance(obj, dict):
        return 2 + sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in obj.items()
        )
    # Unknown protocol object (e.g. a Signature dataclass): fall back to
    # its instance dict when present, else one scalar slot.
    d = getattr(obj, "__dict__", None)
    if d:
        return estimate_bytes(d)
    return _SCALAR_BYTES


_IMMUTABLE = (int, float, bool, str, bytes, frozenset, type(None))


def defensive_copy(obj: Any) -> Any:
    """Deep copy of a payload that a handler retains past its own return.

    A handler that both *stores* an in-flight payload and *forwards* it
    (or returns it to the caller) aliases one object into two lifetimes:
    a mutation through either reference silently corrupts the other — in
    a Byzantine-fault simulator that can masquerade as equivocation.
    Retained payloads must go through this helper (enforced by the HYG002
    lint rule).  Immutable scalars and deeply immutable tuples of them
    (what ``copy.deepcopy`` would hand back unchanged) are returned as-is.
    """
    if isinstance(obj, _IMMUTABLE) or is_deeply_immutable(obj):
        return obj
    return copy.deepcopy(obj)


#: Exact types whose canonical form is the object itself.  NumPy scalars
#: (``np.float64`` subclasses ``float``) must miss this set.
_PLAIN_SCALARS = frozenset({int, float, bool, str, bytes, type(None)})


def _canon(x: Any) -> Any:
    if type(x) in _PLAIN_SCALARS:
        return x
    if isinstance(x, (list, tuple)):
        # The honest payload shapes — ("val", floats), ("refs", ints) —
        # bottom out in flat runs of scalars: no per-item call for those.
        if _PLAIN_SCALARS.issuperset(map(type, x)):
            return tuple(x)
        return tuple(map(_canon, x))
    if isinstance(x, np.ndarray):
        return ("__ndarray__", x.shape, str(x.dtype), x.tobytes())
    if isinstance(x, np.generic):
        return ("__npscalar__", str(x.dtype), x.item())
    if isinstance(x, dict):
        # Ordered by the keys' canonical bytes: a total order, where
        # Python's ``<`` raises on the mixed-type keys a Byzantine peer
        # is free to send.
        items = [(_canon(k), _canon(v)) for k, v in x.items()]
        items.sort(key=lambda item: _dump(item[0]))
        return ("__dict__", tuple(items))
    return x


def _dump(canon: Any) -> bytes:
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(canon)
    return buf.getvalue()


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic byte serialisation for signing/hashing.

    Converts NumPy arrays (at any nesting depth inside tuples/lists/dicts)
    to a canonical ``(shape, dtype, bytes)`` form, then pickles with
    protocol 4 — stable for the value types protocols exchange here.

    The pickler runs with its memo off: a memoising pickler writes the
    second occurrence of one ``str``/``bytes`` *object* as a back
    reference, so equal values would serialise differently depending on
    which of their parts happen to be the same object — a locally built
    payload against the same payload unpickled from a peer.
    """
    return _dump(_canon(obj))


def is_deeply_immutable(obj: Any) -> bool:
    """True for plain scalars and (nested) tuples of them — every honest
    payload shape.  Nothing reachable from such an object can change, so
    a fact derived from it (its canonical bytes) holds for as long as
    the object is held."""
    if type(obj) is tuple:
        return _PLAIN_SCALARS.issuperset(map(type, obj)) or all(
            map(is_deeply_immutable, obj)
        )
    return type(obj) in _PLAIN_SCALARS


#: Destination sentinel for channel-level atomic broadcast: the network
#: delivers one identical copy to every process.  Models the paper's
#: footnote 3 ("when the underlying network is a reliable broadcast
#: channel") — equivocation is physically impossible on such a channel.
ALL = -1


class Message(NamedTuple):
    """One envelope in flight.

    A tuple underneath: one is built per destination of every send, and
    a tuple costs half of what a frozen dataclass does to construct.
    Immutable either way; use ``msg._replace(payload=...)`` for a copy
    with one field changed.

    Attributes
    ----------
    src, dst:
        Sender and receiver process ids; ``dst = ALL`` (-1) is a
        channel-level atomic broadcast.
    tag:
        Protocol-level tag (e.g. ``"eig"``, ``"echo"``, ``"rva"``), letting
        multiple sub-protocols multiplex one network.
    payload:
        Arbitrary protocol data.
    round:
        Logical round for synchronous executions (None in async runs).
    seq:
        Per-sender send sequence number; preserves per-link FIFO order.
        Bookkeeping, not content: equality and hashing ignore it.
    """

    src: int
    dst: int
    tag: str
    payload: Any
    round: Optional[int] = None
    seq: int = 0

    def __eq__(self, other: object) -> bool:
        # Not NotImplemented for a foreign type: the reflected
        # ``tuple.__eq__`` would then compare the six fields.
        return other.__class__ is Message and self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:5])

    @property
    def is_atomic_broadcast(self) -> bool:
        """True when this envelope is a channel-level broadcast."""
        return self.dst == ALL

    def estimated_size(self) -> int:
        """Wire-size estimate: envelope + tag + payload (bytes)."""
        return _ENVELOPE_BYTES + len(self.tag) + estimate_bytes(self.payload)

    def __repr__(self) -> str:  # compact transcript-friendly form
        r = f", r={self.round}" if self.round is not None else ""
        return f"Msg({self.src}->{self.dst} {self.tag}{r})"
