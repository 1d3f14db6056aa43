"""Length-prefixed wire protocol for live transports.

Frame layout (everything big-endian)::

    +----------------+----------------------------------------+
    | length: u32    | body: pickled record (length bytes)    |
    +----------------+----------------------------------------+

The body is one *record* — a plain tuple whose first element is the
record type and whose remaining fields are listed, with their types, in
:data:`RECORD_FIELDS`.  :func:`decode_body` checks every record against
that table, so whatever a reader is handed already has the right arity
and field types; anything else a peer sends is a :class:`WireError`.

``HELLO``
    ``(HELLO, node_id, wire_version, instance)`` — exchanged once per
    connection, both directions, before anything else
    (:func:`read_hello`).  There is one wire version,
    :data:`WIRE_VERSION`; a HELLO advertising another one — or another
    instance, or an unexpected identity — aborts the connection.
``MSG``
    ``(MSG, link_seq, src, dst, tag, payload, round, stamp)`` where
    ``stamp`` is the *causal stamp* ``(origin_eid, lamport, clock)`` —
    the sender-local event id, Lamport timestamp, and vector clock of
    the send event — or ``None`` when causal tracing is off.
    ``link_seq`` is the per-link monotonic sequence number used for
    receiver-side deduplication across reconnects.
``ROUND``
    ``(ROUND, link_seq, round, decided)`` — synchronous round barrier
    marker: the sender finished emitting its round-``round`` traffic on
    this link (per-link FIFO makes the marker a happens-after fence).
``DECIDED``
    ``(DECIDED, link_seq, node_id)`` — asynchronous termination marker.

A link encodes each record once, when it is enqueued; the frame bytes
are the snapshot, so a sender mutating a payload object afterwards can
never corrupt a queued or in-flight frame.  Payloads rely on the XPT002
lint contract (plain picklable data — no lambdas, processes, contexts,
or RNGs).  Pickle protocol 4 matches
:func:`~repro.system.messages.canonical_bytes`.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Optional

from ..messages import Message

__all__ = [
    "DECIDED",
    "HELLO",
    "MAX_FRAME_BYTES",
    "MSG",
    "RECORD_FIELDS",
    "ROUND",
    "STAMP_FIELDS",
    "WIRE_VERSION",
    "WireError",
    "check_hello",
    "decode_body",
    "decode_message",
    "encode_decided",
    "encode_for_version",
    "encode_hello",
    "encode_message",
    "encode_record",
    "encode_round",
    "frame",
    "message_record",
    "message_stamp",
    "read_frames",
    "read_hello",
]

#: The one protocol version; advertised in every HELLO.
WIRE_VERSION = 2

#: Upper bound on one frame body — a corrupt length prefix must not make
#: the receiver allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: One ``read()`` of ``read_frames``: asyncio's default stream high-water
#: mark, so a wake-up takes whatever the reader was allowed to buffer.
READ_BYTES = 64 * 1024

_LEN = struct.Struct("!I")

HELLO = "hello"
MSG = "msg"
ROUND = "round"
DECIDED = "decided"

_INT, _STR, _NONE = (int,), (str,), type(None)

#: record type -> its fields after the type tag, in order, each with the
#: exact types a value may have (``bool`` is not an ``int`` here);
#: ``None`` in place of the types means any picklable payload.
RECORD_FIELDS: dict[str, tuple[tuple[str, Optional[tuple[type, ...]]], ...]] = {
    HELLO: (("node_id", _INT), ("wire_version", _INT), ("instance", _STR)),
    MSG: (
        ("link_seq", _INT), ("src", _INT), ("dst", _INT), ("tag", _STR),
        ("payload", None), ("round", (int, _NONE)), ("stamp", (tuple, _NONE)),
    ),
    ROUND: (("link_seq", _INT), ("round", _INT), ("decided", (bool,))),
    DECIDED: (("link_seq", _INT), ("node_id", _INT)),
}

#: The fields of a MSG record's causal stamp; ``clock`` holds ints only.
STAMP_FIELDS = (("origin_eid", _INT), ("lamport", _INT), ("clock", (tuple,)))


class WireError(ValueError):
    """Malformed frame, oversized frame, or handshake mismatch."""


# --------------------------------------------------------------- encoding


def encode_record(record: tuple) -> bytes:
    """Frame one record: length prefix + pickled body."""
    body = pickle.dumps(record, protocol=4)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LEN.pack(len(body)) + body


def encode_hello(node_id: int, instance: str) -> bytes:
    return encode_record((HELLO, int(node_id), WIRE_VERSION, str(instance)))


def message_record(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> tuple:
    """The MSG record for one protocol message.

    The payload is *not* copied: the record aliases it until it is
    encoded, which a link does in the same call that enqueues it.
    """
    if stamp is not None:
        origin_eid, lamport, clock = stamp
        stamp = (int(origin_eid), int(lamport), tuple(int(c) for c in clock))
    return (
        MSG,
        int(link_seq),
        int(msg.src),
        int(msg.dst),
        str(msg.tag),
        msg.payload,
        msg.round,
        stamp,
    )


def encode_message(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> bytes:
    """Encode one protocol message (the bytes snapshot the payload)."""
    return encode_record(message_record(msg, link_seq, stamp))


def encode_round(link_seq: int, round: int, decided: bool) -> bytes:
    return encode_record((ROUND, int(link_seq), int(round), bool(decided)))


def encode_decided(link_seq: int, node_id: int) -> bytes:
    return encode_record((DECIDED, int(link_seq), int(node_id)))


def encode_for_version(record: tuple, version: int) -> bytes:
    """Encode a record for a connection running at ``version`` — which
    can only be :data:`WIRE_VERSION`."""
    if version != WIRE_VERSION:
        raise WireError(
            f"cannot encode for wire version {version}; "
            f"this build speaks {WIRE_VERSION} only"
        )
    return encode_record(record)


def frame(body: bytes) -> bytes:
    """Attach the length prefix to an already-pickled body (tests)."""
    return _LEN.pack(len(body)) + body


# --------------------------------------------------------------- decoding


def _check_fields(values: tuple, fields: tuple, what: str) -> None:
    if len(values) != len(fields):
        raise WireError(
            f"malformed {what}: {len(values)} fields, expected {len(fields)}"
        )
    for value, (name, types) in zip(values, fields):
        if types is not None and type(value) not in types:
            raise WireError(
                f"malformed {what}: {name} is {type(value).__name__}, "
                f"expected {' or '.join(t.__name__ for t in types)}"
            )


def decode_body(body: bytes) -> tuple:
    """Unpickle one frame body and check it against :data:`RECORD_FIELDS`."""
    try:
        record = pickle.loads(body)
    except Exception as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(record, tuple) or not record:
        raise WireError(f"frame body is not a record tuple: {record!r}")
    kind = record[0]
    fields = RECORD_FIELDS.get(kind) if type(kind) is str else None
    if fields is None:
        raise WireError(f"unknown record type {kind!r}")
    _check_fields(record[1:], fields, kind)
    stamp = record[7] if kind == MSG else None
    if stamp is not None:
        _check_fields(stamp, STAMP_FIELDS, "msg stamp")
        if not all(type(c) is int for c in stamp[2]):
            raise WireError("malformed msg stamp: clock holds a non-int")
    return record


def decode_message(record: tuple) -> tuple[int, Message]:
    """``(link_seq, Message)`` from a decoded MSG record."""
    _, link_seq, src, dst, tag, payload, round_, _ = record
    return link_seq, Message(src, dst, tag, payload, round=round_)


def message_stamp(record: tuple) -> Optional[tuple]:
    """The ``(origin_eid, lamport, clock)`` causal stamp of a decoded MSG
    record — None when the sender traced nothing."""
    return record[7]


def check_hello(
    record: tuple,
    *,
    instance: str,
    expected_id: Optional[int] = None,
) -> int:
    """Validate a decoded HELLO; returns the peer's node id.

    Raises :class:`WireError` on a wire version other than
    :data:`WIRE_VERSION`, an instance mismatch, or (when ``expected_id``
    is given) an unexpected peer identity — the connection must be
    dropped in every case.
    """
    _, node_id, version, peer_instance = record
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version}, "
            f"we speak {WIRE_VERSION}"
        )
    if peer_instance != instance:
        raise WireError(
            f"instance mismatch: peer is running {peer_instance!r}, "
            f"we are running {instance!r}"
        )
    if expected_id is not None and node_id != expected_id:
        raise WireError(
            f"peer identified as node {node_id}, expected {expected_id}"
        )
    return node_id


async def read_hello(
    reader: Any, *, instance: str, expected_id: Optional[int] = None
) -> int:
    """Read the HELLO a peer opens a connection with and validate it
    (:func:`check_hello`); returns the peer's node id.  Both ends of a
    handshake — listener and dialer — read the other side's HELLO here.
    """
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if length > MAX_FRAME_BYTES:
        raise WireError(f"oversized HELLO frame ({length} bytes)")
    record = decode_body(await reader.readexactly(length))
    if record[0] != HELLO:
        raise WireError(f"expected HELLO, got {record[0]!r}")
    return check_hello(record, instance=instance, expected_id=expected_id)


async def read_frames(reader: Any) -> Any:
    """Async generator of decoded records from an ``asyncio.StreamReader``.

    Each wake-up reads whatever the socket has (up to :data:`READ_BYTES`)
    and yields every complete frame in it; an incomplete tail waits for
    the next read.  Terminates cleanly on EOF or connection loss (a
    truncated trailing frame counts as connection loss — the sender will
    retransmit it after reconnecting); raises :class:`WireError` on an
    oversized length prefix, before any of that body is buffered, and on
    an undecodable body.
    """
    buf = bytearray()
    while True:
        try:
            chunk = await reader.read(READ_BYTES)
        except ConnectionError:
            return
        if not chunk:
            return  # EOF; a partial frame left in buf is the sender's to resend
        buf += chunk
        pos = 0
        while len(buf) - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = pos + _LEN.size + length
            if end > len(buf):
                break
            yield decode_body(bytes(buf[pos + _LEN.size:end]))
            pos = end
        del buf[:pos]
