"""Length-prefixed, versioned wire protocol for live transports.

Frame layout (everything big-endian)::

    +----------------+----------------------------------------+
    | length: u32    | body: pickled record (length bytes)    |
    +----------------+----------------------------------------+

The body is one *record* — a plain tuple whose first element is the
record type:

``HELLO``
    ``(HELLO, node_id, wire_version, instance_id)`` — exchanged once per
    connection, both directions, before anything else.  The version is
    *negotiated*: each side advertises the newest version it speaks and
    the connection runs at ``min`` of the two (:func:`negotiate`), so a
    version-1 peer can still talk to a version-2 node.  A version
    outside :data:`SUPPORTED_VERSIONS` — or an instance mismatch —
    aborts the connection (:class:`WireError`).
``MSG``
    version 1: ``(MSG, link_seq, src, dst, tag, payload, round)``;
    version 2 appends a *causal stamp*:
    ``(MSG, link_seq, src, dst, tag, payload, round, stamp)`` where
    ``stamp`` is ``(origin_eid, lamport, clock)`` — the sender-local
    event id, Lamport timestamp, and vector clock of the send event —
    or ``None`` when causal tracing is off.  ``link_seq`` is the
    per-link monotonic sequence number used for receiver-side
    deduplication across reconnects.
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

from ..messages import ALL, Message

__all__ = [
    "DECIDED",
    "HELLO",
    "MAX_FRAME_BYTES",
    "MSG",
    "ROUND",
    "SUPPORTED_VERSIONS",
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
    "hello_version",
    "is_atomic",
    "message_record",
    "message_stamp",
    "negotiate",
    "read_frames",
]

#: Newest protocol version this build speaks; advertised in every HELLO.
WIRE_VERSION = 2

#: Every version this build can *run* a connection at.  Version 1 frames
#: carry no causal stamp; version 2 MSG records append one.
SUPPORTED_VERSIONS = (1, 2)

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

_RECORD_TYPES = frozenset({HELLO, MSG, ROUND, DECIDED})


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


def encode_hello(node_id: int, instance: str, version: int = WIRE_VERSION) -> bytes:
    return encode_record((HELLO, int(node_id), int(version), str(instance)))


def message_record(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> tuple:
    """The (version-2) MSG record for one protocol message.

    The payload is *not* copied: the record aliases it until it is
    encoded, which a link does in the same call that enqueues it.
    """
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
    msg: Message,
    link_seq: int,
    stamp: Optional[tuple] = None,
    version: int = WIRE_VERSION,
) -> bytes:
    """Encode one protocol message (the bytes snapshot the payload)."""
    return encode_for_version(message_record(msg, link_seq, stamp), version)


def encode_round(link_seq: int, round: int, decided: bool) -> bytes:
    return encode_record((ROUND, int(link_seq), int(round), bool(decided)))


def encode_decided(link_seq: int, node_id: int) -> bytes:
    return encode_record((DECIDED, int(link_seq), int(node_id)))


def encode_for_version(record: tuple, version: int) -> bytes:
    """Encode a record at a negotiated wire version.

    Only MSG records differ across versions: version 1 strips the causal
    stamp (a v1 peer would reject the 8-tuple as malformed).
    """
    if record[0] == MSG and int(version) < 2 and len(record) == 8:
        record = record[:7]
    return encode_record(record)


def frame(body: bytes) -> bytes:
    """Attach the length prefix to an already-pickled body (tests)."""
    return _LEN.pack(len(body)) + body


# --------------------------------------------------------------- decoding


def decode_body(body: bytes) -> tuple:
    """Unpickle and structurally validate one frame body."""
    try:
        record = pickle.loads(body)
    except Exception as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(record, tuple) or not record:
        raise WireError(f"frame body is not a record tuple: {record!r}")
    kind = record[0]
    if kind not in _RECORD_TYPES:
        raise WireError(f"unknown record type {kind!r}")
    if kind == HELLO and len(record) != 4:
        raise WireError(f"malformed HELLO record: {record!r}")
    if kind == MSG and len(record) not in (7, 8):
        # 7 = version-1 frame (no stamp), 8 = version-2 frame.
        raise WireError(f"malformed MSG record: {record!r}")
    if kind == ROUND and len(record) != 4:
        raise WireError(f"malformed ROUND record: {record!r}")
    if kind == DECIDED and len(record) != 3:
        raise WireError(f"malformed DECIDED record: {record!r}")
    return record


def decode_message(record: tuple) -> tuple[int, Message]:
    """``(link_seq, Message)`` from a decoded MSG record (either version)."""
    _, link_seq, src, dst, tag, payload, round_ = record[:7]
    return int(link_seq), Message(
        int(src), int(dst), str(tag), payload, round=round_
    )


def message_stamp(record: tuple) -> Optional[tuple]:
    """The ``(origin_eid, lamport, clock)`` causal stamp of a decoded MSG
    record — None for version-1 frames and unstamped version-2 frames."""
    if len(record) < 8 or record[7] is None:
        return None
    origin_eid, lamport, clock = record[7]
    return int(origin_eid), int(lamport), tuple(int(c) for c in clock)


def hello_version(record: tuple) -> int:
    """The wire version a decoded HELLO advertises."""
    return int(record[2])


def negotiate(peer_version: int) -> int:
    """The version a connection runs at: newest both sides speak."""
    return min(WIRE_VERSION, int(peer_version))


def check_hello(
    record: tuple,
    *,
    instance: str,
    expected_id: Optional[int] = None,
) -> int:
    """Validate a decoded HELLO; returns the peer's node id.

    A peer may advertise any member of :data:`SUPPORTED_VERSIONS` (the
    connection then runs at :func:`negotiate` of the two).  Raises
    :class:`WireError` on an unsupported version, instance mismatch, or
    (when ``expected_id`` is given) an unexpected peer identity — the
    connection must be dropped in every case.
    """
    _, node_id, version, peer_instance = record
    if int(version) not in SUPPORTED_VERSIONS:
        raise WireError(
            f"wire version mismatch: peer speaks {version}, "
            f"we speak {SUPPORTED_VERSIONS}"
        )
    if str(peer_instance) != instance:
        raise WireError(
            f"instance mismatch: peer is running {peer_instance!r}, "
            f"we are running {instance!r}"
        )
    if expected_id is not None and int(node_id) != int(expected_id):
        raise WireError(
            f"peer identified as node {node_id}, expected {expected_id}"
        )
    return int(node_id)


def is_atomic(msg: Message) -> bool:
    """True for channel-level broadcast envelopes (``dst == ALL``)."""
    return msg.dst == ALL


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
