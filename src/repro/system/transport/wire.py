"""Length-prefixed, typed-layout wire protocol for live transports.

A frame is a big-endian ``u32`` length and a body whose first byte names
its record; the rest is that record's ``struct`` layout
(:data:`RECORD_LAYOUTS`).  A record decodes to a tuple:

``(HELLO, node_id, wire_version, instance)``
    exchanged once per connection, both directions, before anything
    else (:func:`check_hello`).  There is one wire version,
    :data:`WIRE_VERSION`; a HELLO advertising another one — or another
    instance, or an unexpected identity — aborts the connection.
``(MSG, link_seq, src, dst, tag, payload, round, stamp)``
    one protocol message.  ``stamp`` is the *causal stamp*
    ``(origin_eid, lamport, clock)`` of the send event, or ``None`` when
    tracing is off; ``link_seq`` numbers the link's frames for
    receiver-side deduplication across reconnects.  The payload is
    written in the layout of its tag's family (the text before the first
    ``:``, :data:`repro.system.door.LAYOUTS`); a tag of no family has no
    layout and is a :class:`WireError` both ways.
``(ROUND, link_seq, round, decided)``
    synchronous round barrier: the sender emitted all its round-``round``
    traffic on this link (per-link FIFO makes it a happens-after fence).
``(DECIDED, link_seq, node_id)``
    asynchronous termination marker.

A record a node sends on several links is encoded once
(:func:`shared_frame`): its frames differ only in the head fields a link
stamps, ``link_seq`` and a MSG's ``dst`` (:func:`link_frame`).  Both
ends cut the byte stream into frame bodies with one
:class:`FrameSplitter`, synchronously, in their protocol's
``data_received``.

:func:`encode_record` takes exactly the types :func:`decode_body` gives
back (``bool`` is no ``int``, a list no tuple) and refuses anything
else, so whatever is on the wire is deeply immutable and a frame is its
payload's snapshot.  :func:`decode_body` reads ``struct`` fields and
UTF-8 and nothing else; every count is in the frame, and a body its
layout does not consume exactly is a :class:`WireError`.

The decoder interns each tag by its bytes, each payload by its family
and bytes, and the part of it an identity memo keys, so the n copies of
one broadcast value a node receives are one object, as in the
simulator: the door's memo, Bracha's key memo and EIG's unanimity
shortcut hit here too.  Each table holds what it keys and is cleared
wholesale past :data:`INTERN_MAX` entries.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Any, Iterator, NamedTuple, Optional

from ..door import LAYOUTS
from ..messages import Message

__all__ = [
    "DECIDED",
    "FrameSplitter",
    "HELLO",
    "INTERN_MAX",
    "MAX_FRAME_BYTES",
    "MSG",
    "RECORD_LAYOUTS",
    "ROUND",
    "SharedFrame",
    "WIRE_VERSION",
    "WireError",
    "check_hello",
    "decode_body",
    "decode_message",
    "encode_for_version",
    "encode_hello",
    "encode_record",
    "link_frame",
    "message_record",
    "message_stamp",
    "shared_frame",
]

#: The one protocol version; advertised in every HELLO.
WIRE_VERSION = 3

#: Upper bound on one frame body — a corrupt length prefix must not make
#: the receiver allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Entries an intern table holds before it is cleared.
INTERN_MAX = 4096

HELLO, MSG, ROUND, DECIDED = "hello", "msg", "round", "decided"

#: Record (and a MSG's stamp) -> its layout; the record byte is its
#: index here.  docs/transport.md shows each, then each family's.
RECORD_LAYOUTS = {
    HELLO: "u8 0 · i16 node_id · u16 wire_version · instance: UTF-8 to the end",
    MSG: "u8 1 · u64 link_seq · i16 src · i16 dst · u8 flags · u8 k · tag: k bytes "
         "of UTF-8 · i32 round if flags & 1 · stamp if flags & 2 · payload: its "
         "tag family's layout, to the end",
    ROUND: "u8 2 · u64 link_seq · i32 round · u8 decided (0 or 1)",
    DECIDED: "u8 3 · u64 link_seq · i16 node_id",
    "stamp": "u64 origin_eid · u64 lamport · u16 k · k × u64 clock",
}

_RECORDS = (HELLO, MSG, ROUND, DECIDED)  # record byte -> record
#: Fixed-layout record -> (its struct, the exact type of each field after
#: the record byte; a last ``str`` is the UTF-8 rest of the body).
_FIXED = {HELLO: (struct.Struct("!BhH"), (int, int, str)),
          ROUND: (struct.Struct("!BQi?"), (int, int, bool)),
          DECIDED: (struct.Struct("!BQh"), (int, int))}
_LEN, _MSG = struct.Struct("!I"), struct.Struct("!BQhhBB")
_ROUND_NO, _STAMP = struct.Struct("!i"), struct.Struct("!QQH")
#: The head a link stamps, by record byte: the length, the record byte
#: and ``link_seq``, then a MSG's ``src`` and ``dst``; a HELLO has none.
_LINK_HEADS = (None, struct.Struct("!IBQhh"), struct.Struct("!IBQ"), struct.Struct("!IBQ"))
_INT = frozenset({int})
_FAMILIES = {family: code for code, family in enumerate(LAYOUTS)}
_PACKS = tuple(pack for pack, _ in LAYOUTS.values())
_UNPACKS = tuple(unpack for _, unpack in LAYOUTS.values())

#: The decoder's intern tables: a tag's bytes -> (tag, family code); per
#: family, a payload's bytes -> the payload; a part's -> the part.
_TAGS: dict[bytes, tuple[str, int]] = {}
_PAYLOADS: tuple[dict[bytes, Any], ...] = tuple({} for _ in LAYOUTS)
_PARTS: dict[bytes, Any] = {}
#: The encoder's: a tag -> (its bytes, head layouts, family code, pack);
#: a payload object's id -> (it, family code, packed bytes).  An entry
#: holds its object, so no id is reused while keyed, and a packed payload
#: is deeply immutable.
_TAGS_OUT: dict[str, tuple[Any, ...]] = {}
_PACKED: dict[int, tuple[Any, int, bytes]] = {}


class WireError(ValueError):
    """Malformed frame, oversized frame, or handshake mismatch."""


def _intern(table: dict[Any, Any], key: Any, value: Any) -> Any:
    if len(table) > INTERN_MAX:
        table.clear()
    return table.setdefault(key, value)


_SHARE = partial(_intern, _PARTS)


def _family(tag: str) -> int:
    code = _FAMILIES.get(tag.partition(":")[0])
    if code is None:
        raise ValueError(f"tag {tag!r} names no payload layout")
    return code


# --------------------------------------------------------------- encoding


def _fixed_out(record: tuple) -> bytes:
    kind, *fields = record
    head, types = _FIXED[kind]
    if tuple(map(type, fields)) != types:
        raise TypeError(f"fields {fields!r} are not {', '.join(t.__name__ for t in types)}")
    tail = fields.pop().encode() if types[-1] is str else b""
    return _LEN.pack(head.size + len(tail)) + head.pack(_RECORDS.index(kind), *fields) + tail


def _tag_out(tag: Any) -> tuple[Any, ...]:
    if type(tag) is not str:
        raise TypeError(f"tag is {type(tag).__name__}")
    raw, code = tag.encode(), _family(tag)
    head = f"!I{_MSG.format[1:]}{len(raw)}s"  # the frame's length, the body's head
    return raw, struct.Struct(head), struct.Struct(head + "i"), code, _PACKS[code]


def _msg_out(record: tuple) -> bytes:
    _, link_seq, src, dst, tag, payload, round_, stamp = record
    out = _TAGS_OUT.get(tag) if type(tag) is str else None
    if out is None:
        out = _intern(_TAGS_OUT, tag, _tag_out(tag))
    raw, head, head_round, code, pack = out
    hit = _PACKED.get(id(payload))
    if hit is None or hit[0] is not payload or hit[1] != code:
        if len(_PACKED) > INTERN_MAX:
            _PACKED.clear()
        hit = _PACKED[id(payload)] = (payload, code, pack(payload))
    if type(link_seq) is not int or type(src) is not int or type(dst) is not int:
        raise TypeError(f"link_seq, src, dst are not all ints: {(link_seq, src, dst)!r}")
    tail = hit[2]
    if stamp is not None:
        if type(stamp) is not tuple or len(stamp) != 3 or type(stamp[2]) is not tuple:
            raise TypeError(f"stamp is not (eid, lamport, clock tuple): {stamp!r}")
        eid, lamport, clock = stamp
        if not _INT.issuperset(map(type, (eid, lamport, *clock))):
            raise TypeError(f"stamp holds a non-int: {stamp!r}")
        tail = (_STAMP.pack(eid, lamport, len(clock)) + struct.pack(f"!{len(clock)}Q", *clock)
                + tail)
    flags = 0 if stamp is None else 2  # 1 is the MSG record byte
    if round_ is None:
        return head.pack(head.size - _LEN.size + len(tail), 1, link_seq, src, dst, flags,
                         len(raw), raw) + tail
    if type(round_) is not int:
        raise TypeError(f"round is {type(round_).__name__}")
    return head_round.pack(head_round.size - _LEN.size + len(tail), 1, link_seq, src, dst,
                           flags | 1, len(raw), raw, round_) + tail


_ENCODERS = {MSG: _msg_out, **dict.fromkeys(_FIXED, _fixed_out)}


def encode_record(record: tuple) -> bytes:
    """One record's frame: length prefix + its layout; a record that is
    not exactly a layout's types and counts is a :class:`WireError`."""
    try:
        frame = _ENCODERS[record[0]](record)
    except (IndexError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise WireError(f"malformed record {record!r:.80}: {exc}") from exc
    if len(frame) - _LEN.size > MAX_FRAME_BYTES:
        raise WireError(
            f"frame body of {len(frame) - _LEN.size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return frame


def encode_hello(node_id: int, instance: str) -> bytes:
    return encode_record((HELLO, int(node_id), WIRE_VERSION, str(instance)))


def message_record(
    msg: Message, link_seq: int, stamp: Optional[tuple] = None
) -> tuple:
    """The MSG record for one protocol message.

    The payload is *not* copied: the record aliases it until it is
    encoded, which the sender does once, by :func:`shared_frame`, in the
    call that hands it to its links; each link then stamps its own
    ``link_seq`` (and a burst copy's ``dst``) over the record's.
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


def encode_for_version(record: tuple, version: int) -> bytes:
    """Encode a record for a connection running at ``version`` — which
    can only be :data:`WIRE_VERSION`."""
    if version != WIRE_VERSION:
        raise WireError(
            f"cannot encode for wire version {version}; "
            f"this build speaks {WIRE_VERSION} only"
        )
    return encode_record(record)


class SharedFrame(NamedTuple):
    """A MSG, ROUND or DECIDED record encoded once for every link it goes
    out on (:func:`shared_frame`): the head fields a link stamps, and the
    bytes after them, which every link's frame shares."""

    head: struct.Struct
    length: int
    kind: int  # the record byte
    src: Optional[int]  # a MSG's; None on a ROUND or DECIDED
    dst: Optional[int]
    tail: bytes


def shared_frame(record: tuple) -> SharedFrame:
    """``record``'s frame, encoded once by :func:`encode_for_version`
    with every check it makes, for :func:`link_frame` to stamp per link;
    the record's own ``link_seq`` is a placeholder.  A record that does
    not encode, or a HELLO, is a :class:`WireError` before any link
    takes a copy."""
    frame = encode_for_version(record, WIRE_VERSION)
    kind = frame[_LEN.size]
    head = _LINK_HEADS[kind]
    if head is None:
        raise WireError("a HELLO is sent on one connection, not shared")
    src, dst = (record[2], record[3]) if _RECORDS[kind] == MSG else (None, None)
    return SharedFrame(head, len(frame) - _LEN.size, kind, src, dst, frame[head.size:])


def link_frame(shared: SharedFrame, link_seq: int, dst: Optional[int] = None) -> bytes:
    """One link's frame of ``shared``: the same bytes as the record with
    this ``link_seq`` (and, on a MSG, this ``dst``; None keeps the
    record's) encodes to."""
    head, length, kind, src, own_dst, tail = shared
    if src is None:
        return head.pack(length, kind, link_seq) + tail
    return head.pack(length, kind, link_seq, src, own_dst if dst is None else dst) + tail


# --------------------------------------------------------------- decoding


def _fixed_in(body: bytes) -> tuple:
    kind = _RECORDS[body[0]]
    head, types = _FIXED[kind]
    record = (kind, *head.unpack_from(body)[1:])
    if types[-1] is str:
        record += (body[head.size:].decode(),)
    if _fixed_out(record)[_LEN.size:] != body:  # trailing bytes, a bool byte past 1
        raise ValueError(f"a {kind} body off its layout")
    return record


def _msg_in(body: bytes) -> tuple:
    _, seq, src, dst, flags, k = _MSG.unpack_from(body)
    i = _MSG.size + k
    raw = body[_MSG.size:i]
    tag_code = _TAGS.get(raw)
    if tag_code is None:
        tag = raw.decode()
        tag_code = _intern(_TAGS, raw, (tag, _family(tag)))
    tag, code = tag_code
    round_ = stamp = None
    if flags & 1:
        (round_,) = _ROUND_NO.unpack_from(body, i)
        i += _ROUND_NO.size
    if flags & 2:
        eid, lamport, k = _STAMP.unpack_from(body, i)
        stamp = (eid, lamport, struct.unpack_from(f"!{k}Q", body, i + _STAMP.size))
        i += _STAMP.size + 8 * k
    if flags > 3:
        raise ValueError(f"unknown MSG flags {flags:#x}")
    key = body[i:]
    payloads = _PAYLOADS[code]
    payload = payloads.get(key)
    if payload is None:
        payload, end = _UNPACKS[code](key, 0, _SHARE)
        if end != len(key):
            raise ValueError(f"{len(key) - end} bytes past the payload's layout")
        payload = _intern(payloads, key, payload)
    return (MSG, seq, src, dst, tag, payload, round_, stamp)


_DECODERS = tuple(_msg_in if kind == MSG else _fixed_in for kind in _RECORDS)


def decode_body(body: bytes) -> tuple:
    """The record one frame body holds, by its layout; anything else is a
    :class:`WireError`."""
    if not body or body[0] >= len(_DECODERS):
        raise WireError(f"undecodable frame body: unknown record type {body[:1]!r}")
    try:
        return _DECODERS[body[0]](body)
    except (IndexError, ValueError, struct.error) as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc


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
    is given) an unexpected peer identity, and on any record but a
    HELLO — the connection must be dropped in every case.
    """
    if record[0] != HELLO:
        raise WireError(f"expected HELLO, got {record[0]!r}")
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


class FrameSplitter:
    """Bytes in, whole frame bodies out: the one reader both ends of a
    link use, fed from ``data_received`` in whatever pieces the socket
    gives.  An oversized length prefix is a :class:`WireError` as soon as
    its four bytes are in, after the bodies before it and before any of
    its own is kept; a partial frame waits for the next :meth:`feed`, and
    one left at connection loss is simply dropped (its sender
    retransmits it)."""

    __slots__ = ("_buf", "_need")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Bytes ``_buf`` must hold before another parse can finish a frame.
        self._need = 0

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Every frame body ``data`` completes, in order.  A consumer that
        stops early (it closes the connection) leaves the rest unread."""
        buf = self._buf
        if buf:
            buf += data
            if len(buf) < self._need:
                return
            data = bytes(buf)
            buf.clear()
        pos, size = 0, len(data)
        while size - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = pos + _LEN.size + length
            if end > size:
                self._need = end - pos
                break
            yield data[pos + _LEN.size:end]
            pos = end
        else:
            self._need = _LEN.size
        if pos < size:
            buf += memoryview(data)[pos:]
