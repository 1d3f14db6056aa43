"""Wire protocol: framing, record round-trips, and handshake validation.

The message round-trip coverage is cross-checked against the FLOW001
sent-kind inventory: every message kind any shipped process class sends
must round-trip through ``encode_record(message_record(...))`` /
``decode_message`` here, and have a door schema its representative
passes, so a new protocol message cannot ship without wire coverage or a
schema.
"""

from __future__ import annotations

import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.lint.engine import iter_python_files, parse_module
from repro.lint.flow.model import build_model
from repro.lint.flow.msgflow import class_profile
from repro.system.crypto import Signature
from repro.system.door import SCHEMAS, reject
from repro.system.messages import ALL, BURST, Message
from repro.system.transport import wire

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: One representative message per shipped kind (tag prefix before ":").
#: Payload shapes are what the algorithms actually put on the wire, in a
#: run of the ``(n, d, f)`` below.
REPRESENTATIVES = {
    "bc": Message(0, 2, "bc:0", ((0, 1), (1.5, -2.0)), round=1),
    "ds": Message(0, 2, "ds:0", ((1.5, -2.0), (Signature(0, b"\x01" * 32),)),
                  round=0),
    "abc": Message(1, ALL, "abc", (0.5, 1.0), round=0),
    "rva": Message(2, 3, "rva:4:0", ("echo", ("val", (0.1, 0.2))), round=None),
    "iter": Message(3, 1, "iter", (0.0, 7.0), round=5),
    "val": Message(0, 1, "val", (2.0, -0.0), round=0),
}
N, D, F = 5, 2, 1


def shipped_sent_kinds() -> set[str]:
    """FLOW-resolved message kinds sent by any shipped process class."""
    model = build_model(
        parse_module(path, Path(path).read_text())
        for path in iter_python_files([str(SRC)])
    )
    kinds: set[str] = set()
    for cls in model.process_classes():
        for site in class_profile(model, cls).sends:
            if site.kind is not None:
                kinds.add(site.kind)
    return kinds


def encode_message(msg: Message, link_seq: int, stamp=None) -> bytes:
    return wire.encode_record(wire.message_record(msg, link_seq, stamp))


def v2_frame(record: tuple) -> bytes:
    """``record`` as the pickle wire (version 2) framed it."""
    body = pickle.dumps(record, protocol=4)
    return len(body).to_bytes(4, "big") + body


def roundtrip(frame: bytes) -> tuple:
    """Strip the length prefix and decode the body."""
    length = int.from_bytes(frame[:4], "big")
    body = frame[4:]
    assert len(body) == length
    return wire.decode_body(body)


class TestMessageRoundTrip:
    def test_every_shipped_kind_has_a_representative(self):
        # The inventory is whatever FLOW001 sees — the same analysis the
        # linter gates on — so this cannot silently go stale.
        kinds = shipped_sent_kinds()
        assert kinds, "flow analysis found no sent kinds — model broken?"
        missing = kinds - set(REPRESENTATIVES)
        assert not missing, f"no wire round-trip coverage for {missing}"

    def test_every_shipped_kind_has_a_door_schema(self):
        missing = shipped_sent_kinds() - set(SCHEMAS)
        assert not missing, f"no payload schema for {missing}"

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_representative_passes_the_door(self, kind):
        msg = REPRESENTATIVES[kind]
        assert reject(msg.tag, msg.payload, N, D, F) is None

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_roundtrip_identity(self, kind):
        msg = REPRESENTATIVES[kind]
        record = roundtrip(encode_message(msg, 17))
        seq, decoded = wire.decode_message(record)
        assert seq == 17
        assert decoded.src == msg.src
        assert decoded.dst == msg.dst
        assert decoded.tag == msg.tag
        assert decoded.round == msg.round
        assert decoded.payload == msg.payload

    def test_payload_defensively_copied(self):
        # A payload the sender could mutate after queueing is refused:
        # the wire carries tuples only, so a frame is its snapshot.
        with pytest.raises(wire.WireError, match="not a tuple"):
            encode_message(Message(0, 1, "iter", [1.0, 2.0]), 0)
        frame = encode_message(Message(0, 1, "iter", (1.0, 2.0)), 0)
        _, decoded = wire.decode_message(roundtrip(frame))
        assert decoded.payload[0] == 1.0

    def test_signature_chain_roundtrip(self):
        # Dolev-Strong's (value, chain): each link of the chain is a
        # signer and a 32-byte digest, and decodes to a Signature.
        chain = (Signature(0, b"\x01" * 32), Signature(3, b"\x02" * 32))
        msg = Message(0, 2, "ds:0", ((0.5, 1.5), chain), round=1)
        _, decoded = wire.decode_message(roundtrip(encode_message(msg, 3)))
        assert decoded.payload == msg.payload
        assert all(type(s) is Signature for s in decoded.payload[1])

    def test_ndarray_payload_refused(self):
        # Payloads are tuples of builtin scalars: an ndarray, or a tuple
        # of NumPy floats, has no layout.
        for payload in (np.array([1.0]), (np.float64(1.0),)):
            with pytest.raises(wire.WireError, match="float"):
                encode_message(Message(0, 1, "iter", payload), 0)

    def test_atomic_envelope_detection(self):
        # The broadcast-channel destination survives the wire as it is.
        _, decoded = wire.decode_message(
            roundtrip(encode_message(Message(0, ALL, "abc", ()), 0))
        )
        assert decoded.dst == ALL and decoded.is_atomic_broadcast
        _, decoded = wire.decode_message(
            roundtrip(encode_message(Message(0, 1, "iter", ()), 0))
        )
        assert not decoded.is_atomic_broadcast


class TestVersionedMessages:
    STAMP = (42, 17, (3, 17, 0, 5))

    def test_stamp_roundtrip(self):
        msg = Message(1, 2, "iter", (0.5,), round=3)
        record = roundtrip(encode_message(msg, 9, stamp=self.STAMP))
        assert len(record) == 8
        assert wire.message_stamp(record) == self.STAMP
        seq, decoded = wire.decode_message(record)
        assert seq == 9
        assert decoded.tag == msg.tag

    def test_stamp_coordinates_normalised(self):
        # A stamp may be handed over with numpy ints or a list clock; it
        # is written — so the reader always sees — plain ints and a tuple.
        stamp = (np.int64(1), np.int64(4), [np.int64(2), np.int64(4)])
        record = roundtrip(encode_message(Message(0, 1, "val", ()), 0, stamp=stamp))
        assert wire.message_stamp(record) == (1, 4, (2, 4))

    def test_unstamped_v2_frame_has_no_stamp(self):
        record = roundtrip(encode_message(Message(0, 1, "val", ()), 0))
        assert len(record) == 8
        assert wire.message_stamp(record) is None

    def test_only_the_one_version_encodes(self):
        # There is no downgrade: a record is encoded at WIRE_VERSION, with
        # its stamp, or not at all.
        rec = wire.message_record(Message(0, 1, "val", ()), 5, self.STAMP)
        record = roundtrip(wire.encode_for_version(rec, wire.WIRE_VERSION))
        assert wire.message_stamp(record) == self.STAMP
        for version in (1, 2):
            with pytest.raises(wire.WireError, match="wire version"):
                wire.encode_for_version(rec, version)

    def test_v2_hello_refused(self):
        # The pickle wire's HELLO names no record: refused unread.
        with pytest.raises(wire.WireError, match="unknown record type"):
            roundtrip(v2_frame((wire.HELLO, 3, 2, "run-x")))

    def test_v1_hello_refused(self):
        record = roundtrip(wire.encode_record((wire.HELLO, 3, 1, "run-x")))
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_hello(record, instance="run-x", expected_id=3)


class TestControlRecords:
    def test_hello_roundtrip(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        assert record == (wire.HELLO, 3, wire.WIRE_VERSION, "run-x")
        assert wire.check_hello(record, instance="run-x", expected_id=3) == 3

    def test_hello_version_mismatch(self):
        record = roundtrip(wire.encode_record((wire.HELLO, 3, 99, "run-x")))
        with pytest.raises(wire.WireError, match="version mismatch"):
            wire.check_hello(record, instance="run-x")

    def test_hello_instance_mismatch(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        with pytest.raises(wire.WireError, match="instance mismatch"):
            wire.check_hello(record, instance="run-y")

    def test_hello_identity_mismatch(self):
        record = roundtrip(wire.encode_hello(3, "run-x"))
        with pytest.raises(wire.WireError, match="expected 4"):
            wire.check_hello(record, instance="run-x", expected_id=4)

    def test_round_roundtrip(self):
        assert roundtrip(wire.encode_record((wire.ROUND, 5, 2, True))) == (
            wire.ROUND, 5, 2, True,
        )

    def test_decided_roundtrip(self):
        assert roundtrip(wire.encode_record((wire.DECIDED, 9, 1))) == (
            wire.DECIDED, 9, 1,
        )


class TestMalformedFrames:
    def test_oversized_body_refused_at_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_record((wire.MSG, 0, 0, 1, "iter", (0.0,) * 16, 0, None))

    def test_undecodable_body(self):
        # A MSG record byte and then too few bytes for its head.
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode_body(b"\x01not a frame")

    def test_non_tuple_body(self):
        # What the pickle wire sent: its first byte is no record.
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(pickle.dumps(["msg", 1]))

    def test_unknown_record_type(self):
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(pickle.dumps(("gossip", 1, 2)))
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(bytes([len(wire.RECORD_LAYOUTS) - 1]))

    @pytest.mark.parametrize(
        "record",
        [
            (wire.HELLO, 1, 1),
            (wire.MSG, 0, 0, 1, "bc:0", None),
            (wire.ROUND, 0, 1),
            (wire.DECIDED, 0),
        ],
    )
    def test_wrong_arity(self, record):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.encode_record(record)
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(pickle.dumps(record))


STAMP = (42, 17, (3, 17, 0, 5))

#: One well-formed record per shape the wire carries.
GOOD_RECORDS = {
    "hello": (wire.HELLO, 3, wire.WIRE_VERSION, "run-x"),
    "msg": (wire.MSG, 9, 1, 2, "bc:1", ((1, 4), (0.5, -1.25)), 3, None),
    "msg-stamped": (wire.MSG, 17, 0, ALL, "abc", (0.5, 1.0), None, STAMP),
    "round": (wire.ROUND, 5, 2, True),
    "decided": (wire.DECIDED, 9, 1),
}

_INT, _STR, _NONE = (int,), (str,), type(None)

#: record type -> its fields after the type tag, in order, each with the
#: exact types a value may have (``bool`` is not an ``int`` here);
#: ``None`` in place of the types means a payload, whose layout is its
#: tag family's.
RECORD_FIELDS = {
    wire.HELLO: (("node_id", _INT), ("wire_version", _INT), ("instance", _STR)),
    wire.MSG: (
        ("link_seq", _INT), ("src", _INT), ("dst", _INT), ("tag", _STR),
        ("payload", None), ("round", (int, _NONE)), ("stamp", (tuple, _NONE)),
    ),
    wire.ROUND: (("link_seq", _INT), ("round", _INT), ("decided", (bool,))),
    wire.DECIDED: (("link_seq", _INT), ("node_id", _INT)),
}

#: A value of a type no field of that declared type accepts.
WRONG = {int: "7", str: 7, bool: 1, tuple: [1, 2, (3,)], type(None): 1.5}


def _decode_table() -> dict[str, tuple[tuple, bool]]:
    """``row id -> (record, accepted)``: every record kind x {right shape,
    short, long, each field wrong-typed}, generated from the code's own
    field table, plus the ways a stamp can be malformed."""
    rows: dict[str, tuple[tuple, bool]] = {}
    for name, good in GOOD_RECORDS.items():
        rows[f"{name}/ok"] = (good, True)
        rows[f"{name}/short"] = (good[:-1], False)
        rows[f"{name}/long"] = (good + (None,), False)
        for i, (field, types) in enumerate(RECORD_FIELDS[good[0]], start=1):
            if types is None:
                continue  # the payload is any picklable value
            for typ in types:
                if isinstance(WRONG[typ], types):
                    continue  # e.g. nothing here is wrong for "int or None"
                bad = good[:i] + (WRONG[typ],) + good[i + 1:]
                rows[f"{name}/{field}={WRONG[typ]!r}"] = (bad, False)
            if int in types:  # bool is not an int on the wire
                rows[f"{name}/{field}=True"] = (
                    good[:i] + (True,) + good[i + 1:], False
                )
    msg = GOOD_RECORDS["msg-stamped"]
    for label, stamp in {
        "2-tuple": (42, 17),
        "4-tuple": STAMP + (0,),
        "list": list(STAMP),
        "str-eid": ("42", 17, (3,)),
        "float-lamport": (42, 17.0, (3,)),
        "list-clock": (42, 17, [3, 17]),
        "str-in-clock": (42, 17, (3, "17")),
        "bool-in-clock": (42, 17, (3, True)),
    }.items():
        rows[f"msg-stamped/stamp:{label}"] = (msg[:7] + (stamp,), False)
    rows["kind/unhashable"] = (([], 1, 2), False)
    rows["kind/bytes"] = ((b"msg", 1, 2), False)
    return rows


DECODE_TABLE = _decode_table()

#: The rows the two-version pickle wire (arity checks only) already
#: refused with a ``WireError``; every other rejected row is a frame it
#: accepted.  ``kind/unhashable`` raised ``TypeError`` there.
REJECTED_AT_PARENT = {
    "hello/short", "hello/long", "msg/long", "msg-stamped/long",
    "round/short", "round/long", "decided/short", "decided/long",
    "kind/bytes",
}


class TestDecodeTable:
    """A typed frame cannot carry a wrong type: the encoder refuses every
    row the table rejects and round-trips every row it accepts, and the
    pickled form of any row is no frame at all."""

    @pytest.mark.parametrize("row", sorted(DECODE_TABLE))
    def test_verdict(self, row):
        record, accepted = DECODE_TABLE[row]
        with pytest.raises(wire.WireError):
            wire.decode_body(pickle.dumps(record, protocol=4))
        if accepted:
            assert wire.decode_body(wire.encode_record(record)[4:]) == record
        else:
            with pytest.raises(wire.WireError):
                wire.encode_record(record)

    def test_nothing_the_parent_refused_is_accepted_now(self):
        assert REJECTED_AT_PARENT <= {
            row for row, (_, accepted) in DECODE_TABLE.items() if not accepted
        }

    def test_table_covers_every_typed_field(self):
        for name, good in GOOD_RECORDS.items():
            for field, types in RECORD_FIELDS[good[0]]:
                # Every field is one the code's layout names.
                assert field in wire.RECORD_LAYOUTS[good[0]], (name, field)
                assert types is None or any(
                    row.startswith(f"{name}/{field}=") for row in DECODE_TABLE
                ), (name, field)


def _text(s: str) -> bytes:
    """A SHORT_BINUNICODE push of ``s``."""
    raw = s.encode()
    return pickle.SHORT_BINUNICODE + bytes([len(raw)]) + raw


def _hostile_bodies(module: str, name: str, arg: str) -> dict[str, bytes]:
    """Hand-built bodies that reach ``module.name`` — and, where the
    opcode calls what it found, call it with ``arg`` — one per opcode
    that can name a global."""
    line = f"{module}\n{name}\n".encode()
    stack_global = _text(module) + _text(name) + pickle.STACK_GLOBAL
    args = pickle.MARK + _text(arg) + pickle.TUPLE
    call = stack_global + args + pickle.REDUCE
    return {
        "GLOBAL": pickle.GLOBAL + line + pickle.STOP,
        "STACK_GLOBAL": pickle.PROTO + b"\x04" + stack_global + pickle.STOP,
        "INST": pickle.MARK + _text(arg) + pickle.INST + line + pickle.STOP,
        "OBJ": pickle.MARK + pickle.GLOBAL + line + _text(arg)
        + pickle.OBJ + pickle.STOP,
        "NEWOBJ": pickle.PROTO + b"\x04" + stack_global + args
        + pickle.NEWOBJ + pickle.STOP,
        # A well-formed MSG record whose payload is the call.
        "REDUCE": pickle.PROTO + b"\x04" + pickle.MARK + _text(wire.MSG)
        + b"".join(pickle.BININT1 + bytes([i]) for i in (0, 0, 1))
        + _text("bc:0") + call + pickle.NONE + pickle.NONE
        + pickle.TUPLE + pickle.STOP,
    }


HOSTILE_TARGETS = [
    ("os", "system"),
    ("builtins", "eval"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("repro.system.crypto", "SignatureScheme"),
]


class TestHostileGlobals:
    """Nothing a frame holds is unpickled: a body that would name a
    global is no record, and refused before any of it is read."""

    @staticmethod
    def _attack(target, sentinel) -> str:
        # The argument a call gets: through os.system or eval it would
        # create the sentinel file.
        if target == ("os", "system"):
            return f"touch {sentinel}"
        return f"open({str(sentinel)!r}, 'w').close()"

    @pytest.mark.parametrize("target", HOSTILE_TARGETS, ids=".".join)
    @pytest.mark.parametrize(
        "opcode", ["GLOBAL", "STACK_GLOBAL", "INST", "OBJ", "NEWOBJ", "REDUCE"]
    )
    def test_refused_and_nothing_runs(self, tmp_path, target, opcode):
        sentinel = tmp_path / "sentinel"
        body = _hostile_bodies(*target, self._attack(target, sentinel))[opcode]
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(body)
        assert not sentinel.exists()

    @pytest.mark.parametrize("opcode", ["INST", "OBJ", "REDUCE"])
    def test_the_bodies_run_under_plain_pickle(self, tmp_path, opcode):
        # The control: the same bytes through pickle.loads do execute.
        sentinel = tmp_path / "sentinel"
        target = ("builtins", "eval")
        pickle.loads(_hostile_bodies(*target, self._attack(target, sentinel))[opcode])
        assert sentinel.exists()


#: ``encode_for_version(record, WIRE_VERSION)`` at wire version 3, the
#: typed layouts (the pickle wire's frames were 39, 71, 32 and 32 bytes,
#: and 87 stamped, for the records it pinned; 14, 49, 18, 15 and 99 here).
PINNED_FRAMES = {
    "hello": "0000000a000003000372756e2d78",
    "msg": "0000002d01000000000000000900010002010462633a31000000030200010004"
           "023fe0000000000000bff4000000000000",
    "round": "0000000e0200000000000000050000000201",
    "decided": "0000000b0300000000000000090001",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
    def test_frame_bytes_did_not_move(self, name):
        frame = wire.encode_for_version(GOOD_RECORDS[name], wire.WIRE_VERSION)
        assert frame.hex() == PINNED_FRAMES[name]

    def test_stamped_message_bytes_did_not_move(self):
        msg = Message(1, 2, "bc:1", ((1, 4), (0.5, -1.25)), round=3)
        record = wire.message_record(msg, 9, STAMP)
        assert wire.encode_for_version(record, wire.WIRE_VERSION).hex() == (
            "0000005f01000000000000000900010002030462633a3100000003000000000000"
            "002a00000000000000110004000000000000000300000000000000110000000000"
            "00000000000000000000050200010004023fe0000000000000bff4000000000000"
        )
        assert encode_message(msg, 9, stamp=STAMP) == (
            wire.encode_for_version(record, wire.WIRE_VERSION)
        )


#: ``(link_seq, dst)`` of the links a shared record is stamped for.
LINKS = [(0, 0), (1, 3), (2**40 + 7, 4)]


class TestSharedFrame:
    """A record a node sends on several links is encoded once; each link's
    frame of it is, byte for byte, what encoding the record with that
    link's ``link_seq`` and ``dst`` gives."""

    @pytest.mark.parametrize("stamp", [None, STAMP], ids=["unstamped", "stamped"])
    @pytest.mark.parametrize("round_", [None, 6], ids=["no-round", "round"])
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_burst_copies_equal_their_own_encodes(self, kind, round_, stamp):
        msg = REPRESENTATIVES[kind]._replace(round=round_)
        shared = wire.shared_frame(wire.message_record(msg._replace(dst=BURST), 0, stamp))
        for link_seq, dst in LINKS:
            copy = msg._replace(dst=dst)
            assert wire.link_frame(shared, link_seq, dst) == wire.encode_for_version(
                wire.message_record(copy, link_seq, stamp), wire.WIRE_VERSION
            )

    @pytest.mark.parametrize("stamp", [None, STAMP], ids=["unstamped", "stamped"])
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_a_link_keeps_the_records_dst_unless_told(self, kind, stamp):
        # Point-to-point, and an atomic broadcast's dst = ALL on every link.
        msg = REPRESENTATIVES[kind]
        shared = wire.shared_frame(wire.message_record(msg, 0, stamp))
        for link_seq, _ in LINKS:
            assert wire.link_frame(shared, link_seq) == wire.encode_for_version(
                wire.message_record(msg, link_seq, stamp), wire.WIRE_VERSION
            )

    @pytest.mark.parametrize(
        "record",
        [(wire.ROUND, 0, 5, True), (wire.ROUND, 0, 0, False), (wire.DECIDED, 0, 9)],
        ids=["round-decided", "round", "decided"],
    )
    def test_markers_differ_only_in_link_seq(self, record):
        shared = wire.shared_frame(record)
        for link_seq, _ in LINKS:
            assert wire.link_frame(shared, link_seq) == wire.encode_for_version(
                (record[0], link_seq, *record[2:]), wire.WIRE_VERSION
            )

    def test_refusals_happen_once_at_the_shared_encode(self, monkeypatch):
        with pytest.raises(wire.WireError, match="not a tuple"):
            wire.shared_frame(wire.message_record(Message(0, BURST, "iter", [1.0]), 0))
        with pytest.raises(wire.WireError, match="not shared"):
            wire.shared_frame(GOOD_RECORDS["hello"])
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.shared_frame(wire.message_record(Message(0, BURST, "iter", (0.0,) * 16), 0))


def _split(chunks: list[bytes]) -> list[tuple]:
    """The records one :class:`wire.FrameSplitter` gives for ``chunks``,
    fed one ``data_received`` at a time, decoded as the protocols do."""
    splitter = wire.FrameSplitter()
    return [wire.decode_body(body) for chunk in chunks for body in splitter.feed(chunk)]


class TestReadFrames:
    def test_stream_of_frames(self):
        data = (
            wire.encode_hello(0, "i")
            + wire.encode_record((wire.ROUND, 0, 1, False))
            + wire.encode_record((wire.DECIDED, 1, 0))
        )
        records = _split([data])
        assert [r[0] for r in records] == [wire.HELLO, wire.ROUND, wire.DECIDED]

    def test_truncated_trailing_frame_is_clean_eof(self):
        # A frame cut off mid-body is held for the next feed; at
        # connection loss it is dropped, and the sender retransmits it.
        whole = wire.encode_record((wire.ROUND, 0, 1, False))
        records = _split([whole + wire.encode_record((wire.DECIDED, 1, 0))[:5]])
        assert [r[0] for r in records] == [wire.ROUND]

    def test_oversized_announced_frame_raises(self):
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError, match="exceeds"):
            _split([head + b"x"])


def _cut(data: bytes, sizes: list[int]) -> list[bytes]:
    """``data`` split into chunks of the given sizes, cycling through
    them until the data runs out."""
    chunks, pos, i = [], 0, 0
    while pos < len(data):
        size = sizes[i % len(sizes)]
        chunks.append(data[pos:pos + size])
        pos += size
        i += 1
    return chunks


class Feeder:
    """Feeds chunks to one splitter, as ``data_received`` calls would,
    keeping the records and counting the feeds made."""

    def __init__(self, chunks: list[bytes]):
        self.chunks = list(chunks)
        self.feeds = 0
        self.records: list[tuple] = []

    def run(self) -> list[tuple]:
        splitter = wire.FrameSplitter()
        while self.chunks:
            self.feeds += 1
            for body in splitter.feed(self.chunks.pop(0)):
                self.records.append(wire.decode_body(body))
        return self.records


_FLOATS = st.lists(st.floats(allow_nan=False), max_size=40).map(tuple)
_RECORDS = st.one_of(
    st.builds(lambda s, r, d: (wire.ROUND, s, r, d),
              st.integers(0, 10**6), st.integers(0, 99), st.booleans()),
    st.builds(lambda s, n: (wire.DECIDED, s, n),
              st.integers(0, 10**6), st.integers(0, 99)),
    st.builds(lambda s, p: (wire.MSG, s, 0, 1, "bc:0", p, None, None),
              st.integers(0, 10**6),
              st.tuples(st.lists(st.integers(0, 99), max_size=4).map(tuple), _FLOATS)),
    st.builds(lambda s, p: (wire.MSG, s, 2, 0, "val", p, 3, (7, 12, (5, 12))),
              st.integers(0, 10**6), _FLOATS),
)


class TestReadFramesChunking:
    """``FrameSplitter`` takes whatever each ``data_received`` hands it:
    frame boundaries and read boundaries are unrelated."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_RECORDS, max_size=12),
        st.lists(st.integers(1, 700), min_size=1, max_size=6),
    )
    def test_any_chunking_yields_the_frame_at_a_time_records(self, records, sizes):
        frames = [wire.encode_record(r) for r in records]
        expected = [wire.decode_body(f[4:]) for f in frames]
        stream = b"".join(frames)
        assert _split(_cut(stream, sizes)) == expected
        assert _split(_cut(stream, [1])) == expected
        assert _split([stream] if stream else []) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_RECORDS, min_size=1, max_size=6),
        st.lists(st.integers(1, 200), min_size=1, max_size=4),
        st.data(),
    )
    def test_truncated_tail_ends_the_stream_cleanly(self, records, sizes, data):
        # Connection loss mid-frame: every complete frame is delivered,
        # the partial one is dropped (the sender retransmits it).
        frames = [wire.encode_record(r) for r in records]
        keep = data.draw(st.integers(1, len(frames[-1]) - 1))
        stream = b"".join(frames[:-1]) + frames[-1][:keep]
        expected = [wire.decode_body(f[4:]) for f in frames[:-1]]
        assert _split(_cut(stream, sizes)) == expected

    def test_oversized_prefix_raises_before_the_body_is_buffered(self):
        good = wire.encode_record((wire.ROUND, 0, 1, False))
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        feeder = Feeder([good + head, b"x" * 1024, b"x" * 1024])
        with pytest.raises(wire.WireError, match="exceeds"):
            feeder.run()
        # Refused in the feed that completed the prefix, after the frame
        # before it: none of the announced body was asked for.
        assert feeder.records == [wire.decode_body(good[4:])]
        assert feeder.feeds == 1
        assert len(feeder.chunks) == 2

    def test_prefix_split_across_reads_is_still_checked(self):
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        feeder = Feeder([head[:2], head[2:], b"x" * 64])
        with pytest.raises(wire.WireError, match="exceeds"):
            feeder.run()
        assert feeder.feeds == 2

    def test_undecodable_body_raises(self):
        stream = wire.encode_record((wire.ROUND, 0, 1, False)) + v2_frame((wire.ROUND, 1, 2, False))
        with pytest.raises(wire.WireError, match="undecodable"):
            _split(_cut(stream, [7]))

    def test_connection_reset_ends_the_stream_cleanly(self):
        # The listener's protocol loses its connection with half a frame
        # buffered: what came whole was delivered, the half is dropped,
        # and nothing raises.
        from repro.system.transport.live import LiveNode, NodeAddress, _Inbound

        class Transport:
            def write(self, data: bytes) -> None:
                pass

        node = LiveNode(0, 2, 0, None, NodeAddress(0, "uds", path="unused"),
                        instance="i")
        proto, transport = _Inbound(node), Transport()
        proto.connection_made(transport)
        proto.data_received(
            wire.encode_hello(1, "i") + wire.encode_record((wire.ROUND, 0, 1, False))
            + wire.encode_record((wire.DECIDED, 1, 1))[:5]
        )
        proto.connection_lost(ConnectionResetError("peer went away"))
        assert node._peer_round == {1: 1} and node._peer_decided == {}
        assert node.wire_frames_received == 1
        assert transport not in node._inbound


def test_the_wire_binds_no_pickle():
    # Nothing reachable from a socket unpickles: the module holds no
    # pickle binding and its source names no Unpickler.
    assert not [
        name for name, value in vars(wire).items()
        if value is pickle or getattr(value, "__module__", None) in ("pickle", "_pickle")
    ]
    assert "Unpickler" not in Path(wire.__file__).read_text(encoding="utf-8")


@st.composite
def _systems(draw) -> tuple[int, int, int]:
    """A random ``(n, d, f)`` with ``n >= 3f + 1``."""
    f = draw(st.integers(0, 3))
    return draw(st.integers(3 * f + 1, 3 * f + 4)), draw(st.integers(1, 6)), f


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _shaped(draw, kind: str, n: int, d: int, f: int) -> Message:
    """A message of ``kind`` shaped as its REPRESENTATIVES row, at ``(n, d, f)``."""
    floats = tuple(draw(st.lists(_FINITE, min_size=d, max_size=d)))
    pids = draw(st.permutations(range(n)))
    src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    round_ = draw(st.none() | st.integers(0, 50))
    if kind == "bc":
        path = tuple(pids[:draw(st.integers(1, f + 1))])
        return Message(src, dst, f"bc:{path[0]}", (path, floats), round=round_)
    if kind == "ds":
        chain = tuple(Signature(p, draw(st.binary(min_size=32, max_size=32)))
                      for p in pids[:draw(st.integers(1, f + 1))])
        return Message(src, dst, f"ds:{chain[0].signer}", (floats, chain), round=round_)
    if kind == "rva":
        r = draw(st.integers(0, 3))
        body = ("val", floats) if r == 0 else ("refs", tuple(pids[:n - f]))
        phase = draw(st.sampled_from(["init", "echo", "ready"]))
        return Message(src, dst, f"rva:{src}:{r}", (phase, body), round=round_)
    return Message(src, ALL if kind == "abc" else dst, kind, floats, round=round_)


class TestRoundTripProperty:
    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_representative_shape_roundtrips(self, kind, data):
        n, d, f = data.draw(_systems())
        msg = data.draw(_shaped(kind, n, d, f))
        assert reject(msg.tag, msg.payload, n, d, f) is None
        record = wire.message_record(msg, data.draw(st.integers(0, 2**63)))
        decoded = roundtrip(wire.encode_record(record))
        assert decoded == record
        assert reject(msg.tag, decoded[5], n, d, f) is None


@st.composite
def _door_candidate(draw) -> tuple[tuple[int, int, int], str, object]:
    """A system, then a tag and payload of some family near its schema:
    each part is right or off by a little (a length, a type, a pid, a
    signer, a digest) — the ground the door and a layout could split on."""
    n, d, f = draw(_systems())
    near = st.floats() | st.integers(-2, 2) | st.booleans()
    floats = st.one_of(
        st.lists(_FINITE, min_size=d, max_size=d),
        st.lists(_FINITE, min_size=d, max_size=d),
        st.lists(near, min_size=max(0, d - 1), max_size=d + 1),
    ).map(tuple)
    pid = st.integers(0, n - 1) | st.integers(-2, n + 2) | st.integers(2**15, 2**17)
    pids = st.lists(pid, min_size=0, max_size=n + 1).map(tuple)
    digest = st.binary(min_size=32, max_size=32) | st.binary(max_size=40)
    chain = st.lists(st.builds(Signature, pid, digest), min_size=0, max_size=f + 2).map(tuple)
    family = draw(st.sampled_from(sorted(SCHEMAS)))
    if family == "bc":
        return (n, d, f), f"bc:{draw(pid)}", (draw(pids), draw(floats))
    if family == "ds":
        return (n, d, f), f"ds:{draw(pid)}", (draw(floats), draw(chain))
    if family == "rva":
        r = draw(st.integers(-1, 3))
        body = draw(st.tuples(st.sampled_from(["val", "refs"]), floats | pids))
        phase = draw(st.sampled_from(["init", "echo", "ready", "hello"]))
        return (n, d, f), f"rva:{draw(pid)}:{r}", (phase, body)
    return (n, d, f), family, draw(floats)


class TestDoorAndLayoutAgree:
    @settings(max_examples=600, deadline=None)
    @given(_door_candidate())
    def test_every_admitted_payload_encodes_and_roundtrips(self, candidate):
        # A payload the door admits is one the wire can carry: a live
        # sender never meets a WireError on what a simulated receiver
        # would hand its handler.
        (n, d, f), tag, payload = candidate
        assume(reject(tag, payload, n, d, f) is None)
        record = (wire.MSG, 0, 0, 1, tag, payload, None, None)
        assert roundtrip(wire.encode_record(record)) == record


def _body(draw) -> bytes:
    """A valid frame body of any record, any family, at a random system."""
    n, d, f = draw(_systems())
    kind = draw(st.sampled_from(["hello", "round", "decided", *sorted(REPRESENTATIVES)]))
    if kind == "hello":
        record = (wire.HELLO, draw(st.integers(0, 99)), wire.WIRE_VERSION,
                  draw(st.text(max_size=12)))
    elif kind == "round":
        record = (wire.ROUND, draw(st.integers(0, 2**40)), draw(st.integers(0, 99)),
                  draw(st.booleans()))
    elif kind == "decided":
        record = (wire.DECIDED, draw(st.integers(0, 2**40)), draw(st.integers(0, 99)))
    else:
        stamp = draw(st.none() | st.tuples(
            st.integers(0, 2**40), st.integers(0, 2**40),
            st.lists(st.integers(0, 2**40), max_size=n).map(tuple)))
        record = wire.message_record(draw(_shaped(kind, n, d, f)), 0, stamp)
    return wire.encode_record(record)[4:]


_BODIES = st.composite(_body)()


def _decode(body: bytes):
    """The record ``body`` decodes to, or None for a ``WireError``; any
    other exception propagates and fails the test."""
    try:
        return wire.decode_body(body)
    except wire.WireError:
        return None


class TestDecoderFuzz:
    """Hostile bodies give a ``WireError`` or a payload the door refuses:
    never another exception, a hang, or an allocation past the frame's."""

    @settings(max_examples=150, deadline=1000)
    @given(_BODIES, st.data())
    def test_a_truncated_body_is_refused(self, body, data):
        # A HELLO's instance runs to the end: cut, it is another instance,
        # which check_hello refuses.
        cut = body[:data.draw(st.integers(0, len(body) - 1))]
        record = _decode(cut)
        if body[0] == 0 and record is not None:
            with pytest.raises(wire.WireError, match="instance mismatch"):
                wire.check_hello(record, instance=wire.decode_body(body)[3])
        else:
            assert record is None

    @settings(max_examples=150, deadline=1000)
    @given(_BODIES, st.binary(min_size=1, max_size=64))
    def test_an_oversized_body_is_refused(self, body, extra):
        record = _decode(body + extra)
        if body[0] == 0 and record is not None:
            assert record[3] != wire.decode_body(body)[3]
        else:
            assert record is None

    @settings(max_examples=400, deadline=1000)
    @given(_BODIES, st.data())
    def test_a_rewritten_byte_is_refused_or_is_another_frame(self, body, data):
        # Covers lying counts (tag, d, path, refs, chain, clock), unknown
        # record and flag bytes: what decodes is a frame the encoder
        # writes byte for byte, so nothing is read twice or skipped.
        pos = data.draw(st.integers(0, len(body) - 1))
        hostile = body[:pos] + bytes([data.draw(st.integers(0, 255))]) + body[pos + 1:]
        record = _decode(hostile)
        if record is not None:
            assert wire.encode_record(record)[4:] == hostile

    @settings(max_examples=50, deadline=1000)
    @given(_BODIES)
    def test_a_count_that_lies_allocates_nothing_past_the_frame(self, body):
        # Each count at its maximum over a body that cannot hold it.
        for hostile in (
            b"\x01" + bytes(12) + b"\x02\xff" + b"iter",   # tag of 255 bytes
            b"\x01" + bytes(12) + b"\x02\x04iter" + b"\xff\xff" * 9,  # clock
            b"\x01" + bytes(12) + b"\x00\x04iter\xff",     # d = 255
            b"\x01" + bytes(12) + b"\x00\x04ds:0\x00\xff",  # chain of 255
            body[:1] + b"\xff" * (len(body) - 1),
        ):
            tracemalloc.start()
            try:
                _decode(hostile)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (hostile, peak)

    @settings(max_examples=100, deadline=1000)
    @given(st.integers(len(wire.RECORD_LAYOUTS) - 1, 255), st.binary(max_size=64))
    def test_an_unknown_record_byte_is_refused(self, kind, rest):
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(bytes([kind]) + rest)

    @settings(max_examples=100, deadline=1000)
    @given(st.text(min_size=1, max_size=20).filter(lambda t: t.partition(":")[0] not in SCHEMAS))
    def test_a_tag_of_no_family_is_refused(self, tag):
        with pytest.raises(wire.WireError, match="no payload layout"):
            wire.encode_record((wire.MSG, 0, 0, 1, tag, (1.0,), None, None))
        good = wire.encode_record((wire.MSG, 0, 0, 1, "iter", (1.0,), None, None))[4:]
        raw = tag.encode()
        if len(raw) < 256:
            body = good[:14] + bytes([len(raw)]) + raw + good[19:]
            with pytest.raises(wire.WireError, match="no payload layout"):
                wire.decode_body(body)

    @settings(max_examples=100, deadline=1000)
    @given(st.binary(min_size=1, max_size=16).filter(lambda b: not _utf8(b)))
    def test_bad_utf8_is_refused(self, raw):
        hello = wire.encode_hello(1, "x")[4:-1]
        with pytest.raises(wire.WireError, match="utf-8"):
            wire.decode_body(hello + raw)
        good = wire.encode_record((wire.MSG, 0, 0, 1, "iter", (1.0,), None, None))[4:]
        with pytest.raises(wire.WireError, match="utf-8"):
            wire.decode_body(good[:14] + bytes([len(raw)]) + raw + good[19:])

    @settings(max_examples=100, deadline=None)
    @given(_systems(), st.data())
    def test_non_finite_floats_and_foreign_pids_decode_and_the_door_refuses(self, nfd, data):
        n, d, f = nfd
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        floats = (bad,) + tuple(data.draw(st.lists(_FINITE, min_size=d - 1, max_size=d - 1)))
        foreign = data.draw(st.integers(n, 2**16 - 1))
        for tag, payload in [
            ("iter", floats),
            ("bc:0", ((0,), floats)),
            ("bc:0", ((0, foreign), data.draw(_shaped("abc", n, d, f)).payload)),
            ("ds:0", (floats, (Signature(0, bytes(32)),))),
            ("rva:0:0", ("echo", ("val", floats))),
            ("rva:0:1", ("echo", ("refs", (foreign,) + tuple(range(n - f - 1))))),
        ]:
            record = roundtrip(wire.encode_record((wire.MSG, 0, 0, 1, tag, payload, None, None)))
            assert reject(tag, record[5], n, d, f) is not None, (tag, payload)


def _utf8(raw: bytes) -> bool:
    try:
        raw.decode()
    except UnicodeDecodeError:
        return False
    return True
