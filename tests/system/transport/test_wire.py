"""Wire protocol: framing, record round-trips, and handshake validation.

The message round-trip coverage is cross-checked against the FLOW001
sent-kind inventory: every message kind any shipped process class sends
must round-trip through ``encode_message``/``decode_message`` here, so
a new protocol message cannot ship without wire coverage.
"""

from __future__ import annotations

import asyncio
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.engine import iter_python_files, parse_module
from repro.lint.flow.model import build_model
from repro.lint.flow.msgflow import class_profile
from repro.system.messages import ALL, Message
from repro.system.transport import wire

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: One representative message per shipped kind (tag prefix before ":").
#: Payload shapes mirror what the algorithms actually put on the wire.
REPRESENTATIVES = {
    "bc": Message(0, 2, "bc:0", np.array([1.5, -2.0, 0.25]), round=0),
    "abc": Message(1, ALL, "abc", ("echo", 0, (0.5, 1.0)), round=1),
    "rva": Message(2, 3, "rva:echo:4", (4, np.array([0.1, 0.2])), round=None),
    "iter": Message(3, 1, "iter", np.array([0.0, 7.0]), round=5),
    "val": Message(0, 1, "val", np.array([2.0]), round=0),
}


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

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_roundtrip_identity(self, kind):
        msg = REPRESENTATIVES[kind]
        record = roundtrip(wire.encode_message(msg, 17))
        seq, decoded = wire.decode_message(record)
        assert seq == 17
        assert decoded.src == msg.src
        assert decoded.dst == msg.dst
        assert decoded.tag == msg.tag
        assert decoded.round == msg.round
        assert _payload_equal(decoded.payload, msg.payload)

    def test_payload_defensively_copied(self):
        payload = np.array([1.0, 2.0])
        frame = wire.encode_message(Message(0, 1, "bc:0", payload), 0)
        payload[0] = 99.0  # sender mutates after queueing
        _, decoded = wire.decode_message(roundtrip(frame))
        assert decoded.payload[0] == 1.0

    def test_atomic_envelope_detection(self):
        # The broadcast-channel destination survives the wire as it is.
        _, decoded = wire.decode_message(
            roundtrip(wire.encode_message(Message(0, ALL, "abc", ()), 0))
        )
        assert decoded.dst == ALL and decoded.is_atomic_broadcast
        _, decoded = wire.decode_message(
            roundtrip(wire.encode_message(Message(0, 1, "bc:0", ()), 0))
        )
        assert not decoded.is_atomic_broadcast


def _payload_equal(a, b) -> bool:
    if isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and np.array_equal(a, b)
    if isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and len(a) == len(b)
            and all(_payload_equal(x, y) for x, y in zip(a, b))
        )
    return a == b


class TestVersionedMessages:
    STAMP = (42, 17, (3, 17, 0, 5))

    def test_stamp_roundtrip(self):
        msg = Message(1, 2, "rva:echo:0", np.array([0.5]), round=3)
        record = roundtrip(wire.encode_message(msg, 9, stamp=self.STAMP))
        assert len(record) == 8
        assert wire.message_stamp(record) == self.STAMP
        seq, decoded = wire.decode_message(record)
        assert seq == 9
        assert decoded.tag == msg.tag

    def test_stamp_coordinates_normalised(self):
        # A stamp may be handed over with numpy ints or a list clock; it
        # is written — so the reader always sees — plain ints and a tuple.
        stamp = (np.int64(1), np.int64(4), [np.int64(2), np.int64(4)])
        record = roundtrip(wire.encode_message(Message(0, 1, "val", ()), 0, stamp=stamp))
        assert wire.message_stamp(record) == (1, 4, (2, 4))

    def test_unstamped_v2_frame_has_no_stamp(self):
        record = roundtrip(wire.encode_message(Message(0, 1, "val", ()), 0))
        assert len(record) == 8
        assert wire.message_stamp(record) is None

    def test_only_the_one_version_encodes(self):
        # There is no downgrade: a record is encoded at WIRE_VERSION, with
        # its stamp, or not at all.
        rec = wire.message_record(Message(0, 1, "val", ()), 5, self.STAMP)
        record = roundtrip(wire.encode_for_version(rec, wire.WIRE_VERSION))
        assert wire.message_stamp(record) == self.STAMP
        for version in (1, 3):
            with pytest.raises(wire.WireError, match="wire version"):
                wire.encode_for_version(rec, version)

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
        assert roundtrip(wire.encode_round(5, 2, True)) == (
            wire.ROUND, 5, 2, True,
        )

    def test_decided_roundtrip(self):
        assert roundtrip(wire.encode_decided(9, 1)) == (wire.DECIDED, 9, 1)


class TestMalformedFrames:
    def test_oversized_body_refused_at_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.encode_record((wire.MSG, 0, 0, 1, "bc:0", bytes(1024), 0))

    def test_undecodable_body(self):
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.decode_body(b"\x00not a pickle")

    def test_non_tuple_body(self):
        with pytest.raises(wire.WireError, match="not a record tuple"):
            wire.decode_body(pickle.dumps(["msg", 1]))

    def test_unknown_record_type(self):
        with pytest.raises(wire.WireError, match="unknown record type"):
            wire.decode_body(pickle.dumps(("gossip", 1, 2)))

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
            wire.decode_body(pickle.dumps(record))


STAMP = (42, 17, (3, 17, 0, 5))

#: One well-formed record per shape the wire carries.
GOOD_RECORDS = {
    "hello": (wire.HELLO, 3, wire.WIRE_VERSION, "run-x"),
    "msg": (wire.MSG, 9, 1, 2, "rva:echo:0", (4, (0.5, -1.25)), 3, None),
    "msg-stamped": (wire.MSG, 17, 0, ALL, "abc", ("echo", 0), None, STAMP),
    "round": (wire.ROUND, 5, 2, True),
    "decided": (wire.DECIDED, 9, 1),
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
        for i, (field, types) in enumerate(wire.RECORD_FIELDS[good[0]], start=1):
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

#: The rows the parent commit (two wire versions, arity checks only)
#: already refused with a ``WireError``; every other rejected row is a
#: frame it accepted.  ``kind/unhashable`` raised ``TypeError`` there.
REJECTED_AT_PARENT = {
    "hello/short", "hello/long", "msg/long", "msg-stamped/long",
    "round/short", "round/long", "decided/short", "decided/long",
    "kind/bytes",
}


class TestDecodeTable:
    @pytest.mark.parametrize("row", sorted(DECODE_TABLE))
    def test_verdict(self, row):
        record, accepted = DECODE_TABLE[row]
        body = pickle.dumps(record, protocol=4)
        if accepted:
            assert wire.decode_body(body) == record
        else:
            with pytest.raises(wire.WireError):
                wire.decode_body(body)

    def test_nothing_the_parent_refused_is_accepted_now(self):
        assert REJECTED_AT_PARENT <= {
            row for row, (_, accepted) in DECODE_TABLE.items() if not accepted
        }

    def test_table_covers_every_typed_field(self):
        for name, good in GOOD_RECORDS.items():
            for field, types in wire.RECORD_FIELDS[good[0]]:
                assert types is None or any(
                    row.startswith(f"{name}/{field}=") for row in DECODE_TABLE
                ), (name, field)


#: ``encode_for_version(record, WIRE_VERSION)`` at the parent commit — the
#: one-version wire is the old version 2, byte for byte.
PINNED_FRAMES = {
    "hello": "000000238004951800000000000000288c0568656c6c6f944b034b02"
             "8c0572756e2d789474942e",
    "msg": "000000438004953800000000000000288c036d7367944b094b014b02"
           "8c0a7276613a6563686f3a30944b04473fe000000000000047bff400"
           "0000000000869486944b034e74942e",
    "round": "0000001c8004951100000000000000288c05726f756e64944b054b02"
             "8874942e",
    "decided": "0000001c80049511000000000000008c0764656369646564944b09"
               "4b0187942e",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
    def test_frame_bytes_did_not_move(self, name):
        frame = wire.encode_for_version(GOOD_RECORDS[name], wire.WIRE_VERSION)
        assert frame.hex() == PINNED_FRAMES[name]

    def test_stamped_message_bytes_did_not_move(self):
        msg = Message(1, 2, "rva:echo:0", (4, (0.5, -1.25)), round=3)
        record = wire.message_record(msg, 9, STAMP)
        assert wire.encode_for_version(record, wire.WIRE_VERSION).hex() == (
            "000000538004954800000000000000288c036d7367944b094b014b02"
            "8c0a7276613a6563686f3a30944b04473fe000000000000047bff400"
            "0000000000869486944b034b2a4b11284b034b114b004b057494879474942e"
        )
        assert wire.encode_message(msg, 9, stamp=STAMP) == (
            wire.encode_for_version(record, wire.WIRE_VERSION)
        )


class TestReadFrames:
    def _collect(self, data: bytes) -> list[tuple]:
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return [record async for record in wire.read_frames(reader)]

        return asyncio.run(go())

    def test_stream_of_frames(self):
        data = (
            wire.encode_hello(0, "i")
            + wire.encode_round(0, 1, False)
            + wire.encode_decided(1, 0)
        )
        records = self._collect(data)
        assert [r[0] for r in records] == [wire.HELLO, wire.ROUND, wire.DECIDED]

    def test_truncated_trailing_frame_is_clean_eof(self):
        # A frame cut off mid-body counts as connection loss: the sender
        # retransmits it after reconnecting, so the reader just stops.
        whole = wire.encode_round(0, 1, False)
        records = self._collect(whole + wire.encode_decided(1, 0)[:5])
        assert [r[0] for r in records] == [wire.ROUND]

    def test_oversized_announced_frame_raises(self):
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError, match="exceeds"):
            self._collect(head + b"x")


class ChunkedReader:
    """Stands in for a StreamReader: each ``read`` returns the next chunk
    (whatever the socket happened to have), then EOF."""

    def __init__(self, chunks: list[bytes]):
        self.chunks = list(chunks)
        self.reads = 0

    async def read(self, n: int) -> bytes:
        self.reads += 1
        if not self.chunks:
            return b""
        assert len(self.chunks[0]) <= n
        return self.chunks.pop(0)


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


def _read_all(reader) -> list[tuple]:
    async def go():
        return [record async for record in wire.read_frames(reader)]

    return asyncio.run(go())


_SCALARS = st.one_of(
    st.integers(-2**40, 2**40), st.floats(allow_nan=False), st.text(max_size=8),
    st.binary(max_size=300),
)
_RECORDS = st.one_of(
    st.builds(lambda s, r, d: (wire.ROUND, s, r, d),
              st.integers(0, 10**6), st.integers(0, 99), st.booleans()),
    st.builds(lambda s, n: (wire.DECIDED, s, n),
              st.integers(0, 10**6), st.integers(0, 99)),
    st.builds(lambda s, p: (wire.MSG, s, 0, 1, "bc:0", p, None, None),
              st.integers(0, 10**6), st.tuples(_SCALARS, _SCALARS)),
    st.builds(lambda s, p: (wire.MSG, s, 2, 0, "val", p, 3, (7, 12, (5, 12))),
              st.integers(0, 10**6), st.lists(_SCALARS, max_size=4)),
)


class TestReadFramesChunking:
    """``read_frames`` takes whatever each read returns: frame boundaries
    and read boundaries are unrelated."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_RECORDS, max_size=12),
        st.lists(st.integers(1, 700), min_size=1, max_size=6),
    )
    def test_any_chunking_yields_the_frame_at_a_time_records(self, records, sizes):
        frames = [wire.encode_record(r) for r in records]
        expected = [wire.decode_body(f[4:]) for f in frames]
        stream = b"".join(frames)
        assert _read_all(ChunkedReader(_cut(stream, sizes))) == expected
        assert _read_all(ChunkedReader(_cut(stream, [1]))) == expected
        assert _read_all(ChunkedReader([stream] if stream else [])) == expected

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
        assert _read_all(ChunkedReader(_cut(stream, sizes))) == expected

    def test_oversized_prefix_raises_before_the_body_is_buffered(self):
        good = wire.encode_round(0, 1, False)
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        reader = ChunkedReader([good + head, b"x" * 1024, b"x" * 1024])
        with pytest.raises(wire.WireError, match="exceeds"):
            _read_all(reader)
        # Refused on the read that completed the prefix: none of the
        # announced body was asked for.
        assert reader.reads == 1
        assert len(reader.chunks) == 2

    def test_prefix_split_across_reads_is_still_checked(self):
        head = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        reader = ChunkedReader([head[:2], head[2:], b"x" * 64])
        with pytest.raises(wire.WireError, match="exceeds"):
            _read_all(reader)
        assert reader.reads == 2

    def test_undecodable_body_raises(self):
        stream = wire.encode_round(0, 1, False) + wire.frame(b"\x00not a pickle")
        with pytest.raises(wire.WireError, match="undecodable"):
            _read_all(ChunkedReader(_cut(stream, [7])))

    def test_connection_reset_ends_the_stream_cleanly(self):
        class Resetting(ChunkedReader):
            async def read(self, n: int) -> bytes:
                if not self.chunks:
                    raise ConnectionResetError("peer went away")
                return await super().read(n)

        whole = wire.encode_round(0, 1, False)
        records = _read_all(Resetting([whole + wire.encode_decided(1, 0)[:5]]))
        assert [r[0] for r in records] == [wire.ROUND]
