"""The one door: every payload is checked against its family's schema
before any handler, and one that fails is counted and dropped."""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.core.averaging import VerifiedAveragingProcess
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system.crypto import Signature
from repro.system.door import SCHEMAS, reject
from repro.system.messages import Message
from repro.system.process import Context, Node, SyncProcess
from repro.system.transport import wire

N, D, F = 4, 2, 1
SIG = Signature(0, b"\x01" * 32)

#: One admitted payload per family at (N, D, F), under one tag.
ADMITTED = {
    "rva": [("rva:0:0", ("init", ("val", (0.5, -1.0)))),
            ("rva:2:3", ("ready", ("refs", (3, 0, 1))))],
    "bc": [("bc:1", ((1,), (0.5, 1.5))), ("bc:0", ((0, 2), (0.0, -0.0)))],
    "ds": [("ds:0", ((0.5, 1.5), (SIG,))),
           ("ds:3", ((0.5, 1.5), (SIG, Signature(3, b"\x02" * 32)))),],
    "abc": [("abc", (1.0, 2.0))],
    "iter": [("iter", (1e300, -1e-300))],
    "val": [("val", (0.0, 1.0))],
}

#: Rejected payloads, ``family -> [(tag, payload)]``, at (N, D, F).
REJECTED = {
    "rva": [
        ("rva:0:0", ("init", ("refs", (0, 1, 2)))),   # refs on round 0
        ("rva:0:1", ("init", ("val", (0.5, 1.0)))),   # a value after it
        ("rva:0:0", ("bogus", ("val", (0.5, 1.0)))),
        ("rva:0:0", (b"init", ("val", (0.5, 1.0)))),
        ("rva:0:0", ["init", ("val", (0.5, 1.0))]),
        ("rva:0:0", ("init", ["val", (0.5, 1.0)])),
        ("rva:0:0", ("init", ("val", [0.5, 1.0]))),
        ("rva:0:0", ("init", ("val", (0.5, 1.0), None))),
        ("rva:0:1", ("init", ("refs", (0, 1)))),
        ("rva:0:1", ("init", ("refs", (0, 1, 1)))),
        ("rva:0:1", ("init", ("refs", (0, 1, 4)))),
        ("rva:0:1", ("init", ("refs", (0, 1, -1)))),
        ("rva:0:1", ("init", ("refs", (0, 1, True)))),
        ("rva:0:1", ("init", ("refs", (0, 1, 2.0)))),
        ("rva", ("init", ("val", (0.5, 1.0)))),       # no round in the tag
        ("rva:0:x", ("init", ("val", (0.5, 1.0)))),
        ("rva:x:0", ("init", ("val", (0.5, 1.0)))),
        ("rva:4:0", ("init", ("val", (0.5, 1.0)))),   # no such sender
        ("rva:0:-1", ("init", ("val", (0.5, 1.0)))),
        ("rva:0:0:0", ("init", ("val", (0.5, 1.0)))),
    ],
    "bc": [
        ("bc:0", ((), (0.5, 1.0))),
        ("bc:0", ((0, 1, 2), (0.5, 1.0))),            # longer than f + 1
        ("bc:0", ([0], (0.5, 1.0))),
        ("bc:0", ((0,), (0.5, 1.0), None)),
        ("bc:0", ((0,), None)),
        ("bc:0", ((0,), (0.5, float("nan")))),
    ],
    "ds": [
        ("ds:0", ((0.5, 1.0), ())),
        ("ds:0", ((0.5, 1.0), (SIG, SIG, SIG))),      # longer than f + 1
        ("ds:0", ((0.5, 1.0), [SIG])),
        ("ds:0", ((0.5, 1.0), (SIG, "sig"))),
        ("ds:0", ((0.5, 1.0), (Signature("0", b""),))),
        ("ds:0", ((0.5, 1.0), (Signature(0, "digest"),))),
        ("ds:3", ((0.5, 1.5), (SIG, Signature(3, b"")))),  # no 32-byte digest
        ("ds:0", ((0.5, 1.0), (Signature(0, b"\x01" * 33),))),
        ("ds:0", ((0.5, 1.0), (Signature(4, b"\x01" * 32),))),  # no such signer
        ("ds:0", ((0.5, 1.0), (Signature(-1, b"\x01" * 32),))),
        ("ds:0", ((0.5,), (SIG,))),
        ("ds:0", (((0,), (0.5, 1.0)), (SIG,))),       # an EIG relay's shape
    ],
    "abc": [("abc", ("echo", 0, (0.5, 1.0))), ("abc", (0.5, float("inf")))],
    "iter": [("iter", (0.5,)), ("iter", np.array([0.5, 1.0]))],
    "val": [("val", (np.float64(0.5), 1.0)), ("val", (1, 2))],
}


def rejects(tag, payload, n=N, d=D, f=F):
    return reject(tag, payload, n, d, f)


class TestSchemas:
    def test_every_family_has_rows(self):
        assert set(ADMITTED) == set(REJECTED) == set(SCHEMAS)

    @pytest.mark.parametrize("family", sorted(ADMITTED))
    def test_admitted(self, family):
        for tag, payload in ADMITTED[family]:
            assert rejects(tag, payload) is None, (tag, payload)

    @pytest.mark.parametrize("family", sorted(REJECTED))
    def test_rejected(self, family):
        for tag, payload in REJECTED[family]:
            assert rejects(tag, payload) == family, (tag, payload)

    def test_d_is_the_runs_not_a_payloads(self):
        assert rejects("abc", (1.0, 2.0, 3.0)) == "abc"
        assert rejects("abc", (1.0, 2.0, 3.0), d=3) is None
        # A run that carries no vectors admits none.
        assert rejects("abc", (1.0, 2.0), d=None) == "abc"

    def test_a_tag_of_no_family_passes(self):
        for tag in ("ping", "eig", "", "rvax:0:0", "BC:0"):
            assert rejects(tag, object()) is None

    def test_the_check_is_a_pure_function(self):
        rows = [row for rows in (*ADMITTED.values(), *REJECTED.values())
                for row in rows]
        first = [rejects(*row) for row in rows]
        assert [rejects(*row) for row in rows[::-1]] == first[::-1]

    def test_a_verdict_is_per_tag_and_system(self):
        # One payload object, admitted once, is still judged afresh under
        # another tag or another (n, d, f).
        payload = ("init", ("val", (0.5, 1.0)))
        assert rejects("rva:0:0", payload) is None
        assert rejects("rva:0:1", payload) == "rva"
        assert rejects("rva:0:0", payload, d=3) == "rva"
        assert rejects("rva:0:0", payload) is None

    def test_negative_zero_is_not_normalised(self):
        value = (-0.0, 1.0)
        payload = ("init", ("val", value))
        assert rejects("rva:0:0", payload) is None
        assert payload[1][1] is value


class _Inbox(SyncProcess):
    d = D

    def on_round(self, ctx, round, inbox):
        self.inbox = {src: list(entries) for src, entries in inbox.items()}


class TestNode:
    def node(self, process):
        return Node(1, process, Context(1, N, F, np.random.default_rng(0)))

    def test_a_rejected_delivery_reaches_no_handler(self):
        proc = VerifiedAveragingProcess(N, F, 1, np.zeros(D), num_rounds=2)
        node = self.node(proc)
        with use_registry(MetricsRegistry()) as reg:
            out = node.deliver(Message(0, 1, "rva:0:0", ("init", ("val", (1.0,)))))
            assert out == [] and not proc._rb
            node.deliver(Message(0, 1, "rva:0:0", ("init", ("val", (1.0, 2.0)))))
        assert reg.counter_value("node.malformed.rva") == 1
        assert list(proc._rb) == ["rva:0:0"]

    def test_a_round_sees_only_admitted_entries(self):
        proc = _Inbox()
        node = self.node(proc)
        good, bad = ("iter", (1.0, 2.0)), ("iter", (1.0, "2"))
        with use_registry(MetricsRegistry()) as reg:
            node.round(1, {0: [bad, good], 2: [good], 3: [bad]})
        assert proc.inbox == {0: [good], 2: [good], 3: []}
        assert reg.counter_value("node.malformed.iter") == 2


def memo_dag(k):
    """``x = (x, x)`` nested ``k`` times: a tree walk visits ``2**k``
    leaves."""
    x = ()
    for _ in range(k):
        x = (x, x)
    return x


def memo_dag_body(k):
    """A pickle-wire MSG frame body carrying :func:`memo_dag`: pickle's
    memo writes each level in 4 bytes."""
    return pickle.dumps(("msg", 0, 0, 1, "rva:0:0", ("init", memo_dag(k)), None, None),
                        protocol=4)


def test_memo_dag_frame_is_dropped_at_the_door():
    body = memo_dag_body(21)
    assert len(body) < 150
    # No typed layout holds it: the wire refuses the frame unread.
    start = time.perf_counter()
    with pytest.raises(wire.WireError):
        wire.decode_body(body)
    assert time.perf_counter() - start < 1e-3
    # The object itself, handed to a Node, is dropped at the door.
    msg = Message(0, 1, "rva:0:0", ("init", memo_dag(21)))
    proc = VerifiedAveragingProcess(N, F, 1, np.zeros(D), num_rounds=2)
    node = Node(1, proc, Context(1, N, F, np.random.default_rng(0)))
    with use_registry(MetricsRegistry()) as reg:
        start = time.perf_counter()
        out = node.deliver(msg)
        elapsed = time.perf_counter() - start
    assert out == [] and not proc._rb
    assert reg.counter_value("node.malformed.rva") == 1
    assert elapsed < 1e-3
