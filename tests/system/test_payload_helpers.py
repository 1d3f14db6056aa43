"""The per-message payload helpers: ``defensive_copy`` and
``estimate_bytes`` fast paths, and the Bracha key memo shared by every
instance of one process."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.averaging import VerifiedAveragingProcess
from repro.system.broadcast import bracha
from repro.system.broadcast.bracha import ECHO, READY, BrachaState
from repro.system.messages import (
    Message,
    canonical_bytes,
    defensive_copy,
    estimate_bytes,
    is_deeply_immutable,
)
from repro.system.process import Context, Node


class TestDefensiveCopy:
    @pytest.mark.parametrize(
        "payload",
        [
            ("val", (0.5, -1.25)),
            ("refs", (0, 1, 2)),
            (),
            (("a", (1, (2.0, None))), True, b"x"),
        ],
    )
    def test_deeply_immutable_tuple_is_returned_as_is(self, payload):
        assert is_deeply_immutable(payload)
        assert defensive_copy(payload) is payload

    @pytest.mark.parametrize(
        "payload",
        [
            ["val", [1.0, 2.0]],
            {"k": [1, 2]},
            np.array([1.0, 2.0]),
            ("val", [1.0, 2.0]),
            ("val", (np.float64(1.0),), [0]),
        ],
        ids=["list", "dict", "ndarray", "tuple-holding-list", "nested-list"],
    )
    def test_anything_mutable_inside_is_deep_copied(self, payload):
        copied = defensive_copy(payload)
        assert copied is not payload
        assert canonical_bytes(copied) == canonical_bytes(payload)
        assert pickle.dumps(copied) == pickle.dumps(payload)


class TestSharedKeyMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(bracha, "_KEYS", {})

    def test_mutated_byzantine_list_is_never_served_from_the_memo(self):
        # A Byzantine sender hands every receiver one list object and
        # rewrites it between their deliveries.  The door drops it at
        # each receiver: no machine votes on it, and it is never keyed.
        live = ("val", [1.0, 2.0])
        procs = [VerifiedAveragingProcess(4, 1, pid, np.zeros(2), num_rounds=2)
                 for pid in (1, 2)]
        for pid, proc in zip((1, 2), procs):
            node = Node(pid, proc, Context(pid, 4, 1, np.random.default_rng(0)))
            node.deliver(Message(3, pid, "rva:0:0", (ECHO, live)))
            live[1][0] = 666.0
        assert bracha._KEYS == {}
        assert not procs[0]._rb and not procs[1]._rb

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(bracha, "_KEYS_MAX", 3)
        state = BrachaState(4, 1, 0, 1)
        for i in range(10):
            state.on_message(2, (READY, ("val", (float(i),))))
            assert len(bracha._KEYS) <= 4


def _reference_size(obj):
    """``estimate_bytes``'s recursive rule, item by item."""
    if obj is None or isinstance(obj, (int, float, bool, np.generic)):
        return 8
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 2 + sum(_reference_size(v) for v in obj)
    if isinstance(obj, dict):
        return 2 + sum(_reference_size(k) + _reference_size(v) for k, v in obj.items())
    return 8


_LEAVES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6).map(tuple),
        st.lists(inner, max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_estimate_fast_path_matches_the_recursive_rule(payload):
    assert estimate_bytes(payload) == _reference_size(payload)
