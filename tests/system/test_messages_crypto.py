"""Tests for message envelopes, canonical serialisation, and signatures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.system.crypto import Signature, SignatureScheme
from repro.system.messages import Message, canonical_bytes


class TestCanonicalBytes:
    def test_ndarray_stable(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0])
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_ndarray_value_sensitive(self):
        assert canonical_bytes(np.array([1.0])) != canonical_bytes(np.array([2.0]))

    def test_shape_sensitive(self):
        assert canonical_bytes(np.zeros((2, 3))) != canonical_bytes(np.zeros((3, 2)))

    def test_nested_structures(self):
        x = ("tag", [np.array([1.0]), {"k": np.float64(2.0)}])
        y = ("tag", [np.array([1.0]), {"k": np.float64(2.0)}])
        assert canonical_bytes(x) == canonical_bytes(y)

    def test_dict_order_insensitive(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_dict_with_unorderable_keys(self):
        # Was: TypeError: '<' not supported between 'str' and 'int' —
        # items were sorted with Python's ``<``, and a Byzantine peer is
        # free to send mixed-type keys (the dict pickles, so it crosses
        # the live wire).  Items are ordered by their keys' canonical
        # bytes now, a total order.  No honest payload contains a dict
        # (FLOW001 sent-kind inventory), so no key or digest moves.
        mixed = {1: "a", "b": 2, (0, 1): None, 2.5: [np.float64(1.0)]}
        shuffled = dict(reversed(list(mixed.items())))
        assert list(mixed) != list(shuffled)
        assert canonical_bytes(mixed) == canonical_bytes(shuffled)
        assert canonical_bytes(mixed) != canonical_bytes({**mixed, 1: "b"})
        assert canonical_bytes(("echo", mixed)) == canonical_bytes(["echo", shuffled])

    def test_tuple_vs_list_equal(self):
        assert canonical_bytes((1, 2)) == canonical_bytes([1, 2])

    def test_independent_of_object_identity(self):
        # A memoising pickler writes the second occurrence of one str /
        # bytes *object* as a back reference, so equal values used to
        # serialise differently depending on who built them.
        a = "ab"
        b = "".join(["a", "b"])
        assert a == b and a is not b
        assert canonical_bytes((a, a)) == canonical_bytes((a, b))
        assert canonical_bytes([a, (a, {a: a})]) == canonical_bytes(
            [b, ("".join(["a", "b"]), {"ab": b})]
        )
        x = b"\x00\x01"
        y = bytes([0, 1])
        assert x is not y
        assert canonical_bytes((x, x)) == canonical_bytes((x, y))

    def test_unpickled_payload_matches_local(self):
        # What a live peer receives (an unpickled copy) must land under
        # the same Bracha key / signature digest as the sender's object.
        import pickle

        tag = "val"
        payload = (tag, (1.5, -2.0), tag)
        assert canonical_bytes(pickle.loads(pickle.dumps(payload))) == (
            canonical_bytes(("val", (1.5, -2.0), "".join(["v", "al"])))
        )

    @pytest.mark.parametrize(
        "obj",
        [
            ("val", (1.5, -2.0, 0.0)),
            ("refs", (0, 1, 2)),
            ("val", 1.5, 3, True, None, b"x"),
            (),
            [[], ((),)],
            ("val", [np.float64(1.0), 2.0]),
            {"k": (1, 2), "j": [np.array([1.0, 2.0])]},
        ],
    )
    def test_scalar_fast_path_matches_general_walk(self, obj):
        # Flat runs of plain scalars skip the per-item walk; the bytes
        # must be those of the item-by-item reference below.
        import io
        import pickle

        def canon(x):
            if isinstance(x, np.ndarray):
                return ("__ndarray__", x.shape, str(x.dtype), x.tobytes())
            if isinstance(x, np.generic):
                return ("__npscalar__", str(x.dtype), x.item())
            if isinstance(x, dict):
                return ("__dict__", tuple(
                    sorted((canon(k), canon(v)) for k, v in x.items())))
            if isinstance(x, (list, tuple)):
                return tuple(canon(v) for v in x)
            return x

        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=4)
        pickler.fast = True
        pickler.dump(canon(obj))
        assert canonical_bytes(obj) == buf.getvalue()

    def test_numpy_scalars_do_not_take_the_scalar_fast_path(self):
        # np.float64 subclasses float; it must still canonicalise by dtype.
        assert canonical_bytes((np.float64(1.0),)) != canonical_bytes((1.0,))
        assert canonical_bytes((np.float64(1.0),)) == canonical_bytes(
            [np.array(1.0)[()]]
        )


class TestMessage:
    def test_repr_contains_route(self):
        m = Message(0, 1, "x", None, round=3)
        assert "0->1" in repr(m)
        assert "r=3" in repr(m)

    def test_frozen(self):
        m = Message(0, 1, "x", None)
        with pytest.raises(AttributeError):
            m.src = 2

    def test_equality_and_hash_ignore_seq(self):
        a = Message(0, 1, "x", ("v", 1.0), round=2, seq=4)
        b = Message(0, 1, "x", ("v", 1.0), round=2, seq=9)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != Message(0, 2, "x", ("v", 1.0), round=2, seq=4)
        assert a != Message(0, 1, "x", ("v", 1.0), round=3, seq=4)

    def test_is_not_equal_to_a_plain_tuple(self):
        m = Message(0, 1, "x", None)
        assert m != tuple(m) and tuple(m) != m
        assert m not in [tuple(m)]

    def test_replace_keeps_the_other_fields(self):
        m = Message(0, 1, "x", "old", round=2, seq=4)
        lie = m._replace(payload="new")
        assert (lie.payload, lie.seq, m.payload) == ("new", 4, "old")
        assert lie == Message(0, 1, "x", "new", round=2)


class TestSignatures:
    def test_sign_verify_roundtrip(self, rng):
        scheme = SignatureScheme(4, rng)
        sig = scheme.sign(2, ("hello", np.array([1.0])))
        assert scheme.verify(("hello", np.array([1.0])), sig)

    def test_wrong_message_fails(self, rng):
        scheme = SignatureScheme(4, rng)
        sig = scheme.sign(2, "hello")
        assert not scheme.verify("world", sig)

    def test_wrong_signer_fails(self, rng):
        scheme = SignatureScheme(4, rng)
        sig = scheme.sign(2, "hello")
        forged = Signature(3, sig.digest)
        assert not scheme.verify("hello", forged)

    def test_unknown_signer_rejected(self, rng):
        scheme = SignatureScheme(4, rng)
        with pytest.raises(ValueError):
            scheme.sign(7, "x")
        assert not scheme.verify("x", Signature(9, b"\x00" * 32))

    def test_restricted_signer_capability(self, rng):
        scheme = SignatureScheme(4, rng)
        sign = scheme.signer_for({1, 2})
        sig = sign(1, "payload")
        assert scheme.verify("payload", sig)
        with pytest.raises(PermissionError):
            sign(0, "payload")  # cannot sign as a correct process

    def test_distinct_runs_distinct_keys(self):
        s1 = SignatureScheme(3, np.random.default_rng(1))
        s2 = SignatureScheme(3, np.random.default_rng(2))
        sig = s1.sign(0, "x")
        assert not s2.verify("x", sig)

    def test_repr(self, rng):
        scheme = SignatureScheme(2, rng)
        assert "Sig(p0" in repr(scheme.sign(0, "x"))
