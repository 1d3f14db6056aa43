"""``majority`` — the vote EIG's recursive resolution is made of.

Pinned on the implementation that serialised every vote: what wins, what
ties, which *object* comes back (``_resolve_defaults`` requires a tuple,
and list and tuple votes pool, so the representative must not drift),
and what one call costs in ``canonical_bytes`` — nothing for a
unanimous vote by one object, and one serialisation per distinct vote
object over a whole EIG resolution.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.system.messages as messages
from repro.system.broadcast.interface import majority
from repro.system.broadcast.om import EIGState


class TestMajorityVerdict:
    def test_empty_gives_default(self):
        assert majority([], default="D") == "D"
        assert majority([]) is None

    def test_strict_majority_wins(self):
        assert majority([1, 1, 2], default="D") == 1
        assert majority(["a"], default="D") == "a"

    @pytest.mark.parametrize("votes", [[1, 2], [1, 1, 2, 2], [1, 2, 3], [1, 1, 2, 3]])
    def test_tie_or_plurality_gives_default(self, votes):
        assert majority(votes, default="D") == "D"

    def test_list_and_tuple_votes_pool_and_the_last_one_is_returned(self):
        as_list, as_tuple, other = [1.0, 2.0], (1.0, 2.0), (3.0,)
        assert majority([as_list, as_tuple, other], default="D") is as_tuple
        assert majority([as_tuple, as_list, other], default="D") is as_list
        assert majority([as_tuple, other, as_list], default="D") is as_list

    def test_equal_tuples_return_the_last_object(self):
        votes = [tuple([1.0, 2.0]) for _ in range(3)]
        assert votes[0] is not votes[2]
        assert majority(votes) is votes[2]

    def test_ndarray_votes(self):
        x, y = np.array([1.0, 2.0]), np.array([1.0, 2.0])
        ints = np.array([1, 2])  # another dtype is another vote
        assert majority([x, y, ints], default="D") is y
        assert majority([x, ints], default="D") == "D"
        # an array does not pool with the tuple of its entries
        assert majority([x, (1.0, 2.0), (1.0, 2.0)], default="D") == (1.0, 2.0)

    def test_none_is_a_vote_like_any_other(self):
        assert majority([None, None, 1], default="D") is None
        assert majority([None, 1, 2], default="D") == "D"

    def test_bool_int_and_float_do_not_pool(self):
        assert majority([True, 1, 1.0], default="D") == "D"


class TestMajorityCost:
    @pytest.fixture
    def serialised(self, monkeypatch):
        calls = []
        real = messages.canonical_bytes

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(messages, "canonical_bytes", counting)
        return calls

    def test_a_unanimous_object_is_not_serialised(self, serialised):
        vote = (1.0, 2.0)
        assert majority([vote] * 5, default="D") is vote
        assert majority([None] * 3, default="D") is None
        assert serialised == []

    def test_one_object_voting_k_times_is_serialised_once(self, serialised):
        vote, other = (1.0, 2.0), (3.0,)
        assert majority([vote] * 5 + [other], default="D") is vote
        assert serialised == [vote, other]

    def test_equal_but_distinct_objects_are_each_serialised(self, serialised):
        votes = [tuple([1.0, 2.0]) for _ in range(5)]
        assert majority(votes, default="D") is votes[-1]
        assert len(serialised) == 5

    def test_mixed_tree_level(self, serialised):
        # a correct commander's value by reference, two missing entries
        # (the default, one object) and one lie: the value's object holds
        # a majority and casts the last vote, so nothing is serialised
        value, lie = (1.0, 2.0), (9.0, 9.0)
        assert majority([value, None, value, lie, None, value, value]) is value
        assert serialised == []

    def test_a_later_equal_vote_is_returned_for_the_majority_object(self, serialised):
        # the byte class of the object holding a majority wins, and its
        # last vote comes back: only the votes after the object's last
        # one are serialised, and the object once
        value, equal, lie = (1.0, 2.0), tuple([1.0, 2.0]), (9.0, 9.0)
        assert majority([value, value, value, equal, lie]) is equal
        assert serialised == [value, lie, equal]

    def test_nothing_is_remembered_between_calls(self, serialised):
        vote, other = (1.0, 2.0), (3.0,)
        majority([vote, vote, other])
        majority([vote, vote, other])
        assert len(serialised) == 4


class TestEIGDecideCost:
    """One ``EIGState.decide`` keys each distinct vote object once, over
    all of its majority calls, and keeps no key past its return."""

    @staticmethod
    def split_tree(a, b):
        # n = 7, f = 2, commander 0: every level-2 relay of an even id
        # says ``a``, of an odd id ``b``; the leaves alternate the same way.
        st = EIGState(7, 2, 0, 1)
        st.tree[(0,)] = a
        for i in range(1, 7):
            st.tree[(0, i)] = a if i % 2 == 0 else b
            for j in range(1, 7):
                if j != i:
                    st.tree[(0, i, j)] = a if j % 2 == 0 else b
        return st

    def test_each_vote_object_is_serialised_once_per_decide(self, monkeypatch):
        calls = []
        real = messages.canonical_bytes
        monkeypatch.setattr(
            messages, "canonical_bytes", lambda obj: calls.append(obj) or real(obj)
        )
        a, b = (1.0, 2.0), (3.0, 4.0)
        first, second = self.split_tree(a, b), self.split_tree(a, b)
        assert first.decide() == second.decide()
        # the six level-1 majorities are split, so both objects vote in a
        # serialised call: once per decide each, none remembered across
        assert sorted(map(id, calls)) == sorted(map(id, [a, b, a, b]))
        first.decide()
        assert len(calls) == 4
