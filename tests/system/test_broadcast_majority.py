"""``majority`` — the vote EIG's recursive resolution is made of.

Pinned on the implementation that serialised every vote: what wins, what
ties, which *object* comes back (``_resolve_defaults`` requires a tuple,
and list and tuple votes pool, so the representative must not drift),
and what one call costs in ``canonical_bytes``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.system.messages as messages
from repro.system.broadcast.interface import majority


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

    def test_one_object_voting_k_times_is_serialised_once(self, serialised):
        vote = (1.0, 2.0)
        assert majority([vote] * 5, default="D") is vote
        assert len(serialised) == 1

    def test_equal_but_distinct_objects_are_each_serialised(self, serialised):
        votes = [tuple([1.0, 2.0]) for _ in range(5)]
        assert majority(votes, default="D") is votes[-1]
        assert len(serialised) == 5

    def test_mixed_tree_level(self, serialised):
        # a correct commander's value by reference, two missing entries
        # (the default, one object) and one lie
        value, lie = (1.0, 2.0), (9.0, 9.0)
        assert majority([value, None, value, lie, None, value, value]) is value
        assert len(serialised) == 3

    def test_nothing_is_remembered_between_calls(self, serialised):
        vote = (1.0, 2.0)
        majority([vote, vote])
        majority([vote, vote])
        assert len(serialised) == 2
