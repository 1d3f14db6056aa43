"""``LinkDraw`` is ``Generator.integers`` on a PCG64 stream, draw for draw.

The async scheduler's delivery policies draw from a :class:`LinkDraw`
built on the run's Generator, and every draw is part of the schedule: a
replica that differed from NumPy in one draw would move every async
decision.  Each test holds it against an identical twin Generator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.scheduler import LinkDraw

#: Range sizes: small ones (the link counts policies draw over), any one
#: up to 2**32, and the edges of Lemire's rejection step.
RANGES = st.one_of(
    st.integers(1, 64),
    st.integers(1, 2**32),
    st.sampled_from([2, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
)
#: Enough draws to run past one refill of the raw-word buffer.
DRAWS = 600


def _pair(seed: int, lead_in):
    """A LinkDraw and its twin Generator, both after ``lead_in(rng)``."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    lead_in(rng)
    lead_in(twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    return LinkDraw(rng), twin


def _fresh(rng):
    pass


def _half_word(rng):
    # An int32 draw takes the low half of a 64-bit output and buffers
    # the high half; the draw must hand that half out first.
    rng.integers(0, 2**31, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"]


@pytest.mark.parametrize("lead_in", [_fresh, _half_word], ids=["fresh", "half-word"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), k=RANGES)
def test_each_draw_is_the_twins(lead_in, seed, k):
    draw, twin = _pair(seed, lead_in)
    for _ in range(DRAWS):
        assert draw.integers(0, k) == int(twin.integers(0, k))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    before=st.lists(RANGES, max_size=40),
    ks=st.lists(RANGES, min_size=1, max_size=DRAWS),
)
def test_mid_stream_mixed_ranges(seed, before, ks):
    # The scheduler's shape: the Generator has already seeded the
    # contexts and the adversary, and each step draws over a new range.
    def lead_in(rng):
        rng.integers(0, 2**63 - 1, size=3)
        for k in before:
            rng.integers(0, k)

    draw, twin = _pair(seed, lead_in)
    for k in ks:
        assert draw.integers(0, k) == int(twin.integers(0, k))


def test_offset_range():
    draw, twin = _pair(7, _fresh)
    for low in range(-50, 50):
        assert draw.integers(low, low + 13) == int(twin.integers(low, low + 13))


def test_first_draws_of_seed_2016_at_k7():
    # A literal: a NumPy release that changed its bounded-int method
    # would fail here instead of silently moving every async schedule.
    draw = LinkDraw(np.random.default_rng(2016))
    assert [draw.integers(0, 7) for _ in range(32)] == [
        1, 6, 4, 2, 4, 1, 1, 2, 4, 4, 6, 6, 5, 6, 3, 3,
        1, 2, 4, 2, 2, 3, 5, 0, 0, 4, 4, 1, 0, 6, 0, 3,
    ]


def test_one_value_range_draws_no_word():
    draw, twin = _pair(3, _fresh)
    assert [draw.integers(5, 6) for _ in range(10)] == [5] * 10
    assert draw.integers(0, 1000) == int(twin.integers(0, 1000))


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (0, 2**40), (0, 0), (3, 1)])
def test_range_outside_int32_raises(low, high):
    with pytest.raises(ValueError):
        LinkDraw(np.random.default_rng(0)).integers(low, high)


@pytest.mark.parametrize(
    "bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
)
def test_other_bit_generators_raise(bitgen):
    with pytest.raises(TypeError):
        LinkDraw(np.random.Generator(bitgen(0)))
