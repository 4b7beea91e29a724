"""Deterministic pseudo-random sampling."""

from __future__ import annotations

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from wlpcheck.rng import (
    GENERATOR_NAME,
    MAX_BOUND,
    STREAM_BLOCK,
    CheckConfig,
    SplitMix64,
    distinct_forms,
    stream,
    witness_forms,
)


def test_generator_name():
    assert GENERATOR_NAME == "splitmix64"


def test_reference_vector_seed_zero():
    # published outputs of the standard 64-bit split-mix generator
    g = SplitMix64(0)
    assert [g.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_reference_vector_seed_1234567():
    g = SplitMix64(1234567)
    assert [g.next_uint64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_same_seed_same_sequence():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_integer_respects_bounds(seed, lo, width):
    g = SplitMix64(seed)
    hi = lo + width
    for _ in range(20):
        value = g.integer(lo, hi)
        assert lo <= value <= hi


def test_streams_are_reproducible_and_distinct():
    first = [stream(5, 0).next_uint64() for _ in range(3)]
    again = [stream(5, 0).next_uint64() for _ in range(3)]
    assert first == again
    other = [stream(5, 1).next_uint64() for _ in range(3)]
    assert first != other


def test_stream_indices_do_not_collide_within_block():
    # consecutive stream indices start one block apart, so drawing fewer
    # than STREAM_BLOCK values from each can never replay the same state
    assert STREAM_BLOCK >= 1024
    seen = set()
    for index in range(50):
        g = stream(123, index)
        seen.add(tuple(g.next_uint64() for _ in range(4)))
    assert len(seen) == 50


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=3))
def test_stream_is_a_block_jump(seed, index):
    # the state advances by one increment per draw, so stream(seed, i) must
    # equal the base generator fast-forwarded by i whole blocks
    walked = SplitMix64(seed)
    for _ in range(index * STREAM_BLOCK):
        walked.next_uint64()
    jumped = stream(seed, index)
    assert [jumped.next_uint64() for _ in range(4)] == [
        walked.next_uint64() for _ in range(4)
    ]


def test_the_largest_bound_reaches_both_signs():
    # [-B, B] holds 2B + 1 values; past 2^64 of them, integer() would reach
    # only the bottom of the box and never a positive coefficient
    assert MAX_BOUND == 2**63 - 1
    top = CheckConfig(bound=MAX_BOUND)
    g = SplitMix64(top.seed)
    assert {g.integer(-top.bound, top.bound) > 0 for _ in range(64)} == {False, True}


def test_witness_forms_read_the_seeded_stream():
    seeded = SplitMix64(9)
    expected = list(islice(distinct_forms(seeded, 3, 5), 4))
    assert list(islice(witness_forms(CheckConfig(seed=9, bound=5), 3), 4)) == expected
