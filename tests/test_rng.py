"""Stream derivation: stability, label sensitivity, independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit import substream
from onebit.rng import _label_word

seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_same_labels_same_stream(seed):
    a = substream(seed, "experiment", 3)
    b = substream(seed, "experiment", 3)
    assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


def test_distinct_labels_distinct_streams():
    base = substream(0, "x", 0).standard_normal(8)
    for other in (
        substream(1, "x", 0),
        substream(0, "y", 0),
        substream(0, "x", 1),
        substream(0, 0, "x"),  # order matters
    ):
        assert not np.allclose(base, other.standard_normal(8))


# each pair drew one stream when labels were masked to 64 bits, split into
# as many 32-bit words as they needed and zero-padded to SeedSequence's pool
ALIASED_BEFORE = [
    ((1, "a"), (1, "a", 0)),  # a trailing zero label
    ((1, 3, 2), (1, 2**33 + 3)),  # words split across labels
    ((0, 2**32 + 3, 7), (0, 3, 7 * 2**32 + 1)),  # the same length, words shifted
    ((2**32 + 5, "x"), (5, 1, _label_word("x"))),  # the seed's high word as a label
]


@pytest.mark.parametrize(
    "a, b", ALIASED_BEFORE, ids=["trailing-zero", "split-words", "shifted-words", "seed-high-word"]
)
def test_label_tuples_do_not_alias(a, b):
    assert not np.array_equal(substream(*a).random(4), substream(*b).random(4))


def test_entropy_is_two_words_per_value_behind_a_length_prefix():
    word = _label_word("x")
    entropy = substream(2**32 + 5, 7, "x").bit_generator.seed_seq.entropy
    expected = [2, 0, 5, 1, 7, 0, word & (2**32 - 1), word >> 32]
    assert entropy.dtype == np.uint32
    assert entropy.tolist() == expected
    assert substream(9).bit_generator.seed_seq.entropy.tolist() == [0, 0, 9, 0]


@pytest.mark.parametrize("label", [-1, 2**64, np.int64(-1)])
def test_int_label_outside_64_bits_is_rejected(label):
    # masking aliased -1 to the stream of 2**64 - 1, and 2**64 to label 0
    with pytest.raises(ValueError):
        substream(0, label)
    with pytest.raises(ValueError):
        substream(0, "x", label)


def test_label_types():
    assert np.array_equal(
        substream(5, np.int64(7)).standard_normal(4),
        substream(5, 7).standard_normal(4),
    )
    with pytest.raises(TypeError):
        substream(0, 0.5)
    with pytest.raises(TypeError):
        substream(0, None)


def test_string_labels_hash_not_collide_with_ints():
    # a string label and its numeral are different streams
    a = substream(0, "7").standard_normal(4)
    b = substream(0, 7).standard_normal(4)
    assert not np.allclose(a, b)


def test_known_stream_values_are_stable():
    # pinned draws guard against accidental changes to the derivation rule
    draws = substream(20260817, "stability", 0).integers(0, 1 << 30, size=3)
    assert draws.tolist() == [622555632, 875587879, 115323365]
    assert draws.dtype == np.int64


def test_streams_pass_basic_independence_smoke():
    # correlated streams would break every experiment; quick sanity check
    a = substream(3, "ind", 0).standard_normal(20_000)
    b = substream(3, "ind", 1).standard_normal(20_000)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.03


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected(seed):
    # masking would alias -1 to the stream of 2**64 - 1, and 2**64 to seed 0
    with pytest.raises(ValueError):
        substream(seed, "x")
