from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mnlcs.rngtools import _component, stream, streams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**130 + 5]
PATHS = [
    (),
    ("lag0-split", "J01", 1996, 0),
    ("citations", np.int64(7), "AA", -3),
    (True, 1, "1", np.uint32(2**32 - 1), 2**40 + 9),
    (0, 0, 0, 0, 0),
]


def numpy_stream(seed, *path):
    key = tuple(_component(p) for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def test_stream_is_numpys_seed_sequence_of_seed_and_path():
    rng = np.random.default_rng(11)
    seeds = SEEDS + [int(rng.integers(0, 2**62)) << int(rng.integers(0, 70)) for _ in range(40)]
    for seed in seeds:
        for path in PATHS:
            ours, theirs = stream(seed, *path), numpy_stream(seed, *path)
            np.testing.assert_array_equal(ours.integers(0, 2**63, 8), theirs.integers(0, 2**63, 8))
            assert ours.random() == theirs.random()


def test_path_components_are_32_bit_words_and_bools_are_not_ints():
    assert _component(-3) == 2**32 - 3
    assert _component(np.int64(7)) == _component(7) == 7
    assert _component(True) != _component(1)
    assert stream(5, True).random() != stream(5, 1).random()
    assert stream(5, "1").random() != stream(5, 1).random()


def test_negative_seed_raises():
    with pytest.raises(ValueError):
        stream(-1, "x")
    with pytest.raises(ValueError):
        stream(-(2**40))


# parts that compare equal but fold apart (True and 1, 0.0 and -0.0, "1" and 1)
# and ints that wrap to one 32-bit word (2**40 + 9 and 9)
PARTS = ["x", "", "1", "True", 0, 1, 9, -3, 2**32 + 5, 2**40 + 9, True, False,
         np.int64(-7), np.uint32(2**32 - 1), 1.0, 0.0, -0.0]


def assert_same_streams(seed, paths):
    batch = streams(seed, paths)
    assert isinstance(batch, Iterator)
    ours = list(batch)
    assert len(ours) == len(paths)
    for rng, path in zip(ours, paths):
        theirs = stream(seed, *path)
        assert rng.bit_generator.state == theirs.bit_generator.state
        np.testing.assert_array_equal(rng.integers(0, 2**63, 4), theirs.integers(0, 2**63, 4))


def test_streams_are_stream_of_each_path():
    rng = np.random.default_rng(5)
    for seed in SEEDS:
        for length in range(7):
            picks = rng.integers(0, len(PARTS), size=(12, length))
            paths = [tuple(PARTS[i] for i in row) for row in picks]
            # one column all of str and one all of int, with repeats
            paths += [tuple(["J1", "J2"][i % 2] if k % 2 else i // 3 for k in range(length)) for i in range(6)]
            assert_same_streams(seed, paths)
        assert_same_streams(seed, [])
    assert_same_streams(3, [(p,) for p in PARTS])
    assert_same_streams(3, [(0.0,), (-0.0,)])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**160),
    st.integers(0, 6).flatmap(lambda n: st.lists(
        st.tuples(*[st.one_of(st.text(max_size=3), st.integers(-2**40, 2**40), st.booleans())] * n),
        max_size=6,
    )),
)
def test_streams_match_stream_on_random_paths(seed, paths):
    assert_same_streams(seed, paths)


def test_streams_reject_mixed_path_lengths_and_negative_seeds():
    with pytest.raises(ValueError):
        streams(0, [("a",), ("a", "b")])
    with pytest.raises(ValueError):
        streams(-1, [("a",)])
