import numpy as np
import pytest

from mnlcs.rngtools import _component, stream

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
