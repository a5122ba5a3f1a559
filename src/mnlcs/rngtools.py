"""Deterministic random-stream derivation.

Every piece of randomness in the package flows from a PCG64 generator keyed
by a user seed plus a path of labels, e.g. ``stream(seed, "lag0-split-v2",
journal_id, year)`` for every split-half replicate of one journal-year.
Each unit of work therefore owns its own reproducible stream, independent
of execution order, which makes cohorts safe to run in parallel and
results byte-stable across platforms.

String path components are folded to 32-bit integers with BLAKE2b so the
derivation does not depend on Python's per-process hash randomisation.

The generator is ``SeedSequence(entropy=seed, spawn_key=path)``, given as
the entropy array numpy would assemble: the seed's 32-bit words, least
significant first, zero-padded to the pool size of 4, then one word per path
component. Zero words past the entropy mix into the pool as missing words
do, so this is the same pool even for an empty path. streams(seed, paths)
runs SeedSequence's algorithm (numpy's bit_generator.pyx) for many paths at
once on a [words, paths] array; the tests check it against numpy's.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


@lru_cache(maxsize=4096)
def _fold(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest(), "big")


def _component(part: object) -> int:
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        return int(part) & 0xFFFFFFFF
    return _fold(str(part))


def _seed_words(seed: int) -> list[int]:
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # the seed's words, least significant first; those past its top word pad
    # it to SeedSequence's pool size of 4 words
    return [(seed >> (32 * i)) & 0xFFFFFFFF for i in range(max(4, -(-seed.bit_length() // 32)))]


def stream(seed: int, *path: object) -> np.random.Generator:
    """Derive the PCG64 generator for ``path`` under the master ``seed``."""
    entropy = np.array(_seed_words(seed) + [_component(p) for p in path], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class _State(ISeedSequence):
    """A seed sequence whose PCG64 state words are already known."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix of uint32 arrays, with its running constant."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ result >> 16


def streams(seed: int, paths: Sequence[Sequence[object]]) -> Iterator[np.random.Generator]:
    """``stream(seed, *path)`` for each of ``paths``, all of one length,
    derived together and built one at a time."""
    if len({len(p) for p in paths}) > 1:
        raise ValueError("paths must all have one length")
    entropy = [np.full(len(paths), w, dtype=np.uint32) for w in _seed_words(seed)]
    for column in zip(*paths):
        # fold each distinct part once unless equal parts can fold apart (True, 1)
        same = {type(p) for p in column} in ({str}, {int})
        fold = {p: _component(p) for p in set(column)}.__getitem__ if same else _component
        entropy.append(np.array(list(map(fold, column)), dtype=np.uint32))
    hashmix, hashout = _hashmix(0x43B0D7E5, 0x931E8875), _hashmix(0x8B51F9DD, 0x58F38DED)
    # mix_entropy: each pool word mixes into the others, then each later word into all four
    pool = [hashmix(w) for w in entropy[:4]] + entropy[4:]
    for src, dst in [*permutations(range(4), 2), *product(range(4, len(pool)), range(4))]:
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, np.uint64): eight words hashed out of the pool in turn
    state = np.array([hashout(pool[i % 4]) for i in range(8)], dtype="<u4")
    # [paths, 4] uint64 from little-endian word pairs, as numpy assembles them
    seeds = state.T.copy().view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_State(row))) for row in seeds)
