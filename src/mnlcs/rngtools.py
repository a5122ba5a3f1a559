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
do, so this is the same pool even for an empty path.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4096)
def _fold(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest(), "big")


def _component(part: object) -> int:
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        return int(part) & 0xFFFFFFFF
    return _fold(str(part))


def stream(seed: int, *path: object) -> np.random.Generator:
    """Derive the PCG64 generator for ``path`` under the master ``seed``."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # the seed's words, least significant first; those past its top word pad
    # it to SeedSequence's pool size of 4 words
    n_words = max(4, -(-seed.bit_length() // 32))
    words = [(seed >> (32 * i)) & 0xFFFFFFFF for i in range(n_words)]
    entropy = np.array(words + [_component(p) for p in path], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
