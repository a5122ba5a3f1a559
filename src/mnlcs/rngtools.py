"""Deterministic random-stream derivation.

Every piece of randomness in the package flows from a PCG64 generator keyed
by a user seed plus a path of labels, e.g. ``stream(seed, "lag0-split",
journal_id, year, block)`` for one block of 64 split-half replicates. Each
unit of work therefore owns its own reproducible stream, independent of
execution order, which makes blocks safe to run in parallel and results
byte-stable across platforms.

String path components are folded to 32-bit integers with BLAKE2b so the
derivation does not depend on Python's per-process hash randomisation.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _component(part: object) -> int:
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int, *path: object) -> np.random.Generator:
    """Derive the PCG64 generator for ``path`` under the master ``seed``."""
    key = tuple(_component(p) for p in path)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))
