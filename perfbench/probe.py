"""A fixed CPU probe: how fast this machine runs at the moment.

A host that shares its cores with other work can drift in speed by 20-40%
over tens of seconds to minutes, for the probe and the pipeline alike.
run.py runs the probe right before and right after each untraced
experiment, in run.py's own process so that the probe leaves the
experiment's memory alone, and divides the run's times by the speed factor
to take that drift out.

The probe is frozen: it never calls mnlcs, so a change to the program
cannot move it. Its two parts follow the pipeline's two kinds of work:
interpreter-bound loops over dicts, and vectorised numpy on a mid-sized
array.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPS = 5
# Median seconds of each part on the reference host, a 2-vCPU Intel Xeon
# VM at a quiet moment. speed() is 1.0 there and then.
REFERENCE_S = {"python": 0.018, "numpy": 0.020}

_ARRAY = np.random.default_rng(0).random(300_000)


def _python() -> None:
    counts: dict[int, int] = {}
    for i in range(150_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1


def _numpy() -> None:
    for _ in range(4):
        np.cumsum(np.sort(_ARRAY) * _ARRAY)


PARTS = {"python": _python, "numpy": _numpy}


def probe() -> dict[str, float]:
    """Median seconds of each part over REPS repetitions."""
    out = {}
    for name, fn in PARTS.items():
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out


def speed(*probes: dict[str, float]) -> float:
    """How much slower than the reference the machine ran: the geometric
    mean, over parts, of the part's mean time in ``probes`` over its
    reference time."""
    return math.exp(statistics.fmean(
        math.log(statistics.fmean(p[k] for p in probes) / REFERENCE_S[k]) for k in REFERENCE_S))
