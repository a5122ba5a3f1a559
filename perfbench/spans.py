"""Spans recorded by wrapping functions that the pipeline looks up by module
attribute, and the self-time arithmetic over them.

Nothing here imports mnlcs: hooks name their targets as strings, and a
target that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    name: str  # layer.operation; several hooks may share one name
    module: str  # module whose attribute the caller looks up
    attr: str
    rss: bool = False  # also record the rise of peak RSS over the span


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    rss_rise_kb: int = 0


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Keeps every span in memory; summarize() aggregates them by name."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []

    def wrap(self, name: str, fn, rss: bool = False):
        clock, spans, stack = self._clock, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss_before = _peak_rss_kb() if rss else 0
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if rss:
                    span.rss_rise_kb = _peak_rss_kb() - rss_before

        return wrapper

    def install(self, hooks) -> list[Hook]:
        """Wrap each hook's target in place; return the hooks whose target is missing."""
        missing = []
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                missing.append(hook)
                continue
            fn = getattr(module, hook.attr, None)
            if callable(fn):
                setattr(module, hook.attr, self.wrap(hook.name, fn, hook.rss))
            else:
                missing.append(hook)
        return missing


def absent_names(hooks, missing) -> list[str]:
    """Names none of whose hooks found a target; their spans would read as zero."""
    return sorted({h.name for h in missing} - {h.name for h in hooks if h not in missing})


def target(hook: Hook) -> str:
    return f"{hook.name}:{hook.module}.{hook.attr}"


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per name: calls, total and self seconds, and the largest RSS rise.

    A span's self time is its duration minus the part of it that its direct
    child spans cover.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        agg = out.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0}
        )
        duration = span.end - span.start
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - _covered(children[i], span.start, span.end)
        agg["rss_rise_mb"] = max(agg["rss_rise_mb"], span.rss_rise_kb / 1024.0)
    return out
