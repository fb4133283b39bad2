"""Percentiles, median-of-rounds and span self-time arithmetic."""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    below = math.floor(pos)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (pos - below)


def split_rounds(end_times: Sequence[float], t0: float, round_s: float,
                 n_rounds: int) -> List[List[int]]:
    """Indices of the samples that completed in each of ``n_rounds``
    consecutive ``round_s``-second slices starting at ``t0``; a sample
    that completed outside the window belongs to no round."""
    rounds: List[List[int]] = [[] for _ in range(n_rounds)]
    for i, end in enumerate(end_times):
        r = math.floor((end - t0) / round_s)
        if 0 <= r < n_rounds:
            rounds[r].append(i)
    return rounds


def median_of_rounds(rounds: Sequence[Sequence[float]],
                     stat: Callable[[Sequence[float]], float]
                     ) -> Optional[Dict[str, object]]:
    """``stat`` per non-empty round; the reported value is the median of
    those, with the rounds' min/max and sample count beside it."""
    per_round = [stat(r) for r in rounds if r]
    if not per_round:
        return None
    return {
        "value": statistics.median(per_round),
        "min": min(per_round),
        "max": max(per_round),
        "rounds": per_round,
        "samples": sum(len(r) for r in rounds),
    }


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children of one parent never overlap here (one thread per request),
    so the covered part is the plain sum of child durations, clipped to
    the parent's interval.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        covered = (min(s["end"], parent["end"])
                   - max(s["start"], parent["start"]))
        out[parent["id"]] -= max(0.0, covered)
    return out


def self_time_by_name(spans: Sequence[dict]) -> Dict[str, List[float]]:
    """Per span name, the self times of every span of that name."""
    selfs = self_times(spans)
    out: Dict[str, List[float]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(selfs[s["id"]])
    return out
