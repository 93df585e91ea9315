"""Exact-sample statistics for the benchmark.

Every percentile here is read off the sorted samples themselves (the
nearest-rank method), never interpolated inside histogram buckets, and
a percentile is refused when fewer than ten samples lie beyond it: a
"p99" of 200 samples is really the second-largest sample.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than :data:`MIN_TAIL` samples beyond it."""


def samples_needed(q: float) -> int:
    """Smallest sample count that supports percentile ``q`` (0 < q < 100)."""
    return math.ceil(MIN_TAIL / (1.0 - q / 100.0) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL`
    samples lie strictly above the returned rank.  The median (q=50) of
    a single sample is allowed: the rule protects tail percentiles.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples(f"p{q:g} of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
    if q > 50 and n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples, have {n}")
    return ordered[rank - 1]


def highest_supported(samples: Sequence[float],
                      candidates: Sequence[float] = (99.9, 99, 95, 90, 75,
                                                     50)) -> tuple[float, float]:
    """The highest of ``candidates`` that ``samples`` supports, and its value."""
    for q in candidates:
        try:
            return q, percentile(samples, q)
        except TooFewSamples:
            continue
    raise TooFewSamples(f"no percentile supported by {len(samples)} samples")


def describe(samples: Sequence[float], unit: str) -> str:
    """``p50 <v> unit (n=..)`` plus the highest supported tail percentile."""
    n = len(samples)
    if not n:
        return "no samples"
    text = f"p50 {percentile(samples, 50):.3f} {unit}"
    try:
        q, value = highest_supported(samples, (99.9, 99, 95, 90))
        text += f", p{q:g} {value:.3f} {unit}"
    except TooFewSamples:
        pass
    return f"{text} (n={n})"
