"""Percentiles that refuse to speak without a tail to speak about.

A percentile estimated from fewer than :data:`MIN_BEYOND` samples above
it moves with every outlier that lands or does not land in the window,
so :func:`percentile` raises instead of reporting one.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The percentile has fewer than :data:`MIN_BEYOND` samples beyond it."""


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n`` samples."""
    return n - max(1, math.ceil(q / 100 * n))


def min_samples(q: float) -> int:
    """The fewest samples whose ``q``-th percentile :func:`percentile` reports."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q < 100) of ``values``.

    Nearest rank: the smallest sample with at least ``q`` percent of the
    samples at or below it.  Raises :class:`TooFewSamples` when fewer
    than :data:`MIN_BEYOND` samples lie above that rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q!r}")
    n = len(values)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond(n, q) if n else 0} beyond "
            f"it; at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[max(1, math.ceil(q / 100 * n)) - 1]


def geomean(values) -> float:
    """Geometric mean of positive ``values``."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
