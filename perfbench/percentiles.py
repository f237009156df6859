"""Summary statistics for timing samples."""
from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def median(samples) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples lie beyond
    the chosen rank, because such a tail value rests on too few samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; need at least {MIN_BEYOND}"
        )
    return float(ordered[rank - 1])
