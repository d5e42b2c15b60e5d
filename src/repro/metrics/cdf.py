"""Empirical cumulative distribution functions.

Figure 13 of the paper reports CDFs of coverage and moving distance over
hundreds of random-obstacle runs.  :class:`EmpiricalCDF` is the small
utility the experiment harness uses to build and query those curves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["EmpiricalCDF"]


@dataclass
class EmpiricalCDF:
    """An empirical CDF built from a finite sample."""

    values: List[float]

    def __init__(self, samples: Sequence[float]):
        if not samples:
            raise ValueError("an empirical CDF needs at least one sample")
        self.values = sorted(float(v) for v in samples)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def probability_at_most(self, x: float) -> float:
        """``P(X <= x)`` under the empirical distribution."""
        return bisect_right(self.values, x) / len(self.values)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, ``0 <= q <= 1`` (nearest-rank definition)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if q == 0.0:
            return self.values[0]
        rank = max(1, math.ceil(q * len(self.values)))
        return self.values[min(rank, len(self.values)) - 1]

    def mean(self) -> float:
        """Sample mean."""
        return sum(self.values) / len(self.values)

    def median(self) -> float:
        """Sample median (the 0.5 quantile)."""
        return self.quantile(0.5)

    def series(self, num_points: int = 11) -> List[Tuple[float, float]]:
        """A fixed-size sampling of the CDF, convenient for printed tables."""
        if num_points < 2:
            raise ValueError("need at least two points")
        lo, hi = self.values[0], self.values[-1]
        if hi == lo:
            return [(lo, 1.0)] * num_points
        step = (hi - lo) / (num_points - 1)
        return [
            (lo + i * step, self.probability_at_most(lo + i * step))
            for i in range(num_points)
        ]
