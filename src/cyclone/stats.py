"""Order-statistics model for racing independent randomized searches.

Given an empirical distribution of single-run completion times, predicts
the behaviour of N independent copies racing to the first answer: the
distribution of the minimum, its mean and spread, and the implied
speedup over a single run.
"""

from __future__ import annotations

import math
from bisect import bisect_right


class EmptyDistribution(ValueError):
    """Raised when a distribution is built from no samples."""


class ZeroTime(ZeroDivisionError):
    """Raised when a speedup would divide by an expected time of zero."""


class EmpiricalDistribution:
    """Sorted sample of completion times, all finite and non-negative."""

    __slots__ = ("samples",)

    def __init__(self, samples: tuple[float, ...]):
        self.samples = samples

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        xs = sorted(float(v) for v in values)
        if not xs:
            raise EmptyDistribution("need at least one sample")
        for v in xs:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"bad sample {v!r}: must be finite and >= 0")
        return cls(tuple(xs))

    def cdf(self, t: float) -> float:
        """Fraction of samples <= t."""
        return bisect_right(self.samples, t) / len(self.samples)

    def swarm_cdf(self, t: float, n: int) -> float:
        """Probability that the fastest of n independent runs finishes by t."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return 1.0 - (1.0 - self.cdf(t)) ** n

    def _min_weights(self, n: int) -> list[float]:
        # weight of sorted sample j as the winner among n draws:
        # P(min falls on rank j) = ((m-j)/m)^n - ((m-j-1)/m)^n, j from 0
        m = len(self.samples)
        return [
            ((m - j) / m) ** n - ((m - j - 1) / m) ** n for j in range(m)
        ]

    def expected_min(self, n: int) -> float:
        """Mean completion time of the fastest of n independent runs."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        w = self._min_weights(n)
        return sum(t * p for t, p in zip(self.samples, w))

    def min_stddev(self, n: int) -> float:
        """Standard deviation of the fastest of n independent runs."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        top = self.samples[-1]
        if top == 0.0:
            return 0.0
        # scaled to the largest sample: squaring a deviation past about
        # 1e154 overflows, and one of about 1e-162 underflows to zero
        xs = [t / top for t in self.samples]
        w = self._min_weights(n)
        mean = sum(x * p for x, p in zip(xs, w))
        var = sum((x - mean) ** 2 * p for x, p in zip(xs, w))
        return math.sqrt(max(var, 0.0)) * top

    def speedup(self, n: int) -> float:
        """Expected single-run time over expected winner time for n runs.

        At least 1 for any sample set.  Can exceed n when a few samples
        sit near zero, so no upper check is made here.
        """
        top = self.samples[-1]
        if top == 0.0:
            raise ZeroTime("expected minimum is zero")
        # scaled to the largest sample: a weighted sum of subnormal samples
        # can round to zero and turn the ratio into 0 or a division by zero
        scaled = EmpiricalDistribution(tuple(t / top for t in self.samples))
        return scaled.expected_min(1) / scaled.expected_min(n)
