"""Racing model: minima of independent draws from an empirical sample.

The closed-form weights are checked three ways: exhaustive enumeration
of all draw tuples on tiny samples, Monte Carlo on a large synthetic
sample, and the analytic min-of-exponentials identity.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclone import EmpiricalDistribution, EmptyDistribution, ZeroTime

samples_st = st.lists(
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
)


def enumerated_expected_min(values, n):
    """Mean minimum over all len(values)^n equally likely draw tuples."""
    total = 0.0
    for tup in itertools.product(values, repeat=n):
        total += min(tup)
    return total / len(values) ** n


def test_expected_min_frozen_pair():
    d = EmpiricalDistribution.from_samples([2.0, 4.0])
    # four equally likely pairs: min of (2,2),(2,4),(4,2),(4,4) -> 10/4
    assert d.expected_min(2) == pytest.approx(2.5, abs=1e-15)
    assert d.expected_min(1) == pytest.approx(3.0, abs=1e-15)


def test_expected_min_matches_enumeration():
    values = [0.5, 1.0, 1.0, 3.0, 7.5]
    d = EmpiricalDistribution.from_samples(values)
    for n in (1, 2, 3, 4):
        assert d.expected_min(n) == pytest.approx(enumerated_expected_min(values, n), rel=1e-12)


def test_swarm_cdf_frozen():
    d = EmpiricalDistribution.from_samples([2.0, 4.0])
    assert d.swarm_cdf(3.0, 16) == pytest.approx(1 - 2.0**-16, abs=1e-12)
    assert d.swarm_cdf(1.0, 16) == 0.0
    assert d.swarm_cdf(4.0, 16) == 1.0


def test_cdf_step_positions():
    d = EmpiricalDistribution.from_samples([1.0, 2.0, 2.0, 5.0])
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.25
    assert d.cdf(2.0) == 0.75
    assert d.cdf(5.0) == 1.0


def test_min_stddev_matches_enumeration():
    values = [0.5, 1.0, 3.0]
    d = EmpiricalDistribution.from_samples(values)
    for n in (1, 2, 3):
        mean = enumerated_expected_min(values, n)
        var = 0.0
        for tup in itertools.product(values, repeat=n):
            var += (min(tup) - mean) ** 2
        var /= len(values) ** n
        assert d.min_stddev(n) == pytest.approx(math.sqrt(var), rel=1e-12)


def test_min_stddev_of_large_and_zero_samples_is_finite():
    # the minimum of n draws from {0, 1e200} is 1e200 with probability
    # 2**-n, so its stddev is 1e200 * sqrt(2**-n * (1 - 2**-n))
    d = EmpiricalDistribution.from_samples([1e200, 0.0])
    for n in (1, 2, 5):
        p = 2.0 ** -n
        assert d.min_stddev(n) == pytest.approx(1e200 * math.sqrt(p * (1 - p)), rel=1e-12)
    assert EmpiricalDistribution.from_samples([0.0, 0.0]).min_stddev(3) == 0.0


def test_monte_carlo_agrees_within_three_standard_errors():
    rng = np.random.default_rng(2024)
    samples = rng.exponential(1.0, 500)
    d = EmpiricalDistribution.from_samples(samples)
    draws = rng.choice(samples, size=(100_000, 16), replace=True)
    minima = draws.min(axis=1)
    se = minima.std(ddof=1) / math.sqrt(len(minima))
    assert abs(minima.mean() - d.expected_min(16)) <= 3 * se


def test_exponential_minimum_scales_inversely():
    # min of N exponentials is exponential with N times the rate
    rng = random.Random(99)
    samples = [rng.expovariate(1.0) for _ in range(10_000)]
    d = EmpiricalDistribution.from_samples(samples)
    mean = sum(samples) / len(samples)
    assert d.expected_min(16) == pytest.approx(mean / 16, rel=0.05)


def test_speedup_of_near_constant_samples_is_near_one():
    d = EmpiricalDistribution.from_samples([5.0, 5.0, 5.0])
    assert d.speedup(8) == pytest.approx(1.0)


def test_speedup_zero_time_raises():
    d = EmpiricalDistribution.from_samples([0.0, 0.0])
    with pytest.raises(ZeroTime):
        d.speedup(4)


def test_empty_and_bad_samples_rejected():
    with pytest.raises(EmptyDistribution):
        EmpiricalDistribution.from_samples([])
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_samples([1.0, -2.0])
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_samples([1.0, math.inf])


def test_n_must_be_positive():
    d = EmpiricalDistribution.from_samples([1.0])
    with pytest.raises(ValueError):
        d.expected_min(0)
    with pytest.raises(ValueError):
        d.swarm_cdf(1.0, 0)


@given(samples_st, st.integers(1, 12))
def test_expected_min_never_exceeds_mean(values, n):
    d = EmpiricalDistribution.from_samples(values)
    assert d.expected_min(n) <= d.expected_min(1) + 1e-9
    assert d.expected_min(n) >= min(values) - 1e-9


@given(samples_st, st.integers(1, 11))
def test_expected_min_monotone_in_n(values, n):
    d = EmpiricalDistribution.from_samples(values)
    assert d.expected_min(n + 1) <= d.expected_min(n) + 1e-9


@given(samples_st, st.integers(1, 12), st.floats(0, 1e6, allow_nan=False))
def test_swarm_cdf_dominates_single_cdf(values, n, t):
    d = EmpiricalDistribution.from_samples(values)
    assert d.swarm_cdf(t, n) >= d.cdf(t) - 1e-12
    assert 0.0 <= d.swarm_cdf(t, n) <= 1.0


@given(samples_st, st.integers(1, 12))
def test_speedup_at_least_one(values, n):
    d = EmpiricalDistribution.from_samples(values)
    try:
        assert d.speedup(n) >= 1.0 - 1e-9
    except ZeroTime:
        pass  # all-zero samples have no meaningful ratio
