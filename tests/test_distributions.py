"""Delay distributions: shapes, bounds, and sampling contracts."""

import random
import statistics

import pytest
from hypothesis import given, strategies as st

from permachain.distributions import Distribution, constant, round_half_up_ms
from permachain.errors import ConfigError


def rng():
    return random.Random(42)


def test_round_half_up():
    assert round_half_up_ms(2.5) == 3
    assert round_half_up_ms(2.49) == 2
    assert round_half_up_ms(0.0) == 0


@pytest.mark.parametrize("x, expected", [(-1.5, 0), (-0.5, 0), (-0.49999, 0), (0, 0),
                                         (0.5, 1), (2.5, 3), (1e9, 10**9)])
def test_draws_round_half_up_and_clip_at_zero(x, expected):
    assert max(0, round_half_up_ms(x)) == expected
    dists = [Distribution("normal", {"mean": x, "std": 0})]  # draws exactly x
    if x >= 0:
        dists += [Distribution("uniform", {"lo": x, "hi": x}),
                  Distribution("empirical", {"values": [x]})]
    for dist in dists:
        assert dist.sample_ms(rng()) == expected, dist


def test_constant_always_same():
    dist = constant(10)
    g = rng()
    assert [dist.sample_ms(g) for _ in range(5)] == [10, 10, 10, 10, 10]


def test_degenerate_uniform():
    dist = Distribution("uniform", {"lo": 5, "hi": 5})
    g = rng()
    assert all(dist.sample_ms(g) == 5 for _ in range(10))


def test_normal_truncated_at_zero():
    dist = Distribution("normal", {"mean": 1.0, "std": 5.0})
    g = rng()
    draws = [dist.sample_ms(g) for _ in range(2000)]
    assert min(draws) >= 0


def test_exponential_mean():
    dist = Distribution("exponential", {"rate": 0.01})  # mean 100 ms
    g = rng()
    draws = [dist.sample_ms(g) for _ in range(20_000)]
    assert abs(statistics.fmean(draws) - 100) < 3


def test_empirical_mean_matches_sample_list():
    # law-of-large-numbers check against the list's own mean
    dist = Distribution("empirical", {"values": [3, 7]})
    g = rng()
    draws = [dist.sample_ms(g) for _ in range(10_000)]
    assert set(draws) <= {3, 7}
    assert abs(statistics.fmean(draws) - 5.0) <= 0.05 * 5.0


def test_empirical_distribution_total_variation():
    values = [1, 1, 2, 5, 5, 5, 9, 12]
    dist = Distribution("empirical", {"values": values})
    g = rng()
    n = 10_000
    draws = [dist.sample_ms(g) for _ in range(n)]
    support = sorted(set(values))
    expected = {v: values.count(v) / len(values) for v in support}
    observed = {v: draws.count(v) / n for v in support}
    tv = 0.5 * sum(abs(expected[v] - observed[v]) for v in support)
    assert tv <= 0.05


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        Distribution("empirical", {"values": []})
    with pytest.raises(ConfigError):
        Distribution("exponential", {"rate": 0})
    with pytest.raises(ConfigError):
        Distribution("uniform", {"lo": 5, "hi": 2})
    with pytest.raises(ConfigError):
        Distribution("weird", {})


def test_mean_ms_analytic():
    assert constant(7).mean_ms() == 7
    assert Distribution("uniform", {"lo": 2, "hi": 8}).mean_ms() == 5
    assert Distribution("exponential", {"rate": 0.001}).mean_ms() == 1000


def test_roundtrip_dict():
    spec = {"kind": "normal", "mean": 5, "std": 1}
    assert Distribution.from_dict(spec).to_dict() == spec


@given(st.sampled_from(["constant", "uniform", "normal", "exponential", "empirical"]),
       st.integers(0, 10_000))
def test_all_samples_nonnegative_ints(kind, seed):
    params = {
        "constant": {"ms": 3},
        "uniform": {"lo": 0, "hi": 20},
        "normal": {"mean": 2, "std": 10},
        "exponential": {"rate": 0.5},
        "empirical": {"values": [0, 1, 4]},
    }[kind]
    dist = Distribution(kind, params)
    g = random.Random(seed)
    for _ in range(20):
        x = dist.sample_ms(g)
        assert isinstance(x, int) and x >= 0
