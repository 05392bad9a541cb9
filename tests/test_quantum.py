"""Closed-form rate tests: fixed examples, identities, internal consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmixlhv.model import ModelParams
from bmixlhv.quantum import (
    asymmetry,
    conditional_from_joint,
    conditional_rate,
    i_kl,
    joint_density,
    pair_class,
    rate_curve,
)

UNIT = ModelParams(tau=1.0, delta_m=1.0)
DEFAULT = ModelParams(tau=1.0, delta_m=0.776)

times = st.floats(min_value=0.0, max_value=40.0)
dms = st.floats(min_value=0.05, max_value=5.0)


def test_pair_class():
    assert pair_class(1, 1) == 1
    assert pair_class(2, 2) == 1
    assert pair_class(1, 2) == 2
    assert pair_class(2, 1) == 2


def test_conditional_rate_examples():
    # perfect anticorrelation at zero lag: same-class rate is exactly 0
    assert conditional_rate(1, 0.0, UNIT) == 0.0
    assert conditional_rate(2, 0.0, UNIT) == 0.5
    dt = math.pi  # cos(delta_m dt) = -1: roles swap
    assert conditional_rate(1, dt, UNIT) == pytest.approx(
        0.5 * math.exp(-math.pi), rel=1e-15
    )
    assert conditional_rate(2, dt, UNIT) == 0.0


def test_joint_density_examples():
    assert joint_density(1, 1, 1.7, 1.7, UNIT) == 0.0
    assert joint_density(1, 2, 0.0, 0.0, UNIT) == 0.5
    expected = 0.25 * math.exp(-3.0) * (1.0 - math.cos(1.0))
    assert joint_density(1, 1, 2.0, 1.0, UNIT) == pytest.approx(expected, rel=1e-15)
    # swapping flavours with fixed times only flips the cosine sign
    expected_opp = 0.25 * math.exp(-3.0) * (1.0 + math.cos(1.0))
    assert joint_density(2, 1, 2.0, 1.0, UNIT) == pytest.approx(expected_opp, rel=1e-15)


@given(t1=times, t2=times, dm=dms)
def test_joint_density_symmetries(t1, t2, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        v = joint_density(k, l, t1, t2, params)
        assert v >= 0.0
        assert v == joint_density(k, l, t2, t1, params)  # time exchange
        assert v == joint_density(3 - k, 3 - l, t1, t2, params)  # flavour flip


@given(t1=times, t2=times, dm=dms)
def test_joint_density_sums_to_uncorrelated_exponentials(t1, t2, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    total = sum(
        joint_density(k, l, t1, t2, params) for k in (1, 2) for l in (1, 2)
    )
    assert total == pytest.approx(math.exp(-(t1 + t2)), rel=1e-13)


def test_i_kl_examples():
    assert i_kl(1, 1, 0.0) == 0.0
    assert i_kl(1, 2, 0.0) == 2.0
    assert i_kl(2, 2, 4.0) == pytest.approx(1.0 - math.cos(4.0), rel=1e-15)
    assert i_kl(2, 1, 4.0) == pytest.approx(1.0 + math.cos(4.0), rel=1e-15)


@given(s=st.floats(min_value=-20.0, max_value=20.0))
def test_i_kl_identities(s):
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        v = i_kl(k, l, s)
        assert 0.0 <= v <= 2.0
        assert v == i_kl(l, k, s)
    # the two classes always partition the full overlap
    assert i_kl(1, 1, s) + i_kl(1, 2, s) == pytest.approx(2.0, abs=1e-15)
    assert i_kl(1, 1, s) == pytest.approx(i_kl(1, 1, s + 2.0 * math.pi), abs=1e-12)


def test_conditional_consistency_on_random_grid():
    """tau e^{2 min/tau} r_kl(t1,t2) reproduces the lag-only conditional rate."""
    rng = np.random.default_rng(42)
    t1 = rng.uniform(0.0, 5.0, size=2000)
    t2 = rng.uniform(0.0, 5.0, size=2000)
    for params in (UNIT, DEFAULT, ModelParams(2.0, 1.0)):
        for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lhs = conditional_from_joint(k, l, t1, t2, params)
            rhs = conditional_rate(pair_class(k, l), np.abs(t1 - t2), params)
            assert np.allclose(lhs, rhs, rtol=1e-13, atol=0.0)


@given(dt=times, dm=dms)
def test_asymmetry_is_bounded_cosine(dt, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    a = asymmetry(dt, params)
    assert -1.0 <= a <= 1.0
    assert a == math.cos(dm * dt)
    same = conditional_rate(1, dt, params)
    opp = conditional_rate(2, dt, params)
    assert (opp - same) == pytest.approx(a * (opp + same), abs=1e-15)


def test_rate_curve_matches_pointwise_rates():
    grid = np.linspace(0.0, 5.0, 26)
    same, opposite = rate_curve(DEFAULT, grid)
    assert np.array_equal(same, conditional_rate(1, grid, DEFAULT))
    assert np.array_equal(opposite, conditional_rate(2, grid, DEFAULT))
    assert np.array_equal(same, [conditional_rate(1, float(dt), DEFAULT) for dt in grid])


def test_scalar_and_array_evaluation_agree():
    grid = np.array([0.0, 0.3, 2.7])
    arr = conditional_rate(2, grid, DEFAULT)
    assert isinstance(conditional_rate(2, 0.3, DEFAULT), float)
    assert arr[1] == conditional_rate(2, 0.3, DEFAULT)
    j_arr = joint_density(1, 2, grid, grid[::-1], DEFAULT)
    assert j_arr[0] == joint_density(1, 2, 0.0, 2.7, DEFAULT)
