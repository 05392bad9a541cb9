"""Model-layer tests: window law, densities, closed-form 1/N normalizer."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from bmixlhv.model import (
    Flavour,
    ModelParams,
    flavour_window_codes,
    inverse_n,
    p_density,
    q_shape,
    rho_marginal,
    rho_table,
)
from oracles import inverse_n_exact, window_flavour_scan

TWO_PI = 2.0 * math.pi
UNIT = ModelParams(tau=1.0, delta_m=1.0)

# frozen reference values, computed independently at 40 decimal digits from
# the piecewise-exact antiderivative form and rounded to nearest float
INVERSE_N_AT_0_X1 = 0.7172686040473479
INVERSE_N_AT_1_3_X0776 = 0.6580379796082217
RHO_AT_0_X1 = 0.17931715101183698

lams = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
times = st.floats(min_value=0.0, max_value=50.0)
dms = st.floats(min_value=0.05, max_value=5.0)


# ---------------------------------------------------------------------------
# window law

def test_window_examples():
    assert flavour_window_codes(0.0, 0.0, UNIT) == Flavour.B0BAR
    assert flavour_window_codes(math.pi, 0.0, UNIT) == Flavour.B0
    assert flavour_window_codes(0.0, math.pi, UNIT) == Flavour.B0  # phase wraps to pi
    assert flavour_window_codes(1.0, 1.0, UNIT) == Flavour.B0BAR  # phase 0 again


def test_window_boundary_ties_are_half_open():
    # pi/2 belongs to the B0 window, 3pi/2 back to B0bar; the phase -1e-18
    # rounds onto 2pi under the modulo and must still give B0bar
    cases = [(0.5 * math.pi, Flavour.B0), (1.5 * math.pi, Flavour.B0BAR),
             (-1e-18, Flavour.B0BAR)]
    for lam, flavour in cases:
        assert flavour_window_codes(lam, 0.0, UNIT) == flavour
        assert flavour_window_codes(np.array([lam]), np.zeros(1), UNIT).tolist() == [flavour]
    assert (-1e-18) % TWO_PI == TWO_PI  # precondition: the rounding case is real


def test_window_rule_has_one_vectorized_entry_point(monkeypatch):
    # the densities must not route through the vectorized codes, which
    # timing harnesses wrap as the sampler's stage
    import bmixlhv.model as model

    def refuse(*args):
        raise AssertionError("p_density called flavour_window_codes")

    monkeypatch.setattr(model, "flavour_window_codes", refuse)
    assert model.p_density(Flavour.B0BAR, 1.0, 0.5, UNIT) == math.exp(-0.5)


@given(lam=lams, t=times, dm=dms)
def test_window_matches_branch_scan(lam, t, dm):
    """The closed-form window agrees with brute-force branch scanning."""
    phase = lam - dm * t
    # keep clear of the window boundaries, where the scan has no claim
    dist = abs((phase - 0.5 * math.pi) % math.pi)
    assume(min(dist, math.pi - dist) > 1e-6)
    params = ModelParams(tau=1.0, delta_m=dm)
    assert int(flavour_window_codes(lam, t, params)) == window_flavour_scan(lam, t, dm)


@given(lam=lams, t=times, dm=dms)
def test_window_is_periodic_in_time(lam, t, dm):
    phase = lam - dm * t
    dist = abs((phase - 0.5 * math.pi) % math.pi)
    assume(min(dist, math.pi - dist) > 1e-6)
    params = ModelParams(tau=1.0, delta_m=dm)
    period = TWO_PI / dm
    assert flavour_window_codes(lam, t, params) == flavour_window_codes(lam, t + period, params)


def test_window_codes_match_scalar_path():
    rng = np.random.default_rng(1)
    # random phases plus the exact window boundaries and the 2pi wrap
    edges = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI, -1e-18]
    lam = np.concatenate([rng.uniform(0.0, TWO_PI, size=500), edges])
    t = np.concatenate([rng.uniform(0.0, 30.0, size=500), np.zeros(len(edges))])
    params = ModelParams(tau=1.0, delta_m=0.776)
    codes = flavour_window_codes(lam, t, params)
    assert codes.dtype == np.int8
    # one call per element on Python floats, the scalar path
    expected = [int(flavour_window_codes(float(l), float(u), params)) for l, u in zip(lam, t)]
    assert codes.tolist() == expected


# ---------------------------------------------------------------------------
# densities

def test_density_examples():
    assert p_density(Flavour.B0, 0.0, math.pi, UNIT) == pytest.approx(math.exp(-math.pi), rel=1e-15)
    assert p_density(Flavour.B0BAR, 0.0, math.pi, UNIT) == 0.0
    assert q_shape(Flavour.B0, 0.5 * math.pi, 0.5 * math.pi, UNIT) == pytest.approx(
        math.exp(-0.5 * math.pi), rel=1e-15
    )
    assert q_shape(Flavour.B0BAR, 0.5 * math.pi, 0.5 * math.pi, UNIT) == 0.0


@given(lam=lams, t=times, dm=dms)
def test_first_side_flavours_sum_to_exponential(lam, t, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    total = p_density(1, lam, t, params) + p_density(2, lam, t, params)
    # numpy's exp, which evaluates the law, may differ from libm's in the last ulp
    assert total == np.exp(-t)


@given(lam=lams, t=times, dm=dms)
def test_second_side_flavours_sum_to_rectified_cosine(lam, t, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    total = q_shape(1, lam, t, params) + q_shape(2, lam, t, params)
    assert total == np.exp(-t) * abs(math.cos(lam - dm * t))


@given(lam=lams, t=times, dm=dms)
def test_window_flavour_never_overlaps_second_side(lam, t, dm):
    """The second-side shape vanishes exactly on the window flavour: at equal
    times the two sides can never produce the same tag."""
    params = ModelParams(tau=1.0, delta_m=dm)
    k = flavour_window_codes(lam, t, params)
    assert q_shape(k, lam, t, params) == 0.0


@given(lam=lams, t=times, dm=dms)
def test_densities_are_nonnegative(lam, t, dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    for side in (1, 2):
        assert p_density(side, lam, t, params) >= 0.0
        assert q_shape(side, lam, t, params) >= 0.0


# ---------------------------------------------------------------------------
# 1/N normalizer

def test_inverse_n_frozen_values():
    assert inverse_n(0.0, UNIT) == pytest.approx(INVERSE_N_AT_0_X1, abs=1e-13)
    assert inverse_n(1.3, ModelParams(1.0, 0.776)) == pytest.approx(
        INVERSE_N_AT_1_3_X0776, abs=1e-13
    )
    assert rho_marginal(0.0, UNIT) == pytest.approx(RHO_AT_0_X1, abs=1e-13)


def test_inverse_n_closed_form_special_case():
    # at lam=0, x=1 the half-wave sum telescopes to an elementary expression
    expected = 0.5 + math.exp(-0.5 * math.pi) / (1.0 - math.exp(-math.pi))
    assert inverse_n(0.0, UNIT) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("dm", [0.5, 0.776, 2.0])
def test_inverse_n_matches_piecewise_antiderivative(dm):
    params = ModelParams(tau=1.0, delta_m=dm)
    for lam in np.linspace(0.0, TWO_PI, 17):
        assert inverse_n(lam, params) == pytest.approx(
            inverse_n_exact(float(lam), dm), abs=5e-11
        )


def test_inverse_n_is_pi_periodic():
    params = ModelParams(1.0, 0.776)
    for lam in (0.1, 0.9, 2.2, 3.0):
        assert inverse_n(lam, params) == pytest.approx(
            inverse_n(lam + math.pi, params), abs=1e-11
        )


@given(lam=lams, dm=dms)
def test_inverse_n_bounds(lam, dm):
    val = inverse_n(lam, ModelParams(tau=1.0, delta_m=dm))
    assert 0.0 < val <= 1.0


@given(lam=lams, log_x=st.floats(min_value=-300.0, max_value=300.0),
       tau=st.sampled_from([0.5, 1.0, 1.5]))
@example(lam=0.0, log_x=-200.0, tau=1.0)
@example(lam=0.5 * math.pi, log_x=-300.0, tau=1.0)
@example(lam=1.0, log_x=300.0, tau=1.0)
@example(lam=0.0, log_x=-269.5566349336715, tau=1.5)  # tau * a / a rounded up
def test_inverse_n_is_finite_and_bounded_at_extreme_x(lam, log_x, tau):
    """0 < 1/N <= tau far beyond the supported x range, also where
    (1/x)^2 would overflow."""
    val = inverse_n(lam, ModelParams(tau=tau, delta_m=10.0**log_x / tau))
    assert math.isfinite(val)
    assert 0.0 < val <= tau


@given(lam=lams, log_x=st.floats(min_value=-2.0, max_value=3.0))
def test_inverse_n_matches_exact_antiderivative_sums(lam, log_x):
    """The closed form against the segment-by-segment oracle over the whole
    supported x range, 1e-2 to 1e3."""
    x = 10.0**log_x
    assert inverse_n(lam, ModelParams(1.0, x)) == pytest.approx(
        inverse_n_exact(lam, x), abs=1e-12
    )


@pytest.mark.parametrize("x", [0.01, 0.776, 1000.0])
def test_inverse_n_array_call_matches_scalar_calls(x):
    params = ModelParams(1.0, x)
    lam = np.random.default_rng(3).uniform(0.0, TWO_PI, size=257)
    values = inverse_n(lam, params)
    assert isinstance(values, np.ndarray) and values.shape == lam.shape
    scalars = [inverse_n(float(l), params) for l in lam]
    assert all(type(v) is float for v in scalars)
    assert values.tolist() == scalars


def test_rho_marginal_respects_envelope():
    dense = np.linspace(0.0, TWO_PI, 20_001)
    for x in (0.01, 0.776, 1000.0):
        assert np.max(rho_marginal(dense, ModelParams(1.0, x))) < 0.25


def test_rho_table_evaluates_the_closed_form_density():
    params = ModelParams(2.0, 0.388)
    rho = rho_table(params)
    lam = np.linspace(0.0, TWO_PI, 65)
    assert np.array_equal(rho(lam), rho_marginal(lam, params))
    assert rho(1.3) == rho_marginal(1.3, params)


# ---------------------------------------------------------------------------
# value objects

@pytest.mark.parametrize(
    "tau,dm", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
               (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
               (1e300, 1e300), (1e-200, 1e-200)]
)
def test_params_validation(tau, dm):
    with pytest.raises(ValueError):
        ModelParams(tau=tau, delta_m=dm)


def test_params_normalize_to_plain_floats():
    p = ModelParams(np.float64(2.0), np.float64(0.388))
    assert type(p.tau) is float and type(p.delta_m) is float
    assert p.x == pytest.approx(0.776, rel=1e-15)


def test_flavour_labels_round_trip():
    assert [fl.label for fl in Flavour] == ["B0", "B0bar"]
    assert int(Flavour.B0) == 1 and int(Flavour.B0BAR) == 2
