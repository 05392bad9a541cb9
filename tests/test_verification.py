"""Quadrature cross-check layer: report plumbing plus the checks themselves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmixlhv.model import Flavour, ModelParams, inverse_n, p_density, q_shape
from bmixlhv import verification
from bmixlhv.quantum import i_kl, joint_density
from bmixlhv.verification import (
    CONDITIONAL_TOLERANCE,
    IKL_TOLERANCE,
    JOINT_TOLERANCE,
    NORMALIZATION_TOLERANCE,
    CheckResult,
    QuadratureError,
    QuadratureReport,
    check_i_kl,
    check_normalizations,
    full_verification,
    quad,
    reconstruct_joint,
)
from oracles import adaptive_quad

UNIT = ModelParams(tau=1.0, delta_m=1.0)
DEFAULT = ModelParams(tau=1.0, delta_m=0.776)


# ---------------------------------------------------------------------------
# report plumbing

def test_check_result_residual_and_boundary():
    c = CheckResult("x", target=1.0, computed=1.25, tolerance=0.25)
    assert c.residual == 0.25
    assert c.passed  # residual equal to tolerance still passes
    assert not CheckResult("x", 1.0, 1.2500001, 0.25).passed


def test_report_merge_is_order_independent():
    a = QuadratureReport()
    a.add("b_check", 1.0, 1.0, 1e-9)
    a.add("a_check", 2.0, 2.5, 1e-9)
    b = QuadratureReport()
    b.add("c_check", 0.0, 0.0, 1e-9)
    left = QuadratureReport()
    left.merge(a)
    left.merge(b)
    right = QuadratureReport()
    right.merge(b)
    right.merge(a)
    assert [c.name for c in left.sorted_checks()] == [c.name for c in right.sorted_checks()]
    assert left.max_residual == right.max_residual == 0.5
    assert not left.all_passed
    assert [c.name for c in left.failures] == ["a_check"]


def test_empty_report_defaults():
    report = QuadratureReport()
    assert report.all_passed
    assert report.max_residual == 0.0
    assert report.failures == []


def test_tolerance_constants_are_ordered():
    # criterion chain: conditional < i_kl < normalization < joint
    assert CONDITIONAL_TOLERANCE == 1e-12
    assert IKL_TOLERANCE == 1e-10
    assert NORMALIZATION_TOLERANCE == 1e-9
    assert JOINT_TOLERANCE == 1e-8


def test_quadrature_error_is_runtime_error():
    assert issubclass(QuadratureError, RuntimeError)


# ---------------------------------------------------------------------------
# the fixed-order rule

def test_quad_refuses_a_kink_inside_a_part():
    def kinked(t):
        return np.abs(t - 0.3)

    with pytest.raises(QuadratureError, match="kinked test"):
        quad(kinked, [0.0, 1.0], 1.0, "kinked test")
    # the same function with its kink as an edge is two exact linear pieces
    assert quad(kinked, [0.0, 0.3, 1.0], 1.0, "kinked test") == pytest.approx(0.29, abs=1e-15)


def test_quad_refuses_a_rule_above_the_node_limit_before_evaluating(monkeypatch):
    def linear(t):
        return t

    def never(t):
        raise AssertionError("integrand evaluated")

    # two pieces of width 1 in parts of 0.1: 2 x 10 x 20 nodes
    monkeypatch.setattr(verification, "QUAD_MAX_NODES", 400)
    assert quad(linear, [0.0, 1.0, 2.0], 0.1, "at the limit") == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(QuadratureError, match="past the limit: more than 400 quadrature nodes"):
        quad(never, [0.0, 1.0, 2.0], 0.099, "past the limit")
    monkeypatch.undo()
    # parts of zero width, and widths whose part count overflows a float
    for max_width in (1e-300, 5e-324, 0.0):
        with pytest.raises(QuadratureError, match="quadrature nodes"):
            quad(never, [0.0, math.pi], max_width, "tiny parts")


# ---------------------------------------------------------------------------
# joint reconstruction

def test_reconstruct_joint_examples():
    # equal times, same flavour: the integrand vanishes pointwise
    assert reconstruct_joint(1, 1, 1.3, 1.3, UNIT) == pytest.approx(0.0, abs=1e-15)
    assert reconstruct_joint(1, 2, 0.0, 0.0, UNIT) == pytest.approx(0.5, abs=1e-10)
    target = joint_density(2, 1, 2.0, 1.0, UNIT)
    assert reconstruct_joint(2, 1, 2.0, 1.0, UNIT) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_reconstruct_joint_agrees_on_grid(k, l):
    grid = np.linspace(0.0, 5.0, 6)
    worst = 0.0
    for t1 in grid:
        for t2 in grid:
            got = reconstruct_joint(k, l, float(t1), float(t2), DEFAULT)
            want = joint_density(k, l, float(t1), float(t2), DEFAULT)
            worst = max(worst, abs(got - want))
    assert worst <= JOINT_TOLERANCE


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_reconstruct_joint_array_matches_scalar_calls(k, l):
    times = np.linspace(0.0, 5.0, 21)
    tt1, tt2 = np.meshgrid(times, times)
    grid = reconstruct_joint(k, l, tt1, tt2, DEFAULT)
    assert grid.shape == (21, 21)
    scalar = [[reconstruct_joint(k, l, float(a), float(b), DEFAULT) for a, b in zip(r1, r2)]
              for r1, r2 in zip(tt1, tt2)]
    np.testing.assert_allclose(grid, scalar, rtol=0.0, atol=1e-15)


def test_reconstruct_joint_scales_with_lifetime():
    # time unit in, 1/tau^2 out: r(tau t1, tau t2; tau) = r(t1, t2; 1)/tau^2
    tau = 2.0
    scaled = ModelParams(tau=tau, delta_m=0.776 / tau)
    a = reconstruct_joint(1, 2, 1.1, 0.4, DEFAULT)
    b = reconstruct_joint(1, 2, 1.1 * tau, 0.4 * tau, scaled)
    assert b == pytest.approx(a / tau**2, rel=1e-9)


# ---------------------------------------------------------------------------
# window-overlap integral

def test_check_i_kl_examples():
    computed, closed = check_i_kl(1, 1, 0.0)
    assert closed == 0.0
    assert computed == pytest.approx(0.0, abs=1e-13)
    computed, closed = check_i_kl(1, 2, 0.0)
    assert closed == 2.0
    assert computed == pytest.approx(2.0, abs=1e-12)
    computed, closed = check_i_kl(2, 2, 4.0)
    assert closed == pytest.approx(1.0 - math.cos(4.0), rel=1e-15)
    assert computed == pytest.approx(closed, abs=IKL_TOLERANCE)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_check_i_kl_sweep(k, l):
    for s in np.linspace(0.0, 4.0 * math.pi, 33):
        computed, closed = check_i_kl(k, l, float(s))
        assert closed == i_kl(k, l, float(s))
        assert abs(computed - closed) <= IKL_TOLERANCE


# ---------------------------------------------------------------------------
# normalization bundle

def test_check_normalizations_names_and_counts():
    report = check_normalizations(DEFAULT)
    names = [c.name for c in report.checks]
    for expected in (
        "rho_marginal_integral",
        "inverse_n_integral_lambda_first",
        "inverse_n_integral_time_first",
        "inverse_n_integral_order_agreement",
        "time_cutoff_tail_bound",
    ):
        assert expected in names
    assert sum(n.startswith("p_normalization/") for n in names) == 64
    assert sum(n.startswith("q_normalization/") for n in names) == 64
    assert len(names) == 5 + 128
    assert report.all_passed
    assert report.max_residual <= NORMALIZATION_TOLERANCE


def test_check_normalizations_tight_at_defaults(params):
    report = check_normalizations(params)
    assert report.all_passed
    # the identity integral of 1/N over the phase circle equals 4 tau
    by_name = {c.name: c for c in report.checks}
    c = by_name["inverse_n_integral_lambda_first"]
    assert c.target == 4.0 * params.tau
    assert c.residual <= NORMALIZATION_TOLERANCE


# ---------------------------------------------------------------------------
# the full bundle

@pytest.mark.parametrize("x", [0.05, 0.2, 0.776, 5.0])
def test_phases_integrated_together_give_each_phase_bit_for_bit(monkeypatch, x):
    # the stratified phases share quad calls; with a budget too small for two
    # phases each gets a call of its own, and every value must stay the same.
    # At x = 0.05 a phase's row spans no whole period, so each keeps its own call
    params = ModelParams(1.0, x)
    together = {c.name: c.computed for c in check_normalizations(params).checks}
    monkeypatch.setattr(verification, "PHASE_PASS_NODES", 1)
    assert {c.name: c.computed for c in check_normalizations(params).checks} == together


@pytest.mark.parametrize("x", [0.01, 50.0])
def test_check_normalizations_at_extreme_x(x):
    report = check_normalizations(ModelParams(1.0, x))
    assert report.all_passed
    assert len(report.checks) == 5 + 128


def test_full_verification_production_size():
    report = full_verification(DEFAULT)
    assert report.all_passed
    names = [c.name for c in report.checks]
    # 4 aggregated rows per family, then the normalization bundle
    assert sum(n.startswith("joint_reconstruction/") for n in names) == 4
    assert sum(n.startswith("i_kl_quadrature/") for n in names) == 4
    assert sum(n.startswith("conditional_relation/") for n in names) == 4
    assert len(names) == 12 + 5 + 128 == 145
    by_name = {c.name: c for c in report.checks}
    assert by_name["joint_reconstruction/k1l2"].tolerance == JOINT_TOLERANCE
    assert by_name["conditional_relation/k2l2"].tolerance == CONDITIONAL_TOLERANCE
    # aggregated rows report the worst residual against a zero target
    assert by_name["joint_reconstruction/k1l2"].target == 0.0


# ---------------------------------------------------------------------------
# independent oracle: scipy's adaptive quadrature straight from the densities

def _phase_kinks(t, dm):
    return [(dm * t + h * math.pi) % (2.0 * math.pi) for h in (0.5, 1.5)]


@pytest.mark.parametrize("x", [0.5, 0.776, 2.0])
def test_checks_agree_with_adaptive_oracle(x):
    params = ModelParams(1.0, x)
    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for t1, t2 in [(0.0, 0.0), (0.3, 1.7), (2.5, 0.4), (4.0, 4.6)]:
            want = adaptive_quad(
                lambda lam: p_density(k, lam, t1, params) * q_shape(l, lam, t2, params),
                0.0, 2.0 * math.pi, _phase_kinks(t1, x) + _phase_kinks(t2, x),
            ) / 4.0
            assert reconstruct_joint(k, l, t1, t2, params) == pytest.approx(
                want, abs=JOINT_TOLERANCE)

    by_name = {c.name: c.computed for c in check_normalizations(params).checks}
    j = 21
    lam = (j + 0.5) * 2.0 * math.pi / 64
    t_max = 60.0
    flips = [((lam - 0.5 * math.pi) % math.pi + m * math.pi) / x
             for m in range(math.ceil(t_max * x / math.pi) + 1)]
    p_total = adaptive_quad(lambda t: sum(p_density(f, lam, t, params) for f in Flavour),
                            0.0, t_max, flips)
    q_total = adaptive_quad(lambda t: sum(q_shape(f, lam, t, params) for f in Flavour),
                            0.0, t_max, flips)
    assert by_name[f"p_normalization/lambda_{j:03d}"] == pytest.approx(
        p_total, abs=NORMALIZATION_TOLERANCE)
    assert by_name[f"q_normalization/lambda_{j:03d}"] == pytest.approx(
        q_total / inverse_n(lam, params), abs=NORMALIZATION_TOLERANCE)

    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for s in [0.0, 1.0, x, 7.5]:
            shift = (k - l - 1) * math.pi + s
            zeros = [0.5 * math.pi - shift + m * math.pi for m in range(-4, 8)]
            want = adaptive_quad(lambda v: max(math.cos(v + shift), 0.0),
                                 -0.5 * math.pi, 0.5 * math.pi, zeros)
            assert check_i_kl(k, l, s)[0] == pytest.approx(want, abs=IKL_TOLERANCE)


# ---------------------------------------------------------------------------
# extreme mixing strengths

@settings(max_examples=25)
@given(x=st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e))
def test_checks_hold_for_log_uniform_x(x):
    params = ModelParams(1.0, x)
    times = np.linspace(0.0, 5.0, 5)
    tt1, tt2 = np.meshgrid(times, times)
    lags = x * np.linspace(0.0, 5.0, 16)
    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        rebuilt = reconstruct_joint(k, l, tt1, tt2, params)
        assert np.max(np.abs(rebuilt - joint_density(k, l, tt1, tt2, params))) <= JOINT_TOLERANCE
        computed, closed = check_i_kl(k, l, lags)
        assert np.max(np.abs(computed - closed)) <= IKL_TOLERANCE
