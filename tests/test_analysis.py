"""Histogramming, expected counts, goodness of fit, and two-sample tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import chi2 as chi2_dist

from bmixlhv import analysis
from bmixlhv.analysis import (
    BinnedRates,
    FitRefusedError,
    bin_events,
    bin_table,
    expected_counts,
    goodness_of_fit,
)
from bmixlhv.model import ModelParams
from bmixlhv.montecarlo import EventBatch, RngStats, SimConfig, generate
from oracles import delta_t_bin_probability, two_sample_chi2

DEFAULT = ModelParams(tau=1.0, delta_m=0.776)


def _mk_batch(t1, t2, f1, f2):
    n = len(t1)
    return EventBatch(
        index=np.arange(n, dtype=np.uint64),
        lam=np.zeros(n),
        t1=np.asarray(t1, dtype=float),
        flavour1=np.asarray(f1, dtype=np.int8),
        t2=np.asarray(t2, dtype=float),
        flavour2=np.asarray(f2, dtype=np.int8),
        swapped=np.zeros(n, dtype=bool),
        config=SimConfig(params=DEFAULT, n_events=n, seed=0),
        rng_stats=RngStats.from_proposals(n, n, n),
    )


# ---------------------------------------------------------------------------
# binning

def test_bin_events_half_open_placement():
    edges = np.array([0.0, 0.2, 0.4])
    batch = _mk_batch(
        t1=[0.0, 0.5, 0.4, 1.0],
        t2=[0.0, 0.3, 0.0, 0.3],  # lags: 0.0, 0.2, 0.4, 0.7
        f1=[1, 1, 1, 1],
        f2=[1, 2, 2, 2],
    )
    binned = bin_events(batch, edges)
    assert binned.counts_same.tolist() == [1.0, 0.0]  # lag 0 in the first bin
    assert binned.counts_opposite.tolist() == [0.0, 1.0]  # lag 0.2 rolls right
    assert binned.n_total == 4  # overflow lags still count toward the total


def test_bin_events_is_permutation_invariant():
    cfg = SimConfig(params=DEFAULT, n_events=2000, seed=31)
    batch = generate(cfg)
    edges = np.linspace(0.0, 5.0, 21)
    a = bin_events(batch, edges)
    order = np.random.default_rng(0).permutation(len(batch))
    shuffled = EventBatch(
        index=batch.index[order],
        lam=batch.lam[order],
        t1=batch.t1[order],
        flavour1=batch.flavour1[order],
        t2=batch.t2[order],
        flavour2=batch.flavour2[order],
        swapped=batch.swapped[order],
        config=batch.config,
        rng_stats=batch.rng_stats,
    )
    b = bin_events(shuffled, edges)
    assert np.array_equal(a.counts_same, b.counts_same)
    assert np.array_equal(a.counts_opposite, b.counts_opposite)


def test_binned_rates_add_like_histograms():
    edges = np.linspace(0.0, 5.0, 11)
    a = bin_events(generate(SimConfig(params=DEFAULT, n_events=1500, seed=8)), edges)
    b = bin_events(generate(SimConfig(params=DEFAULT, n_events=700, seed=9)), edges)
    merged = a + b
    assert np.array_equal(merged.counts_same, a.counts_same + b.counts_same)
    assert merged.n_total == 2200
    with pytest.raises(ValueError):
        a + bin_events(
            generate(SimConfig(params=DEFAULT, n_events=10, seed=1)),
            np.linspace(0.0, 4.0, 11),
        )


def test_binned_rates_validation():
    edges = np.array([0.0, 1.0, 2.0])
    ok = np.zeros(2)
    with pytest.raises(ValueError):
        BinnedRates(edges=np.array([1.0, 0.5]), counts_same=ok[:1], counts_opposite=ok[:1], n_total=0)
    with pytest.raises(ValueError):
        BinnedRates(edges=edges, counts_same=np.zeros(3), counts_opposite=ok, n_total=0)
    with pytest.raises(ValueError):
        BinnedRates(edges=edges, counts_same=-np.ones(2), counts_opposite=ok, n_total=5)
    with pytest.raises(ValueError):
        BinnedRates(edges=edges, counts_same=np.array([3.0, 3.0]), counts_opposite=ok, n_total=5)
    with pytest.raises(ValueError, match="finite"):
        BinnedRates(edges=np.array([0.0, np.nan, 2.0]), counts_same=ok, counts_opposite=ok,
                    n_total=0)
    # bin_events checks its edges, by the constructor's rule, before it bins
    batch = _mk_batch([0.5, 1.5, 3.0], [0.0, 0.0, 0.0], [1, 2, 1], [1, 1, 1])
    for bad, problem in (([2.0, 1.0, 0.0], "ascending"), ([1.0], "two values"),
                         ([], "two values"), ([-1.0, 1.0, 2.0], "nonnegative"),
                         ([[0.0, 1.0], [2.0, 3.0]], "two values"),
                         ([0.0, np.nan, 5.0], "finite"), ([np.nan, 1.0], "finite"),
                         ([0.0, np.inf], "finite")):
        with pytest.raises(ValueError, match=f"^edges must .*{problem}"):
            bin_events(batch, bad)


# ---------------------------------------------------------------------------
# expected counts

def test_expected_counts_match_quadrature():
    edges = np.linspace(0.0, 5.0, 51)
    n = 10**6
    for i in (1, 2):
        exact = expected_counts(i, edges, n, DEFAULT)
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            want = n * delta_t_bin_probability(i, float(lo), float(hi), DEFAULT.delta_m)
            assert exact[j] == pytest.approx(want, abs=1e-8 * n * 1e-6 + 1e-6)


def test_expected_counts_total_is_the_band_mass():
    edges = np.linspace(0.0, 7.0, 29)
    n = 50_000
    total = expected_counts(1, edges, n, DEFAULT).sum() + expected_counts(2, edges, n, DEFAULT).sum()
    assert total == pytest.approx(n * (1.0 - math.exp(-7.0)), rel=1e-12)


def test_expected_counts_small_bin_scaling():
    # same-flavour mass opens as dm^2 eps^3/12 (the anticorrelation hole),
    # opposite as eps; eps is kept large enough that the antiderivative
    # difference in the closed form is not cancellation-limited
    eps = 1e-2
    edges = np.array([0.0, eps])
    n = 10**6
    same = expected_counts(1, edges, n, DEFAULT)[0]
    opp = expected_counts(2, edges, n, DEFAULT)[0]
    lead = n * DEFAULT.delta_m**2 * eps**3 / 12.0
    assert same == pytest.approx(lead * (1.0 - 0.75 * eps), rel=2e-4)
    assert opp == pytest.approx(n * eps * (1.0 - 0.5 * eps), rel=1e-4)


# ---------------------------------------------------------------------------
# goodness of fit

def _exact_binned(n=10**6, bins=50, dt_max=5.0, params=DEFAULT):
    edges = np.linspace(0.0, dt_max, bins + 1)
    return BinnedRates(
        edges=edges,
        counts_same=expected_counts(1, edges, n, params),
        counts_opposite=expected_counts(2, edges, n, params),
        n_total=n,
    )


def test_exact_counts_fit_perfectly():
    fit = goodness_of_fit(_exact_binned(), DEFAULT)
    assert fit.chi2_same == 0.0
    assert fit.chi2_opposite == 0.0
    assert fit.p_value_same == 1.0 and fit.p_value_opposite == 1.0
    assert fit.fitted_delta_m == pytest.approx(DEFAULT.delta_m, abs=1e-9)
    assert fit.fitted_delta_m_error > 0.0
    assert fit.dof == fit.n_groups - 2


def test_chi2_scales_linearly_with_counts():
    # a lag window clear of the starved first bin and of the opposite-class
    # zero near dm*dt = pi, so no bins merge and the grouping is identical
    # for both sample sizes — then Pearson chi2 must scale exactly
    base = bin_events(
        generate(SimConfig(params=DEFAULT, n_events=200_000, seed=55)),
        np.linspace(0.5, 3.5, 31),
    )
    doubled = BinnedRates(
        edges=base.edges,
        counts_same=2.0 * base.counts_same,
        counts_opposite=2.0 * base.counts_opposite,
        n_total=2 * base.n_total,
    )
    fit1 = goodness_of_fit(base, DEFAULT)
    fit2 = goodness_of_fit(doubled, DEFAULT)
    assert fit1.n_groups == 30  # precondition: nothing merged
    assert fit2.chi2_same == pytest.approx(2.0 * fit1.chi2_same, rel=1e-12)
    assert fit2.chi2_opposite == pytest.approx(2.0 * fit1.chi2_opposite, rel=1e-12)
    assert fit2.dof == fit1.dof


def test_fit_recovers_delta_m_from_samples(small_batch):
    binned = bin_events(small_batch, np.linspace(0.0, 5.0, 51))
    fit = goodness_of_fit(binned, DEFAULT)
    assert abs(fit.fitted_delta_m - DEFAULT.delta_m) / DEFAULT.delta_m < 0.05
    assert 0.0 < fit.p_value_same < 1.0
    # 20k events starve the early same-flavour bins into merged groups
    assert 20 <= fit.n_groups < 50
    assert fit.dof == fit.n_groups - 2


def test_fit_refuses_starved_histograms():
    with pytest.raises(FitRefusedError):
        goodness_of_fit(_exact_binned(n=20), DEFAULT)


def test_fit_refuses_bins_wider_than_half_a_period():
    # at x = 1000 a 0.1-lifetime bin spans 16 oscillation periods: the binned
    # asymmetry aliases, so even exact counts must not be fitted
    fast = ModelParams(tau=1.0, delta_m=1000.0)
    with pytest.raises(FitRefusedError, match=r"up to 0\.1 wide .* pi/delta_m = 0\.003142;"):
        goodness_of_fit(_exact_binned(bins=50, dt_max=5.0, params=fast), fast)
    fit = goodness_of_fit(_exact_binned(bins=50, dt_max=0.02, params=fast), fast)
    assert fit.fitted_delta_m == pytest.approx(1000.0, rel=1e-9)


def test_fit_refuses_a_missing_flavour_class():
    # an empty class leaves its chi-square without a normalization: the fit
    # must refuse rather than report a NaN
    exact = _exact_binned()
    for field, label in (("counts_same", "same"), ("counts_opposite", "opposite")):
        binned = dataclasses.replace(exact, **{field: np.zeros_like(exact.counts_same)})
        with pytest.raises(FitRefusedError, match=f"no {label}-flavour pairs"):
            goodness_of_fit(binned, DEFAULT)


@pytest.mark.parametrize("true_dm", [1.8, 0.3])
def test_fit_refuses_a_delta_m_outside_the_scan(true_dm):
    # exact counts of a delta_m outside [0.5, 1.5] times the reference have
    # their best fit at the scan edge; reporting that edge would be a lie
    binned = _exact_binned(params=ModelParams(1.0, true_dm))
    with pytest.raises(FitRefusedError, match=r"no interior minimum in the scanned "
                                              r"delta_m range \[0\.388, 1\.164\]"):
        goodness_of_fit(binned, DEFAULT)
    # just inside the range the same construction is fitted exactly
    inside = _exact_binned(params=ModelParams(1.0, 1.1))
    assert goodness_of_fit(inside, DEFAULT).fitted_delta_m == pytest.approx(1.1, abs=1e-9)


def _scipy_golden(func, xa, xb, xc):
    return float(minimize_scalar(func, bracket=(xa, xb, xc), method="golden").x)


@pytest.mark.parametrize("x, seed", [(0.776, 3), (0.776, 17), (0.5, 8), (2.0, 5), (5.0, 12)])
def test_golden_matches_scipy_on_fit_objectives(monkeypatch, x, seed):
    # the in-package golden section replaces scipy's; on the fit's own
    # objective and bracket both must return the same float
    params = ModelParams(1.0, x)
    brackets = []

    def recorded(func, xa, xb, xc):
        brackets.append((func, xa, xb, xc))
        return golden(func, xa, xb, xc)

    golden = analysis._golden
    monkeypatch.setattr(analysis, "_golden", recorded)
    batch = generate(SimConfig(params=params, n_events=20_000, seed=seed))
    fit = goodness_of_fit(bin_events(batch, np.linspace(0.0, 5.0, 51)), params)
    ((func, xa, xb, xc),) = brackets
    assert golden(func, xa, xb, xc) == _scipy_golden(func, xa, xb, xc) == fit.fitted_delta_m


@pytest.mark.parametrize("xmin, bracket", [
    (0.3, (-1.0, 0.2, 5.0)),      # long right arm: first probe splits it
    (0.3, (-7.0, 0.25, 0.4)),     # long left arm
    (-2.5, (-3.0, -2.4, 1e3)),
    (1e-3, (-1e-2, 2e-3, 3e-3)),
])
def test_golden_matches_scipy_on_quadratics(xmin, bracket):
    def func(x):
        return 3.0 * (x - xmin) ** 2 + 1.0

    found = analysis._golden(func, *bracket)
    assert found == _scipy_golden(func, *bracket)
    assert found == pytest.approx(xmin, abs=1e-6)


def test_p_values_match_the_chi2_survival_function(small_batch):
    fits = [goodness_of_fit(_exact_binned(), DEFAULT)]
    for bins in (10, 25, 50, 80):
        fits.append(goodness_of_fit(bin_events(small_batch, np.linspace(0.0, 5.0, bins + 1)),
                                    DEFAULT))
    for fit in fits:
        assert fit.p_value_same == chi2_dist.sf(fit.chi2_same, fit.dof)
        assert fit.p_value_opposite == chi2_dist.sf(fit.chi2_opposite, fit.dof)
        assert type(fit.p_value_same) is float


def test_trailing_sparse_bins_are_merged():
    # a lag range far past 5 lifetimes starves the tail bins; the fit must
    # still run, on fewer merged groups
    binned = bin_events(
        generate(SimConfig(params=DEFAULT, n_events=100_000, seed=21)),
        np.linspace(0.0, 14.0, 71),
    )
    fit = goodness_of_fit(binned, DEFAULT)
    assert fit.n_groups < 70
    assert fit.chi2_same / fit.dof < 2.0


# ---------------------------------------------------------------------------
# two-sample comparison

def test_two_sample_chi2_null_cases():
    edges = np.linspace(0.0, 5.0, 26)
    a = bin_events(generate(SimConfig(params=DEFAULT, n_events=40_000, seed=2)), edges)
    stat, dof = two_sample_chi2(a, a)
    assert stat == 0.0
    doubled = BinnedRates(
        edges=a.edges,
        counts_same=2.0 * a.counts_same,
        counts_opposite=2.0 * a.counts_opposite,
        n_total=2 * a.n_total,
    )
    stat2, _ = two_sample_chi2(a, doubled)  # pure rescaling is no difference
    assert stat2 == pytest.approx(0.0, abs=1e-18)


def test_two_sample_chi2_on_independent_samples():
    edges = np.linspace(0.0, 5.0, 26)
    a = bin_events(generate(SimConfig(params=DEFAULT, n_events=100_000, seed=10)), edges)
    b = bin_events(generate(SimConfig(params=DEFAULT, n_events=100_000, seed=11)), edges)
    stat, dof = two_sample_chi2(a, b)
    assert 0.3 < stat / dof < 2.0


def test_two_sample_chi2_detects_different_oscillation():
    edges = np.linspace(0.0, 5.0, 26)
    fast = ModelParams(tau=1.0, delta_m=2.0)
    a = bin_events(generate(SimConfig(params=DEFAULT, n_events=100_000, seed=10)), edges)
    c = bin_events(generate(SimConfig(params=fast, n_events=100_000, seed=12)), edges)
    stat, dof = two_sample_chi2(a, c)
    assert stat / dof > 10.0


def test_two_sample_chi2_requires_matching_edges():
    a = bin_events(
        generate(SimConfig(params=DEFAULT, n_events=1000, seed=1)),
        np.linspace(0.0, 5.0, 11),
    )
    b = bin_events(
        generate(SimConfig(params=DEFAULT, n_events=1000, seed=1)),
        np.linspace(0.0, 4.0, 11),
    )
    with pytest.raises(ValueError):
        two_sample_chi2(a, b)


# ---------------------------------------------------------------------------
# bin table

def test_bin_table_matches_sources(big_batch):
    edges = np.linspace(0.0, 5.0, 51)
    binned = bin_events(big_batch, edges)
    rows = bin_table(binned, DEFAULT)
    assert len(rows) == 50
    exp_same = expected_counts(1, edges, binned.n_total, DEFAULT)
    for j, row in enumerate(rows):
        assert row["dt_lo"] == edges[j] and row["dt_hi"] == edges[j + 1]
        assert row["n_same"] == binned.counts_same[j]
        assert row["exp_same"] == pytest.approx(exp_same[j], rel=1e-12)
        tot = row["n_same"] + row["n_opp"]
        if tot:
            assert row["asym"] == pytest.approx(
                (row["n_opp"] - row["n_same"]) / tot, rel=1e-12
            )


def test_bin_table_empty_bins_report_nan():
    edges = np.array([0.0, 1.0, 2.0])
    batch = _mk_batch(t1=[0.5], t2=[0.0], f1=[1], f2=[2])
    rows = bin_table(bin_events(batch, edges), DEFAULT)
    assert math.isnan(rows[1]["asym"]) and math.isnan(rows[1]["asym_err"])
    assert rows[0]["asym"] == 1.0
