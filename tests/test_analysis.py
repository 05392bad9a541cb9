"""Histogramming, expected counts, goodness of fit, and two-sample tests."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
from oracles import (
    bin_events_one_shot,
    delta_t_bin_probability,
    sample_furry,
    two_sample_chi2,
)

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
        rng_stats=RngStats(n, n, n),
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


CHUNK = analysis.BIN_CHUNK_EVENTS
UNIFORM_EDGES = np.linspace(0.0, 5.0, 51)
# a positive first edge, then bins of unequal width
RAGGED_EDGES = np.array([0.3, 0.35, 0.5, 1.0, 1.01, 2.5, 4.0])


def _assert_same_rates(got, want):
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.counts_same, want.counts_same)
    assert np.array_equal(got.counts_opposite, want.counts_opposite)
    assert got.n_total == want.n_total


def _lag_batch(n, edges, seed):
    """n random events, a third of them with a chosen lag: on every edge, an
    ulp either side of it, zero, below the first edge and beyond the last.
    |t1 - t2| of a (lag, 0) or (0, lag) pair is the lag exactly."""
    rng = np.random.default_rng(seed)
    t1, t2 = rng.exponential(size=n), rng.exponential(size=n)
    chosen = np.concatenate([edges, np.nextafter(edges, -np.inf)[edges > 0.0],
                             np.nextafter(edges, np.inf), [0.0, 0.5 * edges[0], 4.0 * edges[-1]]])
    where = rng.choice(n, size=-(-n // 3), replace=False)
    lags = np.resize(chosen, where.size)
    first = rng.random(where.size) < 0.5
    t1[where] = np.where(first, lags, 0.0)
    t2[where] = np.where(first, 0.0, lags)
    return _mk_batch(t1, t2, rng.integers(1, 3, size=n), rng.integers(1, 3, size=n))


@pytest.mark.parametrize("edges", [UNIFORM_EDGES, RAGGED_EDGES], ids=["uniform", "ragged"])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_chunked_binning_equals_one_shot_binning(n, edges):
    batch = _lag_batch(n, edges, seed=n)
    _assert_same_rates(bin_events(batch, edges), bin_events_one_shot(batch, edges))


def test_chunk_size_changes_no_count(monkeypatch):
    batch = _lag_batch(3001, RAGGED_EDGES, seed=5)
    want = bin_events_one_shot(batch, RAGGED_EDGES)
    for chunk in (1, 7, 1000, 3000, 3001, 10**9):
        monkeypatch.setattr(analysis, "BIN_CHUNK_EVENTS", chunk)
        _assert_same_rates(bin_events(batch, RAGGED_EDGES), want)


@pytest.mark.parametrize("fixture", ["big_batch", "sym_batch"])
def test_chunked_binning_of_the_large_batches(request, fixture):
    batch = request.getfixturevalue(fixture)
    assert len(batch) > 8 * CHUNK  # 16 chunks at 65 536 events
    for edges in (UNIFORM_EDGES, RAGGED_EDGES):
        _assert_same_rates(bin_events(batch, edges), bin_events_one_shot(batch, edges))


def _head(batch, n):
    columns = ("index", "lam", "t1", "flavour1", "t2", "flavour2", "swapped")
    return dataclasses.replace(batch, **{c: getattr(batch, c)[:n] for c in columns})


def test_bin_events_scratch_memory_does_not_grow_with_the_batch(big_batch):
    """numpy reports its buffers to tracemalloc: binning 10^6 events peaks
    under 4 MiB, and no higher than binning 2*10^5 does."""
    peaks = {}
    for n in (200_000, 1_000_000):
        part = _head(big_batch, n)
        tracemalloc.start()
        try:
            bin_events(part, UNIFORM_EDGES)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] < 4 << 20
    assert peaks[1_000_000] <= peaks[200_000] + (16 << 10), peaks


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
    # the package sums its own closed form; scipy's differs in the last bits
    for fit in fits:
        assert fit.p_value_same == pytest.approx(chi2_dist.sf(fit.chi2_same, fit.dof), rel=2e-12)
        assert fit.p_value_opposite == pytest.approx(chi2_dist.sf(fit.chi2_opposite, fit.dof),
                                                     rel=2e-12)
        assert type(fit.p_value_same) is float


def test_fit_rejects_spontaneous_disentanglement():
    # negative control: 1e5 pairs that disentangle at production (Furry)
    # fail both classes of the fit at the measured x
    t1, t2, f1, f2 = sample_furry(np.random.default_rng(0), 100_000, DEFAULT.delta_m)
    # the sampler's own law: P(same) = (1 - E[cos x t]^2)/2, E[cos x t] = 1/(1 + x^2)
    same = 0.5 * (1.0 - (1.0 + DEFAULT.x ** 2) ** -2)
    assert np.mean(f1 == f2) == pytest.approx(same, abs=5 * math.sqrt(same * (1 - same) / 1e5))
    binned = bin_events(_mk_batch(t1, t2, f1, f2), np.linspace(0.0, 5.0, 51))
    fit = goodness_of_fit(binned, DEFAULT)
    assert fit.p_value_same < 1e-6 and fit.p_value_opposite < 1e-6


def _exact_chi2_sf(dof, chi2):
    with mpmath.workdps(40):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(chi2) / 2, mpmath.inf,
                               regularized=True)


@given(st.integers(1, 2000).flatmap(
    lambda dof: st.tuples(st.just(dof), st.floats(0.0, 10.0 * dof + 100.0))))
@example((1, 1370.0))  # p near 1e-300 from erfc alone
@example((2000, 3300.0))  # p near 1e-300 from a thousand terms
@example((2000, 2000.0))
@example((45, 1e-9))
@example((12, 40.0))  # the top term, the first of Stirling's form, dominates
@example((32, 120.0))  # the top term, the last before Stirling's form, dominates
def test_chi2_sf_matches_the_regularized_incomplete_gamma(case):
    dof, chi2 = case
    got = analysis._chi2_sf(dof, chi2)
    exact = _exact_chi2_sf(dof, chi2)
    assert 0.0 <= got <= 1.0
    if exact >= 1e-300:
        assert abs(got - exact) <= 2e-12 * exact
    else:
        assert got <= 1e-300 * (1.0 + 2e-12)


@pytest.mark.parametrize("dof", [1, 2, 3, 44, 45, 2000])
def test_chi2_sf_edges(dof):
    assert analysis._chi2_sf(dof, 0.0) == 1.0
    assert analysis._chi2_sf(dof, math.inf) == 0.0
    for chi2 in (0.0, math.inf, 0.5 * dof, 3.0 * dof):
        assert type(analysis._chi2_sf(dof, chi2)) is float


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
    table = bin_table(binned, DEFAULT)
    assert tuple(table) == ("dt_lo", "dt_hi", "n_same", "n_opp", "exp_same", "exp_opp",
                            "asym", "asym_err")
    assert all(column.shape == (50,) for column in table.values())
    assert np.array_equal(table["dt_lo"], edges[:-1])
    assert np.array_equal(table["dt_hi"], edges[1:])
    assert np.array_equal(table["n_same"], binned.counts_same)
    exp_same = expected_counts(1, edges, binned.n_total, DEFAULT)
    np.testing.assert_allclose(table["exp_same"], exp_same, rtol=1e-12)
    tot = table["n_same"] + table["n_opp"]
    filled = tot > 0
    np.testing.assert_allclose(table["asym"][filled],
                               ((table["n_opp"] - table["n_same"]) / tot)[filled], rtol=1e-12)


def test_bin_table_empty_bins_report_nan():
    edges = np.array([0.0, 1.0, 2.0])
    batch = _mk_batch(t1=[0.5], t2=[0.0], f1=[1], f2=[2])
    table = bin_table(bin_events(batch, edges), DEFAULT)
    assert math.isnan(table["asym"][1]) and math.isnan(table["asym_err"][1])
    assert table["asym"][0] == 1.0
