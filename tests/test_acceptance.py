"""Acceptance gate: the eight headline requirements, one printed verdict each.

Run with plain `pytest` — each criterion reports a PASS/FAIL line directly to
the terminal (bypassing capture) so the gate is auditable at a glance.
"""

import math
import time
from itertools import product

import numpy as np

import conftest
from bmixlhv import cli
from bmixlhv.analysis import bin_events, goodness_of_fit
from bmixlhv.model import ModelParams
from bmixlhv.montecarlo import SimConfig, generate
from bmixlhv.quantum import conditional_rate, joint_density, pair_class
from bmixlhv.verification import (
    check_i_kl,
    check_normalizations,
    reconstruct_joint,
)
from oracles import two_sample_chi2

X_VALUES = (0.5, 0.776, 2.0)
FLAVOUR_PAIRS = tuple(product((1, 2), (1, 2)))


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_joint_density_equivalence(capsys):
    """Phase-integrated pair density == closed-form joint density to 1e-8 on
    a 21x21 grid over [0, 5 lifetimes]^2, for every flavour pair and three
    mixing strengths, in under 30 s."""
    start = time.perf_counter()
    worst = 0.0
    grid = np.linspace(0.0, 5.0, 21)
    for x in X_VALUES:
        params = ModelParams(1.0, x)
        for k, l in FLAVOUR_PAIRS:
            for t1 in grid:
                for t2 in grid:
                    got = reconstruct_joint(k, l, float(t1), float(t2), params)
                    want = joint_density(k, l, float(t1), float(t2), params)
                    worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(capsys, 1, ok, f"max residual {worst:.3e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_2_normalization_identities(capsys):
    """Phase-density, first-side and second-side normalizations hold to 1e-9
    at 64 stratified phases, per mixing strength in under 10 s."""
    worst = 0.0
    slowest = 0.0
    all_passed = True
    for x in X_VALUES:
        start = time.perf_counter()
        report = check_normalizations(ModelParams(1.0, x))
        slowest = max(slowest, time.perf_counter() - start)
        worst = max(worst, report.max_residual)
        all_passed = all_passed and report.all_passed
    ok = all_passed and worst <= 1e-9 and slowest < 10.0
    _report(capsys, 2, ok, f"max residual {worst:.3e} (tol 1e-9), slowest {slowest:.1f}s")


def test_criterion_3_window_overlap_integrals(capsys):
    """Quadrature of the clipped-cosine window overlap matches 1 -/+ cos s to
    1e-10 across 64 phase lags in [0, 4 pi] for every flavour pair."""
    worst = 0.0
    for s in np.linspace(0.0, 4.0 * math.pi, 64):
        for k, l in FLAVOUR_PAIRS:
            computed, closed = check_i_kl(k, l, float(s))
            worst = max(worst, abs(computed - closed))
    ok = worst <= 1e-10
    _report(capsys, 3, ok, f"max residual {worst:.3e} (tol 1e-10)")


def test_criterion_4_conditional_relation(capsys):
    """tau e^{2 min(t1,t2)/tau} r_kl equals the lag-only conditional rate to
    1e-12 on 10^4 random time pairs for every flavour pair."""
    rng = np.random.default_rng(20260814)
    t1 = rng.uniform(0.0, 5.0, size=10_000)
    t2 = rng.uniform(0.0, 5.0, size=10_000)
    params = ModelParams(1.0, 0.776)
    worst = 0.0
    for k, l in FLAVOUR_PAIRS:
        lhs = np.exp(2.0 * np.minimum(t1, t2)) * joint_density(k, l, t1, t2, params)
        rhs = conditional_rate(pair_class(k, l), np.abs(t1 - t2), params)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    _report(capsys, 4, ok, f"max |difference| {worst:.3e} (tol 1e-12)")


def test_criterion_5_simulation_statistics(capsys):
    """10^6 single-threaded events in under 60 s; 50-bin lag fit gives
    chi2/dof in [0.5, 1.6] for both classes, the oscillation frequency back
    within 1%, and near-total anticorrelation in the first bin."""
    params = ModelParams(1.0, 0.776)
    config = SimConfig(params=params, n_events=1_000_000, seed=conftest.BIG_SEED)
    start = time.perf_counter()
    batch = generate(config, workers=1)
    elapsed = time.perf_counter() - start

    binned = bin_events(batch, np.linspace(0.0, 5.0, 51))
    fit = goodness_of_fit(binned, params)
    ratio_same = fit.chi2_same / fit.dof
    ratio_opp = fit.chi2_opposite / fit.dof
    dev = abs(fit.fitted_delta_m - params.delta_m) / params.delta_m
    first_asym = (binned.counts_opposite[0] - binned.counts_same[0]) / (
        binned.counts_opposite[0] + binned.counts_same[0]
    )
    ok = (
        elapsed < 60.0
        and 0.5 <= ratio_same <= 1.6
        and 0.5 <= ratio_opp <= 1.6
        and dev < 0.01
        and first_asym > 0.95
    )
    _report(
        capsys,
        5,
        ok,
        f"{elapsed:.1f}s, chi2/dof {ratio_same:.2f}/{ratio_opp:.2f}, "
        f"delta_m off by {100 * dev:.3f}%, first-bin asymmetry {first_asym:.4f}",
    )


def test_criterion_6_equal_time_anticorrelation(capsys):
    """Same-flavour fraction inside |t1-t2| < 0.02 lifetimes stays within
    4 binomial standard errors of the 2-D quadrature prediction."""
    from oracles import band_probabilities

    big_batch = generate(
        SimConfig(
            params=ModelParams(1.0, 0.776),
            n_events=conftest.BIG_N,
            seed=conftest.BIG_SEED,
        )
    )
    p_same_band, p_band = band_probabilities(0.776, 0.02)
    p_conditional = p_same_band / p_band

    lag = np.abs(big_batch.t1 - big_batch.t2)
    band = lag < 0.02
    n_band = int(band.sum())
    n_same = int((band & (big_batch.flavour1 == big_batch.flavour2)).sum())
    fraction = n_same / n_band
    limit = p_conditional + 4.0 * math.sqrt(
        p_conditional * (1.0 - p_conditional) / n_band
    )
    ok = fraction <= limit
    _report(
        capsys,
        6,
        ok,
        f"{n_same}/{n_band} same-flavour in band ({fraction:.2e}), "
        f"predicted {p_conditional:.2e}, limit {limit:.2e}",
    )


def test_criterion_7_symmetrized_equivalence(capsys, big_batch, sym_batch):
    """An independently seeded side-symmetrized run is statistically
    indistinguishable from the standard assignment: two-sample chi2/dof in
    [0.5, 1.6] over both flavour classes."""
    assert conftest.BIG_SEED != conftest.SYM_SEED  # independence precondition
    edges = np.linspace(0.0, 5.0, 51)
    stat, dof = two_sample_chi2(bin_events(big_batch, edges), bin_events(sym_batch, edges))
    ratio = stat / dof
    ok = 0.5 <= ratio <= 1.6
    _report(capsys, 7, ok, f"two-sample chi2/dof {ratio:.3f} with dof {dof}")


def test_criterion_8_byte_identical_reproducibility(capsys, tmp_path):
    """Reruns and different worker counts produce identical batches and
    byte-identical event files, through the API and the CLI alike."""
    params = ModelParams(1.0, 0.776)
    config = SimConfig(params=params, n_events=200_000, seed=8112026)
    repeat_equal = generate(config, workers=1) == generate(config, workers=1)
    worker_equal = generate(config, workers=3) == generate(config, workers=1)

    args = ["simulate", "--x", "0.776", "--events", "50000", "--seed", "8112026"]
    assert cli.main(args + ["--threads", "1", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--threads", "3", "--out", str(tmp_path / "b")]) == 0
    assert cli.main(args + ["--threads", "1", "--out", str(tmp_path / "c")]) == 0
    a = (tmp_path / "a" / "events.csv").read_bytes()
    b = (tmp_path / "b" / "events.csv").read_bytes()
    c = (tmp_path / "c" / "events.csv").read_bytes()
    files_equal = a == b == c
    ok = repeat_equal and worker_equal and files_equal
    _report(
        capsys,
        8,
        ok,
        f"rerun equal: {repeat_equal}, workers 3 vs 1 equal: {worker_equal}, "
        f"file bytes equal across thread counts: {files_equal}",
    )
