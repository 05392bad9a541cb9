"""The paper's point on the model's own sample: a CHSH combination of the
binned asymmetry exceeds the local bound 2, and the sample shows which CHSH
premise fails, measurement independence.

With A(dt) = cos(x dt), the combination at equally spaced lag "settings" is
S = 3 A(dt0) - A(3 dt0), largest at x dt0 = pi/4, where it is 2 sqrt(2).  A
local model reaches it because the decay times are not freely chosen
settings: the hidden phase is independent of the first side's decay time
but not of the second's (Bertlmann, Bramon, Garbarino and Hiesmayr, Phys.
Lett. A 332, 355, 2004).
"""

import math

import numpy as np
from scipy.stats import chi2_contingency

from bmixlhv.analysis import bin_events, bin_table
from oracles import delta_t_bin_probability

HALF_WIDTH = 0.05  # lifetimes: 0.1-lifetime bins centred on each setting


def test_chsh_combination_of_the_sample_exceeds_the_local_bound(big_batch, params):
    dt0 = math.pi / (4.0 * params.x)
    edges = [dt0 - HALF_WIDTH, dt0 + HALF_WIDTH, 3 * dt0 - HALF_WIDTH, 3 * dt0 + HALF_WIDTH]
    # the middle bin is the gap between the two settings
    table = bin_table(bin_events(big_batch, edges), params)
    asym, asym_err = table["asym"], table["asym_err"]
    s_value = 3.0 * asym[0] - asym[2]
    sigma = math.hypot(3.0 * asym_err[0], asym_err[2])

    def qm_asymmetry(lo, hi):
        p_same, p_opp = (delta_t_bin_probability(i, lo, hi, params.delta_m) for i in (1, 2))
        return (p_opp - p_same) / (p_opp + p_same)

    qm = 3.0 * qm_asymmetry(edges[0], edges[1]) - qm_asymmetry(edges[2], edges[3])
    # the exponential weight within a bin moves it off 2 sqrt(2) by 2e-4
    assert abs(qm - 2.0 * math.sqrt(2.0)) < 1e-3
    assert (s_value - 2.0) / sigma > 10.0, (s_value, sigma)
    assert abs(s_value - qm) < 4.0 * sigma, (s_value, qm, sigma)


def _contingency_p(lam, t):
    """p-value of independence of the phase and a decay time, on 16 phase
    bins by 8 time bins over [0, 4 lifetimes)."""
    kept = t < 4.0
    table, _, _ = np.histogram2d(lam[kept], t[kept],
                                 bins=(np.linspace(0.0, 2.0 * math.pi, 17), np.linspace(0.0, 4.0, 9)))
    assert table.min() > 50  # every cell large enough for the chi-square law
    stat, p, dof, _ = chi2_contingency(table)
    assert dof == 105
    return p


def test_hidden_phase_is_independent_of_one_side_only(big_batch):
    # the first side's time is drawn apart from the phase; the second side's
    # law depends on it through |cos(lambda - delta_m t2)|
    assert _contingency_p(big_batch.lam, big_batch.t1) > 1e-4
    assert _contingency_p(big_batch.lam, big_batch.t2) < 1e-12
