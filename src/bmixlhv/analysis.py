"""Binned-rate analysis of event batches against the closed-form predictions.

The decay-lag distribution splits by flavour class (same/opposite); its
density is exp(-dt/tau)(1 + (-1)^i cos(delta_m dt))/(2 tau), twice
:func:`bmixlhv.quantum.conditional_rate`: integrating out the earlier decay
time of the joint density contributes the factor tau/2 (validated against
2-D quadrature in the test suite).  Expected bin contents use the exact
antiderivatives rather than midpoint values, so a sample whose counts equal
the expectations exactly recovers delta_m exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .montecarlo import EventBatch

__all__ = [
    "BinnedRates",
    "FitRefusedError",
    "FitResult",
    "bin_events",
    "bin_table",
    "expected_counts",
    "goodness_of_fit",
]

MIN_EXPECTED_PER_BIN = 10.0

# the constants of scipy's golden-section minimizer, kept so that
# :func:`_golden` returns the same float for the same bracket
_GOLDEN_R = 0.61803399  # rounded golden-ratio conjugate, 2 / (1 + sqrt(5))
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1.4901161193847656e-08  # sqrt of the double epsilon
_GOLDEN_MAXITER = 5000


class FitRefusedError(ValueError):
    """The binned data cannot support a fit: too few populated groups, a
    missing flavour class, bins too wide, or no minimum inside the scanned
    delta_m range."""


def _checked_edges(edges) -> np.ndarray:
    """The lag-bin edges as floats; raises ValueError unless there are two or
    more, finite, nonnegative and strictly ascending."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must contain at least two values")
    if not np.isfinite(edges).all():
        raise ValueError("edges must be finite")
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be strictly ascending")
    if edges[0] < 0.0:
        raise ValueError("edges must be nonnegative")
    return edges


@dataclass(frozen=True)
class BinnedRates:
    """Histogram of the decay lag |t1 - t2|, split by flavour class.

    Counts are stored as float64 (always integral-valued when produced by
    :func:`bin_events`); events beyond the last edge enter ``n_total`` only.
    """

    edges: np.ndarray
    counts_same: np.ndarray
    counts_opposite: np.ndarray
    n_total: int

    def __post_init__(self) -> None:
        edges = _checked_edges(self.edges)
        same = np.asarray(self.counts_same, dtype=float)
        opp = np.asarray(self.counts_opposite, dtype=float)
        if same.shape != (edges.size - 1,) or opp.shape != (edges.size - 1,):
            raise ValueError("counts must have one entry per bin")
        if np.any(same < 0.0) or np.any(opp < 0.0):
            raise ValueError("counts must be nonnegative")
        if same.sum() + opp.sum() > self.n_total:
            raise ValueError("binned counts exceed the event total")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts_same", same)
        object.__setattr__(self, "counts_opposite", opp)

    def __add__(self, other: "BinnedRates") -> "BinnedRates":
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different edges")
        return BinnedRates(
            edges=self.edges,
            counts_same=self.counts_same + other.counts_same,
            counts_opposite=self.counts_opposite + other.counts_opposite,
            n_total=self.n_total + other.n_total,
        )


@dataclass(frozen=True)
class FitResult:
    chi2_same: float
    chi2_opposite: float
    dof: int
    fitted_delta_m: float
    fitted_delta_m_error: float
    p_value_same: float
    p_value_opposite: float
    n_groups: int


def bin_events(batch: EventBatch, edges) -> BinnedRates:
    """Histogram |t1 - t2| with half-open bins [lo, hi), split by class.
    Raises ValueError unless :func:`_checked_edges` accepts the edges."""
    edges = _checked_edges(edges)
    nbins = edges.size - 1
    dt = np.abs(batch.t1 - batch.t2)
    pos = np.searchsorted(edges, dt, side="right") - 1
    in_range = (pos >= 0) & (pos < nbins)
    same = batch.flavour1 == batch.flavour2
    counts_same = np.bincount(pos[in_range & same], minlength=nbins).astype(float)
    counts_opp = np.bincount(pos[in_range & ~same], minlength=nbins).astype(float)
    return BinnedRates(
        edges=edges,
        counts_same=counts_same,
        counts_opposite=counts_opp,
        n_total=len(batch),
    )


def _exp_segment(a, b, tau: float):
    # integral of exp(-t/tau) over [a, b]
    return tau * (np.exp(-a / tau) - np.exp(-b / tau))


def _exp_cos_segment(a, b, tau: float, dm: float):
    # integral of exp(-t/tau) cos(dm t) over [a, b]
    def antideriv(t):
        return (
            np.exp(-t / tau)
            * (dm * np.sin(dm * t) - np.cos(dm * t) / tau)
            / (1.0 / tau**2 + dm**2)
        )

    return antideriv(b) - antideriv(a)


def expected_counts(i: int, edges, n_total: int, params: ModelParams) -> np.ndarray:
    """Expected bin contents of class i under the closed-form prediction."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    tau, dm = params.tau, params.delta_m
    sign = -1.0 if i % 2 else 1.0
    probs = (
        _exp_segment(lo, hi, tau) + sign * _exp_cos_segment(lo, hi, tau, dm)
    ) / (2.0 * tau)
    return n_total * probs


def _merge_groups(exp_same, exp_opp):
    """Contiguous bin groups, each with both class expectations at least
    :data:`MIN_EXPECTED_PER_BIN`.

    Deficient bins are merged rightward; a deficient trailing remainder is
    folded into the last complete group.  Returns a list of (start, stop)
    index ranges.
    """
    groups: list[tuple[int, int]] = []
    start = 0
    nbins = exp_same.size
    acc_same = acc_opp = 0.0
    for j in range(nbins):
        acc_same += exp_same[j]
        acc_opp += exp_opp[j]
        if acc_same >= MIN_EXPECTED_PER_BIN and acc_opp >= MIN_EXPECTED_PER_BIN:
            groups.append((start, j + 1))
            start = j + 1
            acc_same = acc_opp = 0.0
    if start < nbins:
        if not groups:
            return [(0, nbins)]
        last_start, _ = groups[-1]
        groups[-1] = (last_start, nbins)
    return groups


def _asymmetry(n_same, n_opp):
    """(opposite - same) / total per bin and its binomial variance
    (1 - asym^2) / total, floored at 1/total where that vanishes.  An empty
    bin gives NaN for both."""
    total = n_same + n_opp
    with np.errstate(divide="ignore", invalid="ignore"):
        asym = (n_opp - n_same) / total
        variance = (1.0 - asym**2) / total
        # a NaN variance (empty bin) fails the test and stays NaN
        return asym, np.where(variance <= 0.0, 1.0 / total, variance)


def _golden(func, xa, xb, xc):
    """Golden-section minimum of ``func`` in the bracket xa < xb < xc, where
    f(xb) lies below both ends.

    A line-for-line port of scipy's scalar minimizer with ``method="golden"``
    at its default tolerance: same split, same update order, same final pick,
    so it returns the same float for the same bracket.
    """
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1 = xb
        x2 = xb + _GOLDEN_C * (xc - xb)
    else:
        x2 = xb
        x1 = xb - _GOLDEN_C * (xb - xa)
    f1 = func(x1)
    f2 = func(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0 = x1
            x1 = x2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f1 = f2
            f2 = func(x2)
        else:
            x3 = x2
            x2 = x1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f2 = f1
            f1 = func(x1)
    return x1 if f1 < f2 else x2


def goodness_of_fit(binned: BinnedRates, params: ModelParams) -> FitResult:
    """Pearson chi-square per flavour class plus a one-parameter delta_m fit.

    Bins are merged rightward until each group carries at least
    :data:`MIN_EXPECTED_PER_BIN` expected events in both classes; the same
    groups serve both chi-square statistics and the asymmetry fit, and the
    expectations are normalized to each class's observed in-range total
    (shape comparison).  dof = groups - 2: one for that normalization, one
    for the fitted delta_m.  The fit minimizes the weighted squared
    difference between per-group asymmetries and their exact group-averaged
    model values, scanning delta_m on [0.5, 1.5] times the reference and
    refining the best interior scan point by golden section.

    Refused when a bin is wider than half an oscillation period, pi/delta_m:
    the binned asymmetry then aliases and the fit converges on a wrong
    delta_m without a sign of it in the chi-square.  Also refused when
    either flavour class has no events in range, which leaves its
    chi-square without a normalization, and when the scan has no strict
    interior minimum: the best delta_m then lies at or beyond the edge of
    the scanned range, and the edge is not a measurement.
    """
    edges = binned.edges
    width = float(np.diff(edges).max())
    limit = math.pi / params.delta_m
    if width > limit:
        raise FitRefusedError(
            f"lag bins up to {width:.4g} wide exceed half an oscillation period, "
            f"pi/delta_m = {limit:.4g}; the asymmetry fit would alias"
        )
    exp_same = expected_counts(1, edges, binned.n_total, params)
    exp_opp = expected_counts(2, edges, binned.n_total, params)
    groups = _merge_groups(exp_same, exp_opp)
    if len(groups) < 3:
        raise FitRefusedError(
            f"only {len(groups)} usable bin groups after merging; need at least 3"
        )

    bounds = np.array(groups)
    group_lo = edges[bounds[:, 0]]
    group_hi = edges[bounds[:, 1]]
    obs_same = np.array([binned.counts_same[a:b].sum() for a, b in groups])
    obs_opp = np.array([binned.counts_opposite[a:b].sum() for a, b in groups])
    mod_same = np.array([exp_same[a:b].sum() for a, b in groups])
    mod_opp = np.array([exp_opp[a:b].sum() for a, b in groups])

    for label, obs in (("same-flavour", obs_same), ("opposite-flavour", obs_opp)):
        if obs.sum() == 0.0:
            raise FitRefusedError(f"no {label} pairs in the lag range; the fit needs both classes")

    def pearson(obs, mod):
        scaled = mod * (obs.sum() / mod.sum())
        return float(np.sum((obs - scaled) ** 2 / scaled))

    chi2_same = pearson(obs_same, mod_same)
    chi2_opp = pearson(obs_opp, mod_opp)
    dof = len(groups) - 2

    if np.any(obs_same + obs_opp == 0.0):
        raise FitRefusedError("a merged group contains no events")
    asym, variance = _asymmetry(obs_same, obs_opp)

    tau = params.tau
    exp_seg = _exp_segment(group_lo, group_hi, tau)

    def objective(dm: float) -> float:
        model = _exp_cos_segment(group_lo, group_hi, tau, dm) / exp_seg
        return float(np.sum((asym - model) ** 2 / variance))

    scan = np.linspace(0.5 * params.delta_m, 1.5 * params.delta_m, 201)
    values = np.array([objective(dm) for dm in scan])
    j = int(np.argmin(values))
    if not (0 < j < scan.size - 1 and values[j] < values[j - 1] and values[j] < values[j + 1]):
        raise FitRefusedError(
            f"no interior minimum in the scanned delta_m range [{scan[0]:.4g}, {scan[-1]:.4g}], "
            "0.5 to 1.5 times the reference; the sample's delta_m lies outside it"
        )
    fitted = float(_golden(objective, scan[j - 1], scan[j], scan[j + 1]))

    h = max(1e-4 * fitted, 1e-10)
    curvature = (objective(fitted + h) - 2.0 * objective(fitted) + objective(fitted - h)) / h**2
    error = math.sqrt(2.0 / curvature) if curvature > 0.0 else math.inf

    # scipy costs most of a command's start-up, and only the p-values need it
    from scipy.special import chdtrc

    return FitResult(
        chi2_same=chi2_same,
        chi2_opposite=chi2_opp,
        dof=dof,
        fitted_delta_m=fitted,
        fitted_delta_m_error=error,
        p_value_same=float(chdtrc(dof, chi2_same)),
        p_value_opposite=float(chdtrc(dof, chi2_opp)),
        n_groups=len(groups),
    )


def bin_table(binned: BinnedRates, params: ModelParams) -> list[dict]:
    """Per-bin comparison rows: counts, expectations, asymmetry with error."""
    exp_same = expected_counts(1, binned.edges, binned.n_total, params)
    exp_opp = expected_counts(2, binned.edges, binned.n_total, params)
    asym, variance = _asymmetry(binned.counts_same, binned.counts_opposite)
    return [
        {
            "dt_lo": float(binned.edges[j]),
            "dt_hi": float(binned.edges[j + 1]),
            "n_same": float(binned.counts_same[j]),
            "n_opp": float(binned.counts_opposite[j]),
            "exp_same": float(exp_same[j]),
            "exp_opp": float(exp_opp[j]),
            "asym": float(asym[j]),
            "asym_err": math.sqrt(variance[j]),
        }
        for j in range(binned.edges.size - 1)
    ]

