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
# most lag bins a command takes.  On a 2-vCPU host, analyze of a
# 10^6-event events.bin peaked at 105 MiB in about 2 s at this many bins,
# against 76 MiB in about 0.5 s at 50: its per-bin CSV text grows with the bin
# count, and 10^9 bins would need 7.5 GiB for the edges alone
MAX_BINS = 100_000
BIN_CHUNK_EVENTS = 65_536  # events bin_events places per pass; no count depends on it

# the delta_m fit's zooms and the points of each, whose step is a tenth of
# the last's.  More zooms gain nothing: rounding (about 1e-12 at 10^5 events)
# flattens the objective over some 5e-9 about its minimum
FIT_ZOOM_POINTS = 21
FIT_ZOOMS = 4


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
    Raises ValueError unless :func:`_checked_edges` accepts the edges.
    Integer counts summed over chunks of :data:`BIN_CHUNK_EVENTS` events
    keep the scratch memory flat in n; the chunk size changes no count."""
    edges = _checked_edges(edges)
    nbins = edges.size - 1
    # per class, nbins bins and one slot for the lags outside the edges
    counts = np.zeros(2 * (nbins + 1), dtype=np.int64)
    for start in range(0, len(batch), BIN_CHUNK_EVENTS):
        part = slice(start, start + BIN_CHUNK_EVENTS)
        dt = np.abs(batch.t1[part] - batch.t2[part])
        # -1 below the first edge; nbins at or beyond the last, or for NaN
        pos = np.searchsorted(edges, dt, side="right") - 1
        pos[pos < 0] = nbins
        pos += (nbins + 1) * (batch.flavour1[part] != batch.flavour2[part])
        counts += np.bincount(pos, minlength=counts.size)
    same, opposite = counts.reshape(2, nbins + 1)[:, :nbins].astype(float)
    return BinnedRates(edges, same, opposite, n_total=len(batch))


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
    folded into the last complete group.  Returns each group's first bin,
    as an int array.
    """
    starts = [0]
    acc_same = acc_opp = 0.0
    for j, (same, opp) in enumerate(zip(exp_same.tolist(), exp_opp.tolist())):
        acc_same += same
        acc_opp += opp
        if acc_same >= MIN_EXPECTED_PER_BIN and acc_opp >= MIN_EXPECTED_PER_BIN:
            starts.append(j + 1)
            acc_same = acc_opp = 0.0
    # the start after the last complete group opens no group of its own
    return np.array(starts[:-1] if len(starts) > 1 else starts)


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


def _chi2_sf(dof: int, chi2: float) -> float:
    """P(X > chi2) for X chi-square with an integer ``dof`` >= 1: the closed
    form of Q(dof/2, y), y = chi2/2, which is e^-y sum_{j < dof/2} y^j / j!
    for even dof and erfc(sqrt(y)) + e^-y sum_{j < (dof-1)/2} y^(j+1/2) /
    Gamma(j+3/2) for odd.

    Each term y^k e^-y / Gamma(k+1) is the exp of its logarithm, so e^-y
    cannot underflow ahead of a large power of y.  From k = 15 on, that
    logarithm is Stirling's form, k log(y/k) + k - y - log(2 pi k)/2 minus
    Stirling's series in 1/k, whose rounding grows with |y - k|, not with y.
    Up to dof = 2000 the result is within 2e-13 relative of the exact value
    wherever that is at least 1e-300.
    """
    y = 0.5 * chi2
    if y <= 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    half = 0.5 * (dof % 2)
    terms = [math.erfc(math.sqrt(y))] if half else []
    for j in range(dof // 2):
        k = j + half
        if k < 15.0:
            log_term = k * math.log(y) - y - math.lgamma(k + 1.0)
        else:
            kk = k * k
            log_term = (k * math.log(y / k) + (k - y) - 0.5 * math.log(2.0 * math.pi * k)
                        - (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * kk)) / kk) / kk) / k)
        terms.append(math.exp(log_term))
    # rounded terms can sum to an ulp above 1; a NaN chi2 stays NaN
    return min(math.fsum(terms), 1.0)


def goodness_of_fit(binned: BinnedRates, params: ModelParams) -> FitResult:
    """Pearson chi-square per flavour class plus a one-parameter delta_m fit.

    Bins are merged rightward until each group carries at least
    :data:`MIN_EXPECTED_PER_BIN` expected events in both classes; the same
    groups serve both chi-square statistics and the asymmetry fit.  Each
    chi-square is taken at the reference delta_m, its expectations
    normalized to its class's observed in-range total (shape comparison), so
    dof = groups - 1: one for that normalization.  The fit maximizes the
    binomial likelihood of each group's opposite/same split under its exact
    group-averaged model asymmetry.  It scans delta_m at 201 points over
    [0.5, 1.5] times the reference, in row blocks, then :data:`FIT_ZOOMS`
    times at :data:`FIT_ZOOM_POINTS` from the best point's left neighbour to
    its right one, each zoom one array pass, and takes the vertex of the
    parabola through the last best point and its neighbours; the error is
    1/sqrt of the curvature of -log L there.  The p-values are the
    chi-square survival function at dof, summed from its closed form by
    :func:`_chi2_sf`.

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
    starts = _merge_groups(exp_same, exp_opp)
    n_groups = starts.size
    if n_groups < 3:
        raise FitRefusedError(
            f"only {n_groups} usable bin groups after merging; need at least 3"
        )

    stops = np.append(starts[1:], edges.size - 1)
    group_lo, group_hi = edges[starts], edges[stops]
    # a sum per slice: np.add.reduceat adds the expectations in another order
    obs_same, obs_opp, mod_same, mod_opp = (
        np.array([values[a:b].sum() for a, b in zip(starts.tolist(), stops.tolist())])
        for values in (binned.counts_same, binned.counts_opposite, exp_same, exp_opp))

    for label, obs in (("same-flavour", obs_same), ("opposite-flavour", obs_opp)):
        if obs.sum() == 0.0:
            raise FitRefusedError(f"no {label} pairs in the lag range; the fit needs both classes")

    def pearson(obs, mod):
        scaled = mod * (obs.sum() / mod.sum())
        return float(np.sum((obs - scaled) ** 2 / scaled))

    chi2_same = pearson(obs_same, mod_same)
    chi2_opp = pearson(obs_opp, mod_opp)
    dof = n_groups - 1

    if np.any(obs_same + obs_opp == 0.0):
        raise FitRefusedError("a merged group contains no events")
    asym, _ = _asymmetry(obs_same, obs_opp)

    tau = params.tau
    exp_seg = _exp_segment(group_lo, group_hi, tau)

    def objective(dm):
        # per row of the column dm, -log L less its value at a perfect fit, half the
        # binomial deviance: sum n_opp log((1+a)/(1+m)) + n_same log((1-a)/(1-m)),
        # 0 log 0 = 0, as log1p((a-m)/(1+-m)), whose rounding shrinks with a - m
        model = _exp_cos_segment(group_lo, group_hi, tau, dm) / exp_seg
        with np.errstate(divide="ignore", invalid="ignore"):
            opp = obs_opp * np.log1p((asym - model) / (1.0 + model))
            same = obs_same * np.log1p((model - asym) / (1.0 - model))
        terms = np.where(obs_opp > 0.0, opp, 0.0) + np.where(obs_same > 0.0, same, 0.0)
        return np.sum(terms, axis=-1)

    scan = np.linspace(0.5 * params.delta_m, 1.5 * params.delta_m, 201)
    # in row blocks, so that no temporary holds every group at all 201 points
    values = np.concatenate([objective(rows[:, None]) for rows in np.array_split(scan, 10)])
    j = int(np.argmin(values))
    if not (0 < j < scan.size - 1 and values[j] < values[j - 1] and values[j] < values[j + 1]):
        raise FitRefusedError(
            f"no interior minimum in the scanned delta_m range [{scan[0]:.4g}, {scan[-1]:.4g}], "
            "0.5 to 1.5 times the reference; the sample's delta_m lies outside it"
        )
    step = float(scan[1] - scan[0])
    for _ in range(FIT_ZOOMS):  # re-scan from the best point's left neighbour to its right one
        scan = scan[j] + step * np.linspace(-1.0, 1.0, FIT_ZOOM_POINTS)
        values = objective(scan[:, None])
        j = int(np.argmin(values))
        step *= 2.0 / (FIT_ZOOM_POINTS - 1)
    fitted = float(scan[j])
    if 0 < j < scan.size - 1:  # the vertex of the parabola through it and its neighbours
        below, at, above = values[j - 1:j + 2].tolist()
        fitted -= 0.5 * step * (above - below) / (above - 2.0 * at + below)

    h = max(1e-4 * fitted, 1e-10)
    below, at, above = objective(fitted + h * np.array([[-1.0], [0.0], [1.0]]))
    curvature = (above - 2.0 * at + below) / h**2
    error = math.sqrt(1.0 / curvature) if curvature > 0.0 else math.inf

    return FitResult(
        chi2_same=chi2_same,
        chi2_opposite=chi2_opp,
        dof=dof,
        fitted_delta_m=fitted,
        fitted_delta_m_error=error,
        p_value_same=_chi2_sf(dof, chi2_same),
        p_value_opposite=_chi2_sf(dof, chi2_opp),
        n_groups=n_groups,
    )


def bin_table(binned: BinnedRates, params: ModelParams) -> dict[str, np.ndarray]:
    """Per-bin comparison columns, keyed by the ``analysis_bins.csv`` headers
    in file order: bin edges, counts, expectations, asymmetry with error.
    The edge and count columns are views of ``binned``'s arrays."""
    asym, variance = _asymmetry(binned.counts_same, binned.counts_opposite)
    return {
        "dt_lo": binned.edges[:-1],
        "dt_hi": binned.edges[1:],
        "n_same": binned.counts_same,
        "n_opp": binned.counts_opposite,
        "exp_same": expected_counts(1, binned.edges, binned.n_total, params),
        "exp_opp": expected_counts(2, binned.edges, binned.n_total, params),
        "asym": asym,
        "asym_err": np.sqrt(variance),
    }

