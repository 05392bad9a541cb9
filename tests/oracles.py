"""Independent slow-path oracles used to cross-check the package numerics.

The numeric oracles deliberately avoid the implementation's own code
paths: window membership is decided by scanning integer branches, the
second-side normalizer by summing exact antiderivatives between cosine sign
changes, the band probabilities by adaptive 2-D quadrature of the joint
density, and the verification integrals by adaptive quadrature with
breakpoints (:func:`adaptive_quad`).  :func:`two_sample_chi2` compares two
histograms for the symmetrization acceptance check, and
:func:`sample_furry` draws the disentangled pairs the fit must reject.
They work in unit-lifetime time units (tau = 1).

The scalar samplers at the end are the other kind of reference: one event
at a time, one stream block per draw, in the generator's draw order, so the
vectorized batch columns must match them to the last ulp.  Their stream,
:class:`EventStream`, draws from :func:`philox4x32_reference`, a Python-int
transcription of Salmon et al.'s Philox4x32-10 round function that shares
no code with :mod:`bmixlhv.streams`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from bmixlhv.analysis import BinnedRates
from bmixlhv.model import Flavour, ModelParams, flavour_window_codes, rho_table
from bmixlhv.montecarlo import RejectionOverflowError

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def window_flavour_scan(lam: float, t: float, delta_m: float) -> int:
    """Decide the first-side flavour by brute-force branch scanning.

    Returns 2 (anti-particle) when some integer n puts the phase strictly
    within pi/2 of an even multiple of pi, and 1 (particle) when it lands
    strictly within pi/2 of an odd multiple.  Exactly one branch must claim
    the phase; boundary phases (the caller keeps a safety margin) match
    neither and raise.
    """
    phase = lam - delta_m * t
    n_max = int(math.ceil(abs(phase) / TWO_PI)) + 2
    hits = []
    for n in range(-n_max, n_max + 1):
        if abs(phase - TWO_PI * n) < HALF_PI:
            hits.append(2)
        if abs(phase - (TWO_PI * n + math.pi)) < HALF_PI:
            hits.append(1)
    if len(hits) != 1:
        raise ValueError(f"window scan ambiguous for phase {phase!r}: {hits}")
    return hits[0]


def inverse_n_exact(lam: float, delta_m: float, t_max: float = 60.0) -> float:
    """integral over t of e^-t |cos(lam - delta_m t)| via exact antiderivatives.

    The time axis is split at every cosine sign change and the elementary
    antiderivative of e^-t cos(delta_m t - lam) is summed segment by segment
    with the sign of the local half-wave.  Truncation beyond t_max is below
    e^-t_max, far under the comparison tolerances used in the tests.
    """
    dm = delta_m
    denom = 1.0 + dm * dm

    def antider(t: float) -> float:
        return math.exp(-t) * (
            dm * math.sin(dm * t - lam) - math.cos(dm * t - lam)
        ) / denom

    # sign changes at dm t - lam = pi/2 + k pi; start the scan safely below 0
    zeros = []
    k = math.floor((-lam - HALF_PI) / math.pi) - 2
    while True:
        t_z = (lam + HALF_PI + k * math.pi) / dm
        if t_z > t_max:
            break
        if t_z > 0.0:
            zeros.append(t_z)
        k += 1

    edges = [0.0] + zeros + [t_max]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sign = 1.0 if math.cos(lam - dm * 0.5 * (a + b)) >= 0.0 else -1.0
        total += sign * (antider(b) - antider(a))
    return total


def delta_t_bin_probability(i: int, lo: float, hi: float, delta_m: float) -> float:
    """integral over one |t1-t2| bin of the class-i time-difference density.

    i = 1 is the same-flavour class, i = 2 the opposite-flavour class.
    """
    sgn = (-1.0) ** i
    val, err = integrate.quad(
        lambda v: 0.5 * math.exp(-v) * (1.0 + sgn * math.cos(delta_m * v)),
        lo,
        hi,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-11:
        raise RuntimeError(f"bin quadrature error {err!r} too large")
    return val


def band_probabilities(delta_m: float, width: float, t_max: float = 50.0):
    """(P(same flavour and |t1-t2| < width), P(|t1-t2| < width)) by 2-D quadrature.

    Integrates the standard quantum joint density over the near-diagonal
    band directly in the (t1, t2) plane.
    """

    def joint_same(t2: float, t1: float) -> float:
        # both same-flavour cells: 2 * (1/4) e^-(t1+t2) (1 - cos(dm dt))
        return 0.5 * math.exp(-(t1 + t2)) * (1.0 - math.cos(delta_m * (t1 - t2)))

    def joint_all(t2: float, t1: float) -> float:
        return math.exp(-(t1 + t2))

    def lo(t1: float) -> float:
        return max(0.0, t1 - width)

    def hi(t1: float) -> float:
        return min(t_max, t1 + width)

    p_same, err_s = integrate.dblquad(
        joint_same, 0.0, t_max, lo, hi, epsabs=1e-13, epsrel=1e-10
    )
    p_band, err_b = integrate.dblquad(
        joint_all, 0.0, t_max, lo, hi, epsabs=1e-12, epsrel=1e-10
    )
    if err_s > 1e-10 or err_b > 1e-9:
        raise RuntimeError("band quadrature did not converge")
    return p_same, p_band


def side2_bin_probability(lam: float, lo: float, hi: float, delta_m: float) -> float:
    """integral over [lo, hi) of the normalized second-side time density at
    fixed hidden phase: N(lam) e^-t |cos(lam - delta_m t)|."""
    norm = inverse_n_exact(lam, delta_m)
    # breakpoints at the in-range cosine zeros keep quad honest at the kinks
    points = []
    k = math.floor((-lam - HALF_PI) / math.pi) - 2
    while True:
        t_z = (lam + HALF_PI + k * math.pi) / delta_m
        if t_z > hi:
            break
        if lo < t_z < hi:
            points.append(t_z)
        k += 1
    val, err = integrate.quad(
        lambda t: math.exp(-t) * abs(math.cos(lam - delta_m * t)),
        lo,
        hi,
        points=points or None,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-11:
        raise RuntimeError(f"side-2 quadrature error {err!r} too large")
    return val / norm


def side2_particle_probability(lam: float, delta_m: float, t_max: float = 60.0) -> float:
    """P(second side decays as the particle state | lam): the positive
    half-waves of the thinned cosine, normalized by 1/N."""
    dm = delta_m
    denom = 1.0 + dm * dm

    def antider(t: float) -> float:
        return math.exp(-t) * (
            dm * math.sin(dm * t - lam) - math.cos(dm * t - lam)
        ) / denom

    zeros = []
    k = math.floor((-lam - HALF_PI) / math.pi) - 2
    while True:
        t_z = (lam + HALF_PI + k * math.pi) / dm
        if t_z > t_max:
            break
        if t_z > 0.0:
            zeros.append(t_z)
        k += 1
    edges = [0.0] + zeros + [t_max]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if math.cos(lam - dm * 0.5 * (a + b)) > 0.0:
            total += antider(b) - antider(a)
    return total / inverse_n_exact(lam, dm, t_max)


def adaptive_quad(integrand, a: float, b: float, points=(), tol: float = 1e-12) -> float:
    """scipy's adaptive quadrature of a scalar integrand with breakpoints at
    ``points``; a convergence warning or an error estimate above 100 * tol
    raises instead of passing silently.  The independent check of the
    package's fixed-order rule."""
    points = sorted(p for p in points if a < p < b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, a, b, points=points or None,
                                  limit=4 * len(points) + 100, epsabs=tol, epsrel=tol)
    if err > 100.0 * tol:
        raise RuntimeError(f"adaptive quadrature error {err!r} too large")
    return val


def two_sample_chi2(a, b) -> tuple[float, int]:
    """Two-sample comparison of two :class:`~bmixlhv.analysis.BinnedRates`
    over all (bin, class) cells.

    Uses the weighted form (K1*n_a - K2*n_b)^2/(n_a + n_b) with
    K1 = sqrt(N_b/N_a), K2 = sqrt(N_a/N_b), which keeps the statistic
    chi-square distributed when the two totals differ; dof = populated
    cells - 1.
    """
    if not np.array_equal(a.edges, b.edges):
        raise ValueError("histograms must share identical edges")
    cells_a = np.concatenate([a.counts_same, a.counts_opposite])
    cells_b = np.concatenate([b.counts_same, b.counts_opposite])
    total_a = cells_a.sum()
    total_b = cells_b.sum()
    if total_a == 0.0 or total_b == 0.0:
        raise ValueError("both histograms must contain events")
    k1 = math.sqrt(total_b / total_a)
    k2 = math.sqrt(total_a / total_b)
    mask = (cells_a + cells_b) > 0.0
    stat = float(
        np.sum((k1 * cells_a[mask] - k2 * cells_b[mask]) ** 2 / (cells_a + cells_b)[mask])
    )
    return stat, int(mask.sum()) - 1


def bin_events_one_shot(batch, edges) -> BinnedRates:
    """The lag histogram of the whole batch in one pass over full-length
    arrays: the reference for the chunked :func:`bmixlhv.analysis.bin_events`,
    whose counts must equal these exactly."""
    edges = np.asarray(edges, dtype=float)
    nbins = edges.size - 1
    dt = np.abs(batch.t1 - batch.t2)
    pos = np.searchsorted(edges, dt, side="right") - 1
    in_range = (pos >= 0) & (pos < nbins)
    same = batch.flavour1 == batch.flavour2
    return BinnedRates(
        edges=edges,
        counts_same=np.bincount(pos[in_range & same], minlength=nbins).astype(float),
        counts_opposite=np.bincount(pos[in_range & ~same], minlength=nbins).astype(float),
        n_total=len(batch),
    )


def sample_furry(rng: np.random.Generator, n: int, delta_m: float):
    """``(t1, t2, flavour1, flavour2)`` of ``n`` pairs (tau = 1) under
    spontaneous disentanglement, Furry's hypothesis: at production the pair
    becomes one B0 and one B0bar, which then mix independently, each side
    keeping its flavour up to its decay with probability
    (1 + cos(delta_m t))/2.  The asymmetry is cos(delta_m t1) cos(delta_m t2),
    not cos(delta_m (t1 - t2)): the negative control of the fit."""
    t = rng.exponential(size=(2, n))
    initial = np.array([[Flavour.B0], [Flavour.B0BAR]], dtype=np.int8)
    kept = rng.random((2, n)) < 0.5 * (1.0 + np.cos(delta_m * t))
    flavour = np.where(kept, initial, 3 - initial)
    return t[0], t[1], flavour[0], flavour[1]


def event_file_rows(batch) -> str:
    """Event-file body formatted one row at a time: the reference for the
    column-wise writer, which must produce the same bytes."""
    labels = {1: "B0", 2: "B0bar"}
    return "".join(
        f"{int(batch.index[i])},{float(batch.lam[i])!r},{float(batch.t1[i])!r},"
        f"{labels[int(batch.flavour1[i])]},{float(batch.t2[i])!r},"
        f"{labels[int(batch.flavour2[i])]},{int(batch.swapped[i])}\n"
        for i in range(len(batch))
    )


# ---------------------------------------------------------------------------
# scalar samplers
#
# These mirror the batch stages draw for draw (and use numpy math on
# length-1 arrays and numpy scalars, so even the last ulp matches the
# vectorized path).

_UINT64_MAX = 2**64 - 1
_MASK32 = 0xFFFFFFFF


def philox4x32_reference(key, counter):
    """The four 32-bit output words of Philox4x32-10 for a (k0, k1) key and
    a (c0, c1, c2, c3) counter, one block in Python ints."""
    (k0, k1), (x0, x1, x2, x3) = key, counter
    for _ in range(10):
        p0, p1 = 0xD2511F53 * x0, 0xCD9E8D57 * x2
        x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ x3 ^ k1, p0 & _MASK32
        k0, k1 = (k0 + 0x9E3779B9) & _MASK32, (k1 + 0xBB67AE85) & _MASK32
    return x0, x1, x2, x3


@dataclass
class EventStream:
    """Scalar view of one event's substream; `cursor` counts blocks consumed."""

    seed: int
    event_index: int
    cursor: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _UINT64_MAX:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not 0 <= self.event_index <= _UINT64_MAX:
            raise ValueError(f"event index must fit in 64 bits, got {self.event_index}")

    def next_pair(self) -> tuple[float, float]:
        """The uniforms of words w0:w1 and w2:w3 of the block at the cursor,
        top 53 bits each; the key is the seed and the counter (cursor,
        event index), both split low word first."""
        w0, w1, w2, w3 = philox4x32_reference(
            (self.seed & _MASK32, self.seed >> 32),
            (self.cursor & _MASK32, self.cursor >> 32,
             self.event_index & _MASK32, self.event_index >> 32))
        self.cursor += 1
        return ((w0 << 32 | w1) >> 11) * 2.0**-53, ((w2 << 32 | w3) >> 11) * 2.0**-53

    def next_uniform(self) -> float:
        return self.next_pair()[0]


def sample_lambda(stream: EventStream, params: ModelParams, max_iters: int = 10_000) -> float:
    """Draw the shared phase by rejection under the constant 1/4 envelope."""
    rho = rho_table(params)
    for _ in range(max_iters):
        u_a, u_b = stream.next_pair()
        prop = TWO_PI * u_a
        if u_b < 4.0 * float(rho(np.array([prop]))[0]):
            return prop
    raise RejectionOverflowError("lambda")


def sample_side1(stream: EventStream, lam: float, params: ModelParams):
    """Exponential decay time (inverse CDF), the deterministic window
    flavour, and the symmetrization coin: u_a and u_b of one pair."""
    u, coin = stream.next_pair()
    # 1 - u is uniform on (0, 1], so log1p(-u) never sees log(0)
    t1 = float(-params.tau * np.log1p(-np.float64(u)))
    code = int(flavour_window_codes(lam, t1, params))
    return t1, Flavour(code), coin


def sample_side2(stream: EventStream, lam: float, params: ModelParams, max_iters: int = 10_000):
    """Second decay: exponential proposal thinned by |cos|, sign fixes flavour."""
    for _ in range(max_iters):
        u_a, u_b = stream.next_pair()
        t = float(-params.tau * np.log1p(-np.float64(u_a)))
        c = float(np.cos(np.float64(lam - params.delta_m * t)))
        if u_b < abs(c):
            return t, (Flavour.B0 if c > 0.0 else Flavour.B0BAR)
    raise RejectionOverflowError("t2", lam=lam)
