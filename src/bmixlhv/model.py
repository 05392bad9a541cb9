"""Shared-phase model of correlated neutral-meson pair decays.

Each meson pair carries a single hidden phase ``lambda`` in [0, 2pi), common
to both sides.  The first side decays at an exponentially distributed proper
time with a flavour fixed deterministically by a rotating phase window; the
second side follows a clipped-cosine law whose lambda-dependent normalizer
N(lambda) is defined by requiring the decay probabilities to sum to one.
With the phase distributed as ``rho_marginal``, the pair statistics
reproduce the standard flavour-oscillation formulas exactly (verified by
quadrature in :mod:`bmixlhv.verification`).

All functions here are pure; the only cache is the immutable per-parameter
table built by :func:`rho_table`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

__all__ = [
    "Flavour",
    "ModelParams",
    "PairEvent",
    "RhoMarginalTable",
    "canonical_angle",
    "flavour_window",
    "flavour_window_codes",
    "p_density",
    "q_shape",
    "inverse_n",
    "rho_marginal",
    "rho_table",
]

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
THREE_HALF_PI = 1.5 * math.pi

# Time integrals are truncated at this many lifetimes; the discarded tail is
# below e^-60 ~ 8.8e-27, far under every tolerance used in this package.
T_MAX_LIFETIMES = 60.0

# quadrature tolerance for the 1/N integral
_QUAD_EPS = 1e-12

# interior knot count of the cached rho-marginal table (plus a wrapped
# endpoint knot at exactly 2pi)
RHO_TABLE_POINTS = 4096


class Flavour(enum.IntEnum):
    """Flavour tag of a neutral meson; the integer values double as the
    indices used throughout the rate formulas."""

    B0 = 1
    B0BAR = 2

    @property
    def label(self) -> str:
        return "B0" if self is Flavour.B0 else "B0bar"


@dataclass(frozen=True)
class ModelParams:
    """Mean lifetime ``tau`` and oscillation frequency ``delta_m``.

    Everything downstream depends on the dimensionless mixing parameter
    ``x = delta_m * tau``; tau merely sets the time unit.  ``delta_m <= 0``
    is rejected because the second-side normalizer degenerates at isolated
    phases when the oscillation stops.
    """

    tau: float = 1.0
    delta_m: float = 0.776

    def __post_init__(self) -> None:
        # plain floats keep repr()-based fingerprints free of numpy wrappers
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "delta_m", float(self.delta_m))
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.delta_m) and self.delta_m > 0.0):
            raise ValueError(
                f"delta_m must be finite and positive, got {self.delta_m!r}"
            )

    @property
    def x(self) -> float:
        """Dimensionless mixing parameter delta_m * tau."""
        return self.delta_m * self.tau


@dataclass(frozen=True)
class PairEvent:
    """One simulated pair decay.

    ``lam`` is the shared hidden phase; ``swapped`` records whether
    symmetrized generation exchanged which physical side received which
    decay law.
    """

    index: int
    lam: float
    t1: float
    flavour1: Flavour
    t2: float
    flavour2: Flavour
    swapped: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam < TWO_PI:
            raise ValueError(f"lam must lie in [0, 2pi), got {self.lam!r}")
        if self.t1 < 0.0 or self.t2 < 0.0:
            raise ValueError("decay times must be nonnegative")


def canonical_angle(theta):
    """Reduce an angle to the canonical interval [0, 2pi).

    Accepts scalars or arrays.  ``np.mod`` already maps negatives into the
    positive branch; the extra clamp catches the rounding case where a tiny
    negative input lands exactly on 2pi.
    """
    phi = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    phi = np.where(phi >= TWO_PI, 0.0, phi)
    if phi.ndim == 0:
        return float(phi)
    return phi


def flavour_window(lam, t, params: ModelParams) -> Flavour:
    """Deterministic first-side flavour for hidden phase ``lam`` at time ``t``.

    The phase variable phi = (lam - delta_m * t) mod 2pi partitions the
    circle into two half-turn windows: B0bar on [0, pi/2) u [3pi/2, 2pi),
    B0 on [pi/2, 3pi/2).  The half-open convention settles the
    measure-zero boundary ties.
    """
    phi = canonical_angle(lam - params.delta_m * t)
    if phi < HALF_PI or phi >= THREE_HALF_PI:
        return Flavour.B0BAR
    return Flavour.B0


def flavour_window_codes(lam, t, params: ModelParams) -> np.ndarray:
    """Vectorized :func:`flavour_window`; returns int8 codes (Flavour values)."""
    phi = np.mod(np.asarray(lam, dtype=float) - params.delta_m * np.asarray(t, dtype=float), TWO_PI)
    b0bar = (phi < HALF_PI) | (phi >= THREE_HALF_PI)
    return np.where(b0bar, np.int8(Flavour.B0BAR), np.int8(Flavour.B0))


def p_density(k, lam, t, params: ModelParams) -> float:
    """First-side density in (flavour, time) given the hidden phase.

    The time is exponential with mean tau and the flavour is fixed by the
    window, so this is exp(-t/tau)/tau on the matching flavour and zero on
    the other; summed over flavours it is the plain exponential law.
    """
    if flavour_window(lam, t, params) is not Flavour(k):
        return 0.0
    return math.exp(-t / params.tau) / params.tau


def q_shape(l, lam, t, params: ModelParams) -> float:
    """Second-side decay shape, without the 1/N(lam) normalization.

    exp(-t/tau) * [cos(lam - delta_m*t)]_+ for B0 and the same with the
    cosine negated for B0bar ([x]_+ = max(x, 0)).  The full second-side law
    is N(lam) * q_shape; summed over flavours the clipped cosines merge into
    |cos|, which is what :func:`inverse_n` integrates.
    """
    c = math.cos(lam - params.delta_m * t)
    if Flavour(l) is Flavour.B0BAR:
        c = -c
    return math.exp(-t / params.tau) * max(c, 0.0)


def _cos_zero_times(lam: float, params: ModelParams, t_max: float) -> np.ndarray:
    """Strictly-interior zeros of cos(lam - delta_m*t) on (0, t_max), sorted."""
    dm = params.delta_m
    # zeros at t = (lam - pi/2 - m*pi) / dm
    m_lo = math.floor((lam - HALF_PI - dm * t_max) / math.pi)
    m_hi = math.ceil((lam - HALF_PI) / math.pi)
    m = np.arange(m_lo, m_hi + 1, dtype=float)
    t = (lam - HALF_PI - m * math.pi) / dm
    t = t[(t > 0.0) & (t < t_max)]
    return np.sort(t)


def inverse_n(lam, params: ModelParams) -> float:
    """1/N(lam): the time integral of exp(-t/tau)|cos(lam - delta_m*t)|.

    Evaluated by adaptive quadrature on [0, 60 tau] with breakpoints at the
    kinks of |cos|, so each subinterval is analytic.  Bounds: the integrand
    is positive and capped by the bare exponential, hence
    0 < inverse_n <= tau.
    """
    lam = float(lam)
    tau, dm = params.tau, params.delta_m
    t_max = T_MAX_LIFETIMES * tau

    def integrand(t: float) -> float:
        return math.exp(-t / tau) * abs(math.cos(lam - dm * t))

    kinks = _cos_zero_times(lam, params, t_max)
    val, err = quad(
        integrand,
        0.0,
        t_max,
        points=kinks,
        limit=max(100, 4 * kinks.size + 10),
        epsabs=_QUAD_EPS,
        epsrel=_QUAD_EPS,
    )
    if err > 1e-9:
        raise RuntimeError(
            f"1/N quadrature failed to converge at lam={lam!r}: err={err!r}"
        )
    if not 0.0 < val <= tau:
        raise RuntimeError(f"1/N out of bounds at lam={lam!r}: {val!r}")
    return val


def rho_marginal(lam, params: ModelParams) -> float:
    """Density of the shared hidden phase: inverse_n(lam) / (4 tau).

    Integrates to 1 over [0, 2pi) and is bounded above by 1/4, which is the
    constant rejection envelope used by the sampler.
    """
    return inverse_n(lam, params) / (4.0 * params.tau)


# ---------------------------------------------------------------------------
# cached rho-marginal table

_GL_ORDER = 16
_GL_SPLITS = 8  # sub-panels per inter-kink panel
_GRID_CHUNK = 256


def _inverse_n_grid(lams: np.ndarray, params: ModelParams) -> np.ndarray:
    """Vectorized 1/N on a lambda grid.

    Composite Gauss-Legendre between the per-lambda cosine zeros: every
    kink inside (0, t_max) becomes a panel edge (kinks outside are clipped
    to the boundary, leaving zero-width panels that contribute nothing), and
    each panel is split into fixed sub-panels so the rule stays sharp even
    for slow oscillation.  Knot values agree with the scalar quadrature
    path to ~1e-14; the test suite asserts that agreement.
    """
    tau, dm = params.tau, params.delta_m
    t_max = T_MAX_LIFETIMES * tau
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    # unit-interval node/weight template for one panel split into sub-panels
    offsets = np.arange(_GL_SPLITS) / _GL_SPLITS
    u_nodes = (offsets[:, None] + (nodes[None, :] + 1.0) / (2.0 * _GL_SPLITS)).ravel()
    u_weights = np.tile(weights / (2.0 * _GL_SPLITS), _GL_SPLITS)

    # kink index range valid for every lam in [0, 2pi]; descending m gives
    # ascending kink times
    m_hi = 1
    m_lo = math.floor(-0.5 - dm * t_max / math.pi)
    m = np.arange(m_hi, m_lo - 1, -1, dtype=float)

    out = np.empty(lams.shape, dtype=float)
    for start in range(0, lams.size, _GRID_CHUNK):
        lam_c = lams[start : start + _GRID_CHUNK]
        kinks = (lam_c[:, None] - HALF_PI - m[None, :] * math.pi) / dm
        edges = np.concatenate(
            [
                np.zeros((lam_c.size, 1)),
                np.clip(kinks, 0.0, t_max),
                np.full((lam_c.size, 1), t_max),
            ],
            axis=1,
        )
        lo = edges[:, :-1]
        widths = np.diff(edges, axis=1)
        t = lo[:, :, None] + widths[:, :, None] * u_nodes[None, None, :]
        f = np.exp(-t / tau) * np.abs(np.cos(lam_c[:, None, None] - dm * t))
        out[start : start + _GRID_CHUNK] = np.einsum("cpk,k,cp->c", f, u_weights, widths)
    return out


class RhoMarginalTable:
    """rho_marginal tabulated on a uniform lambda grid, PCHIP-interpolated.

    The interpolant is shape-preserving, so between knots it never exceeds
    the tabulated values; since the exact density stays strictly below the
    1/4 envelope, so does the table, keeping envelope rejection valid.
    Between knots the interpolant tracks the exact density to ~1e-8 (the
    shape-preserving derivative limiting costs accuracy at the density
    extrema) — negligible against any statistical resolution.  Instances
    are immutable after construction and safe to share across threads.
    """

    def __init__(self, params: ModelParams, n_points: int = RHO_TABLE_POINTS):
        grid = np.linspace(0.0, TWO_PI, n_points + 1)
        values = _inverse_n_grid(grid, params) / (4.0 * params.tau)
        values[-1] = values[0]  # exact periodic wrap
        self.params = params
        self.lam_grid = grid
        self.values = values
        self._interp = PchipInterpolator(grid, values, extrapolate=False)
        self.lam_grid.setflags(write=False)
        self.values.setflags(write=False)

    def __call__(self, lam):
        """Interpolated rho_marginal; accepts scalars or arrays in [0, 2pi]."""
        return self._interp(lam)


@lru_cache(maxsize=8)
def _cached_table(params: ModelParams) -> RhoMarginalTable:
    return RhoMarginalTable(params)


def rho_table(params: ModelParams) -> RhoMarginalTable:
    """Shared per-parameter :class:`RhoMarginalTable` (built once, reused)."""
    return _cached_table(params)
