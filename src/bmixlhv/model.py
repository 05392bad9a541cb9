"""Shared-phase model of correlated neutral-meson pair decays.

Each meson pair carries a single hidden phase ``lambda`` in [0, 2pi), common
to both sides.  The first side decays at an exponentially distributed proper
time with a flavour fixed deterministically by a rotating phase window; the
second side follows a clipped-cosine law whose lambda-dependent normalizer
N(lambda) is defined by requiring the decay probabilities to sum to one.
With the phase distributed as ``rho_marginal``, the pair statistics
reproduce the standard flavour-oscillation formulas exactly (verified by
quadrature in :mod:`bmixlhv.verification`).

All functions here are pure and built from numpy operators, so one code
path takes a scalar (giving a scalar) or broadcasts over arrays: the
verification quadrature evaluates the densities on whole node arrays.  The
normalizer 1/N(lambda) has an elementary closed form (:func:`inverse_n`),
which the sampler evaluates at its squeeze bins' edges and on the few
proposed phases those bounds leave undecided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Flavour",
    "ModelParams",
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
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise ValueError(f"x = delta_m * tau must be finite and positive, got {self.x!r}")

    @property
    def x(self) -> float:
        """Dimensionless mixing parameter delta_m * tau."""
        return self.delta_m * self.tau


def _window_b0bar(lam, t, params: ModelParams):
    """The window rule: true where phi = (lam - delta_m * t) mod 2pi lies in
    [0, pi/2) u [3pi/2, 2pi), the B0bar window.

    Operators only, so a float gives a bool and an array a bool array.  A
    tiny negative phase that rounds onto 2pi still lands in the B0bar window.
    """
    phi = (lam - params.delta_m * t) % TWO_PI
    return (phi < HALF_PI) | (phi >= THREE_HALF_PI)


def flavour_window_codes(lam, t, params: ModelParams) -> np.ndarray:
    """Deterministic first-side flavour for hidden phase ``lam`` at time ``t``,
    as int8 codes (Flavour values); a 0-d array for scalar arguments.

    The phase variable phi = (lam - delta_m * t) mod 2pi partitions the
    circle into two half-turn windows: B0bar on [0, pi/2) u [3pi/2, 2pi),
    B0 on [pi/2, 3pi/2).  The half-open convention settles the
    measure-zero boundary ties.
    """
    return np.where(_window_b0bar(lam, t, params), np.int8(Flavour.B0BAR), np.int8(Flavour.B0))


def p_density(k, lam, t, params: ModelParams):
    """First-side density in (flavour, time) given the hidden phase.

    The time is exponential with mean tau and the flavour is fixed by the
    window, so this is exp(-t/tau)/tau on the matching flavour and zero on
    the other; summed over flavours it is the plain exponential law.
    Operators only: scalars give a scalar, arrays broadcast.
    """
    matches = (k == Flavour.B0BAR) == _window_b0bar(lam, t, params)
    return matches * np.exp(-t / params.tau) / params.tau


def q_shape(l, lam, t, params: ModelParams):
    """Second-side decay shape, without the 1/N(lam) normalization.

    exp(-t/tau) * [cos(lam - delta_m*t)]_+ for B0 and the same with the
    cosine negated for B0bar ([x]_+ = max(x, 0)).  The full second-side law
    is N(lam) * q_shape; summed over flavours the clipped cosines merge into
    |cos|, which is what :func:`inverse_n` integrates.  Operators only:
    scalars give a scalar, arrays broadcast.
    """
    sign = 1 - 2 * (l == Flavour.B0BAR)
    return np.exp(-t / params.tau) * np.maximum(sign * np.cos(lam - params.delta_m * t), 0.0)


def inverse_n(lam, params: ModelParams):
    """1/N(lam): the time integral of exp(-t/tau)|cos(lam - delta_m*t)| over t >= 0.

    In s = delta_m*t with a = 1/x the integral is (tau/x) times that of
    e^(-as)|cos(lam - s)|, and F(s) = e^(-as)(-a cos(lam-s) - sin(lam-s))/(1+a^2)
    is an antiderivative of the unrectified integrand.  The partial half-wave
    before the first kink s0 = (lam - pi/2) mod pi gives |F(s0) - F(0)|; the
    full half-waves after it form a geometric series with ratio e^(-a pi),
    whose first term is e^(-a s0)(1 + e^(-a pi))/(1 + a^2).

    Returns a float for a scalar ``lam`` and an array for an array.  The
    integrand is positive and capped by the bare exponential, hence
    0 < inverse_n < tau; below x of about 1e-8 the quotient can round one
    ulp above tau, so it is capped there.
    """
    lam = np.asarray(lam, dtype=float)
    a = 1.0 / params.x
    s0 = np.mod(lam - HALF_PI, math.pi)
    decay = np.exp(-a * s0)
    # both terms carry the common factor 1/(1 + a^2), applied last with tau/x
    # as tau / (x + a): a * a would overflow for x below about 1e-154
    head = np.abs(decay * (a * np.cos(lam - s0) + np.sin(lam - s0))
                  - (a * np.cos(lam) + np.sin(lam)))
    tail = decay * (1.0 + math.exp(-a * math.pi)) / -math.expm1(-a * math.pi)
    val = np.minimum(params.tau * (head + tail) / (params.x + a), params.tau)
    return float(val) if val.ndim == 0 else val


def rho_marginal(lam, params: ModelParams):
    """Density of the shared hidden phase: inverse_n(lam) / (4 tau).

    Integrates to 1 over [0, 2pi) and is bounded above by 1/4, which is the
    constant rejection envelope used by the sampler.
    """
    return inverse_n(lam, params) / (4.0 * params.tau)


def rho_table(params: ModelParams):
    """The phase density for fixed ``params`` as a one-argument callable."""
    return lambda lam: rho_marginal(lam, params)
