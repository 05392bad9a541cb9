"""Quadrature reconstruction of the pair densities and identity checks.

This module never trusts the closed forms it is checking: every target is
re-derived by adaptive quadrature of the model-core functions, with
breakpoints at the known kinks (window edges, clipped-cosine zeros) so the
piecewise-smooth integrands do not degrade the quadrature order.  Results
are collected into a :class:`QuadratureReport` of named checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from . import quantum
from .model import (
    HALF_PI,
    THREE_HALF_PI,
    TWO_PI,
    Flavour,
    ModelParams,
    inverse_n,
    p_density,
    q_shape,
    rho_marginal,
)

__all__ = [
    "CheckResult",
    "QuadratureError",
    "QuadratureReport",
    "JOINT_TOLERANCE",
    "NORMALIZATION_TOLERANCE",
    "IKL_TOLERANCE",
    "CONDITIONAL_TOLERANCE",
    "check_i_kl",
    "check_normalizations",
    "full_verification",
    "reconstruct_joint",
]

JOINT_TOLERANCE = 1e-8
NORMALIZATION_TOLERANCE = 1e-9
IKL_TOLERANCE = 1e-10
CONDITIONAL_TOLERANCE = 1e-12

# Time integrals are truncated at this many lifetimes; the discarded tail is
# below e^-60 ~ 8.8e-27, far under every tolerance used in this package.
T_MAX_LIFETIMES = 60.0

_FLAVOUR_PAIRS = [(k, l) for k in Flavour for l in Flavour]


class QuadratureError(RuntimeError):
    """An adaptive integral failed to reach its requested tolerance."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: float
    computed: float
    tolerance: float

    def __post_init__(self) -> None:
        for attr in ("target", "computed", "tolerance"):
            object.__setattr__(self, attr, float(getattr(self, attr)))

    @property
    def residual(self) -> float:
        return abs(self.target - self.computed)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class QuadratureReport:
    """Collection of named checks; merging is order-independent because
    emission always sorts by check name."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, target: float, computed: float, tolerance: float) -> None:
        self.checks.append(CheckResult(name, float(target), float(computed), tolerance))

    def merge(self, other: "QuadratureReport") -> None:
        self.checks.extend(other.checks)

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _quad(integrand, a, b, points=None, epsabs=1e-11, epsrel=1e-11, label="integral"):
    """scipy quad with breakpoints, escalating convergence trouble to
    QuadratureError instead of letting it pass as a warning."""
    if points is not None and len(points) == 0:
        points = None
    limit = 100 if points is None else max(100, 4 * len(points) + 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(
                integrand, a, b, points=points, limit=limit, epsabs=epsabs, epsrel=epsrel
            )
        except IntegrationWarning as exc:
            raise QuadratureError(f"{label}: {exc}") from None
    if err > max(100.0 * epsabs, 1e-9):
        raise QuadratureError(f"{label}: error estimate {err!r} above tolerance")
    return val


def reconstruct_joint(k, l, t1: float, t2: float, params: ModelParams) -> float:
    """Pair density rebuilt by integrating the factorized model over the
    shared phase.

    The phase density contributes 1/(4 tau N); the second-side law is
    N * q_shape, so N cancels and the integrand reduces to
    p_density * q_shape / (4 tau).  Breakpoints: the two window edges of the
    first side and the two cosine zeros of the second side.
    """
    tau, dm = params.tau, params.delta_m
    points = np.unique(
        np.mod(
            np.array(
                [
                    dm * t1 + HALF_PI,
                    dm * t1 + THREE_HALF_PI,
                    dm * t2 + HALF_PI,
                    dm * t2 + THREE_HALF_PI,
                ]
            ),
            TWO_PI,
        )
    )

    def integrand(lam: float) -> float:
        return p_density(k, lam, t1, params) * q_shape(l, lam, t2, params)

    val = _quad(
        integrand,
        0.0,
        TWO_PI,
        points=points,
        label=f"joint reconstruction k={int(k)} l={int(l)} t1={t1} t2={t2}",
    )
    return val / (4.0 * tau)


def check_i_kl(k, l, s: float) -> tuple[float, float]:
    """Window-overlap integral by quadrature vs its closed form.

    Integrates [cos(x + (k-l-1)pi + s)]_+ over x in (-pi/2, pi/2) with a
    breakpoint at the (at most one) interior zero of the cosine; returns
    (computed, closed_form).
    """
    shift = (int(k) - int(l) - 1) * math.pi + float(s)

    def integrand(x: float) -> float:
        return max(math.cos(x + shift), 0.0)

    # zeros at x = pi/2 - shift + m*pi
    m_lo = math.ceil((shift - math.pi) / math.pi)
    m_hi = math.floor(shift / math.pi)
    zeros = [
        HALF_PI - shift + m * math.pi
        for m in range(m_lo, m_hi + 1)
        if -HALF_PI < HALF_PI - shift + m * math.pi < HALF_PI
    ]
    computed = _quad(
        integrand,
        -HALF_PI,
        HALF_PI,
        points=zeros,
        epsabs=1e-12,
        epsrel=1e-12,
        label=f"i_kl k={int(k)} l={int(l)} s={s}",
    )
    return computed, float(quantum.i_kl(k, l, s))


def _cos_zero_times(lam: float, params: ModelParams, t_max: float) -> np.ndarray:
    """Strictly-interior zeros of cos(lam - delta_m*t) on (0, t_max), sorted.

    These are also the times at which the first-side window flips: the
    phase crosses pi/2 mod pi.
    """
    dm = params.delta_m
    # zeros at t = (lam - pi/2 - m*pi) / dm
    m_lo = math.floor((lam - HALF_PI - dm * t_max) / math.pi)
    m_hi = math.ceil((lam - HALF_PI) / math.pi)
    m = np.arange(m_lo, m_hi + 1, dtype=float)
    t = (lam - HALF_PI - m * math.pi) / dm
    t = t[(t > 0.0) & (t < t_max)]
    return np.sort(t)


def check_normalizations(params: ModelParams, lambda_samples: int = 64) -> QuadratureReport:
    """Normalization identities of the model densities.

    Checks: the phase density integrates to 1; the 1/N integral over the
    phase equals 4 tau in both evaluation orders (phase-first and
    time-first, the latter using the constant inner integral of |cos| over
    a full period); and at ``lambda_samples`` stratified phases both decay
    laws integrate to one over time.  The truncation tail bound of the time
    integrals is recorded as its own entry.
    """
    if lambda_samples < 1:
        raise ValueError("lambda_samples must be at least 1")
    tau, dm = params.tau, params.delta_m
    t_max = T_MAX_LIFETIMES * tau
    report = QuadratureReport()

    rho_int = _quad(
        lambda lam: rho_marginal(lam, params),
        0.0,
        TWO_PI,
        epsabs=1e-10,
        label="rho marginal normalization",
    )
    report.add("rho_marginal_integral", 1.0, rho_int, NORMALIZATION_TOLERANCE)

    lambda_first = _quad(
        lambda lam: inverse_n(lam, params),
        0.0,
        TWO_PI,
        epsabs=1e-10,
        label="1/N integral, phase first",
    )
    report.add(
        "inverse_n_integral_lambda_first", 4.0 * tau, lambda_first, NORMALIZATION_TOLERANCE
    )

    def abscos_phase_integral(t: float) -> float:
        zeros = np.mod(np.array([dm * t + HALF_PI, dm * t + THREE_HALF_PI]), TWO_PI)
        return _quad(
            lambda lam: abs(math.cos(lam - dm * t)),
            0.0,
            TWO_PI,
            points=np.unique(zeros),
            epsabs=1e-12,
            label="|cos| phase integral",
        )

    time_first = _quad(
        lambda t: math.exp(-t / tau) * abscos_phase_integral(t),
        0.0,
        t_max,
        epsabs=1e-10,
        label="1/N integral, time first",
    )
    report.add(
        "inverse_n_integral_time_first", 4.0 * tau, time_first, NORMALIZATION_TOLERANCE
    )
    report.add(
        "inverse_n_integral_order_agreement",
        0.0,
        abs(lambda_first - time_first),
        NORMALIZATION_TOLERANCE,
    )

    for j in range(lambda_samples):
        lam = (j + 0.5) * TWO_PI / lambda_samples
        flips = _cos_zero_times(lam, params, t_max)

        p_total = _quad(
            lambda t: sum(p_density(k, lam, t, params) for k in Flavour),
            0.0,
            t_max,
            points=flips,
            epsabs=1e-11,
            label=f"first-side normalization lam={lam!r}",
        )
        report.add(
            f"p_normalization/lambda_{j:03d}", 1.0, p_total, NORMALIZATION_TOLERANCE
        )

        q_total = _quad(
            lambda t: sum(q_shape(l, lam, t, params) for l in Flavour),
            0.0,
            t_max,
            points=flips,
            epsabs=1e-11,
            label=f"second-side normalization lam={lam!r}",
        )
        report.add(
            f"q_normalization/lambda_{j:03d}",
            1.0,
            q_total / inverse_n(lam, params),
            NORMALIZATION_TOLERANCE,
        )

    report.add(
        "time_cutoff_tail_bound",
        0.0,
        math.exp(-T_MAX_LIFETIMES),
        NORMALIZATION_TOLERANCE,
    )
    return report


def full_verification(
    params: ModelParams,
    t_max: float = 5.0,
    points_per_axis: int = 21,
    lambda_samples: int = 64,
    s_samples: int = 64,
) -> QuadratureReport:
    """Run the whole identity suite for one parameter point.

    Grid checks (aggregated as max-residual entries per flavour pair):
    the phase-integral reconstruction against the closed-form joint density
    on a (t1, t2) grid over [0, t_max*tau]^2; the conditional-rate relation
    on the same grid; the window-overlap integrals on ``s_samples`` points
    over [0, 4pi].  Plus all normalization identities.
    """
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    report = QuadratureReport()
    times = np.linspace(0.0, t_max * params.tau, points_per_axis)
    s_grid = np.linspace(0.0, 4.0 * math.pi, s_samples)

    for k, l in _FLAVOUR_PAIRS:
        worst = 0.0
        for t1 in times:
            for t2 in times:
                rebuilt = reconstruct_joint(k, l, t1, t2, params)
                target = quantum.joint_density(k, l, t1, t2, params)
                worst = max(worst, abs(rebuilt - target))
        report.add(
            f"joint_reconstruction/k{int(k)}l{int(l)}", 0.0, worst, JOINT_TOLERANCE
        )

    for k, l in _FLAVOUR_PAIRS:
        worst = max(
            abs(computed - closed)
            for computed, closed in (check_i_kl(k, l, s) for s in s_grid)
        )
        report.add(f"i_kl_quadrature/k{int(k)}l{int(l)}", 0.0, worst, IKL_TOLERANCE)

    tt1, tt2 = np.meshgrid(times, times)
    for k, l in _FLAVOUR_PAIRS:
        lhs = quantum.conditional_from_joint(k, l, tt1, tt2, params)
        rhs = quantum.conditional_rate(
            quantum.pair_class(k, l), np.abs(tt1 - tt2), params
        )
        report.add(
            f"conditional_relation/k{int(k)}l{int(l)}",
            0.0,
            float(np.max(np.abs(lhs - rhs))),
            CONDITIONAL_TOLERANCE,
        )

    report.merge(check_normalizations(params, lambda_samples))
    return report
