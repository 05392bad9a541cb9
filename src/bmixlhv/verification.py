"""Quadrature reconstruction of the pair densities and identity checks.

This module never trusts the closed forms it is checking: every target is
re-derived by quadrature of the model-core functions.  One fixed-order rule,
:func:`quad`, does all of it: 20-point Gauss-Legendre on each smooth piece
between the known kinks (window edges, clipped-cosine zeros), with the
10-point rule on the same parts as its error estimate.  The densities take
arrays, so every integral of a check, over all its grid points at once, is
one array evaluation.  A whole :func:`full_verification` takes about
0.1 s at x <= 5 and about 10 s at x = 1000 on a 2-vCPU host.  Results are
collected into a :class:`QuadratureReport` of named checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "quad",
    "reconstruct_joint",
]

JOINT_TOLERANCE = 1e-8
NORMALIZATION_TOLERANCE = 1e-9
IKL_TOLERANCE = 1e-10
CONDITIONAL_TOLERANCE = 1e-12

# Time integrals are truncated at this many lifetimes; the discarded tail is
# below e^-60 ~ 8.8e-27, far under every tolerance used in this package.
T_MAX_LIFETIMES = 60.0
# full_verification grids: joint and conditional checks on a square of this
# many points per axis over [0, GRID_LIFETIMES * tau], window overlaps at
# S_SAMPLES lags over [0, 4pi], normalizations at LAMBDA_SAMPLES phases
GRID_LIFETIMES = 5.0
POINTS_PER_AXIS = 21
S_SAMPLES = 64
LAMBDA_SAMPLES = 64
# a quadrature whose 20- and 10-point rules differ by more than this fails
QUAD_GUARD = 1e-9
# a quadrature needing more Gauss nodes than this fails before allocating
# them (about 200 MiB of temporaries); the largest at x = 1000 takes 0.4 M,
# and x = 1e-4 would take 7.5 M
QUAD_MAX_NODES = 2**22

_GAUSS_20 = np.polynomial.legendre.leggauss(20)
_GAUSS_10 = np.polynomial.legendre.leggauss(10)

_FLAVOUR_PAIRS = [(k, l) for k in Flavour for l in Flavour]


class QuadratureError(RuntimeError):
    """A quadrature's error estimate exceeded :data:`QUAD_GUARD`."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: float
    computed: float
    tolerance: float

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


def quad(integrand, edges, max_width: float, label: str):
    """Integral of ``integrand`` from ``edges[..., 0]`` to ``edges[..., -1]``.

    ``edges`` holds ascending breakpoints along its last axis, one row per
    integral; the integrand must be smooth between consecutive edges.  Every
    piece is split evenly into the same number of parts, enough that none is
    wider than ``max_width``, and each part gets the 20-point Gauss-Legendre
    rule.  ``integrand`` receives all nodes of a row along one trailing axis
    (shape ``edges.shape[:-1] + (nodes,)``) and must broadcast over it.  The
    summed |20-point - 10-point| difference is the error estimate; above
    :data:`QUAD_GUARD` it raises :class:`QuadratureError` naming ``label``,
    so a kink inside a part is refused rather than integrated badly; so it
    does, before allocating, when the rule needs more than
    :data:`QUAD_MAX_NODES` nodes.
    """
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges, axis=-1)
    width, nodes = float(np.max(widths)), widths.size * _GAUSS_20[0].size
    if width * nodes > QUAD_MAX_NODES * max_width:
        raise QuadratureError(f"{label}: more than {QUAD_MAX_NODES} quadrature nodes "
                              f"needed for parts at most {max_width!r} wide")
    # the slack keeps a piece one rounding error wider than max_width whole
    n_parts = max(1, math.ceil(width / max_width - 1e-9))
    half = (widths / (2 * n_parts))[..., None]
    mids = edges[..., :-1, None] + half * (2 * np.arange(n_parts) + 1)

    def rule(nodes, weights):  # per-part sums, shape (..., pieces, parts)
        x = mids[..., None] + half[..., None] * nodes
        return half * (integrand(x.reshape(*edges.shape[:-1], -1)).reshape(x.shape) @ weights)

    parts = rule(*_GAUSS_20)
    total = parts.sum(axis=(-2, -1))
    error = float(np.max(np.abs(parts - rule(*_GAUSS_10)).sum(axis=(-2, -1))))
    if error > QUAD_GUARD:
        raise QuadratureError(f"{label}: error estimate {error!r} above tolerance")
    return total[()]


def _phase_edges(*kinks):
    """Edges [0, kinks mod 2pi sorted, 2pi] of a phase integral, along a new
    last axis; the kinks may be scalars or broadcastable arrays."""
    kinks = np.mod(np.stack(np.broadcast_arrays(*kinks), axis=-1), TWO_PI)
    bounds = np.broadcast_to([0.0, TWO_PI], kinks.shape[:-1] + (2,))
    return np.sort(np.concatenate([bounds, kinks], axis=-1), axis=-1)


def reconstruct_joint(k, l, t1, t2, params: ModelParams):
    """Pair density rebuilt by integrating the factorized model over the
    shared phase, at scalar or array times ``t1``, ``t2``.

    The phase density contributes 1/(4 tau N); the second-side law is
    N * q_shape, so N cancels and the integrand reduces to
    p_density * q_shape / (4 tau).  Breakpoints: the two window edges of the
    first side and the two cosine zeros of the second side.
    """
    tau, dm = params.tau, params.delta_m
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    edges = _phase_edges(dm * t1 + HALF_PI, dm * t1 + THREE_HALF_PI,
                         dm * t2 + HALF_PI, dm * t2 + THREE_HALF_PI)

    def integrand(lam):
        return p_density(k, lam, t1[..., None], params) * q_shape(l, lam, t2[..., None], params)

    val = quad(integrand, edges, HALF_PI, f"joint reconstruction k={int(k)} l={int(l)}")
    return val / (4.0 * tau)


def check_i_kl(k, l, s):
    """Window-overlap integral by quadrature vs its closed form.

    Integrates [cos(x + (k-l-1)pi + s)]_+ over x in (-pi/2, pi/2) with a
    breakpoint at the one zero of the cosine in [-pi/2, pi/2); ``s`` may be
    a scalar or an array.  Returns (computed, closed_form).
    """
    shift = (int(k) - int(l) - 1) * math.pi + np.asarray(s, dtype=float)
    # zeros at x = pi/2 - shift + m*pi
    zero = (math.pi - shift) % math.pi - HALF_PI
    edges = np.stack(np.broadcast_arrays(-HALF_PI, zero, HALF_PI), axis=-1)

    def integrand(x):
        return np.maximum(np.cos(x + shift[..., None]), 0.0)

    computed = quad(integrand, edges, HALF_PI, f"i_kl k={int(k)} l={int(l)}")
    return computed, quantum.i_kl(k, l, s)


def check_normalizations(params: ModelParams) -> QuadratureReport:
    """Normalization identities of the model densities.

    Checks: the phase density integrates to 1; the 1/N integral over the
    phase equals 4 tau in both evaluation orders (phase-first and
    time-first, the latter using the constant inner integral of |cos| over
    a full period); and at ``LAMBDA_SAMPLES`` stratified phases both decay
    laws integrate to one over time.  The truncation tail bound of the time
    integrals is recorded as its own entry.
    """
    tau, dm = params.tau, params.delta_m
    t_max = T_MAX_LIFETIMES * tau
    report = QuadratureReport()

    # 1/N has kinks where the first cosine zero wraps, and a boundary layer
    # about x wide there at small x
    phase_edges = [0.0, HALF_PI, THREE_HALF_PI, TWO_PI]
    phase_width = min(1.0, params.x) / 4.0
    rho_int = quad(lambda lam: rho_marginal(lam, params), phase_edges, phase_width,
                   "rho marginal normalization")
    report.add("rho_marginal_integral", 1.0, rho_int, NORMALIZATION_TOLERANCE)

    lambda_first = quad(lambda lam: inverse_n(lam, params), phase_edges, phase_width,
                        "1/N integral, phase first")
    report.add(
        "inverse_n_integral_lambda_first", 4.0 * tau, lambda_first, NORMALIZATION_TOLERANCE
    )

    def abscos_phase_integral(t):
        return quad(lambda lam: np.abs(np.cos(lam - dm * t[..., None])),
                    _phase_edges(dm * t + HALF_PI, dm * t + THREE_HALF_PI), HALF_PI,
                    "|cos| phase integral")

    time_first = quad(lambda t: np.exp(-t / tau) * abscos_phase_integral(t), [0.0, t_max],
                      tau, "1/N integral, time first")
    report.add(
        "inverse_n_integral_time_first", 4.0 * tau, time_first, NORMALIZATION_TOLERANCE
    )
    report.add(
        "inverse_n_integral_order_agreement",
        0.0,
        abs(lambda_first - time_first),
        NORMALIZATION_TOLERANCE,
    )

    # the window flips and the cosine zeros at the times where
    # lam - delta_m * t crosses pi/2 mod pi
    period = math.pi / dm
    n_flips = math.ceil(t_max / period) + 1
    time_width = min(tau, period)
    for j in range(LAMBDA_SAMPLES):
        lam = (j + 0.5) * TWO_PI / LAMBDA_SAMPLES
        flips = ((lam - HALF_PI) % math.pi) / dm + np.arange(n_flips) * period
        edges = np.concatenate([[0.0], np.minimum(flips, t_max), [t_max]])

        p_total = quad(lambda t: sum(p_density(k, lam, t, params) for k in Flavour),
                       edges, time_width, f"first-side normalization lam={lam!r}")
        report.add(
            f"p_normalization/lambda_{j:03d}", 1.0, p_total, NORMALIZATION_TOLERANCE
        )

        q_total = quad(lambda t: sum(q_shape(l, lam, t, params) for l in Flavour),
                       edges, time_width, f"second-side normalization lam={lam!r}")
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


def full_verification(params: ModelParams) -> QuadratureReport:
    """Run the whole identity suite for one parameter point.

    Grid checks (aggregated as max-residual entries per flavour pair):
    the phase-integral reconstruction against the closed-form joint density
    on a ``POINTS_PER_AXIS``-square (t1, t2) grid over
    [0, GRID_LIFETIMES*tau]^2; the conditional-rate relation on the same
    grid; the window-overlap integrals on ``S_SAMPLES`` lags over [0, 4pi].
    Plus all normalization identities.
    """
    report = QuadratureReport()
    times = np.linspace(0.0, GRID_LIFETIMES * params.tau, POINTS_PER_AXIS)
    tt1, tt2 = np.meshgrid(times, times)
    s_grid = np.linspace(0.0, 4.0 * math.pi, S_SAMPLES)

    for k, l in _FLAVOUR_PAIRS:
        pair = f"k{int(k)}l{int(l)}"
        rebuilt = reconstruct_joint(k, l, tt1, tt2, params)
        target = quantum.joint_density(k, l, tt1, tt2, params)
        report.add(f"joint_reconstruction/{pair}", 0.0,
                   float(np.max(np.abs(rebuilt - target))), JOINT_TOLERANCE)

        computed, closed = check_i_kl(k, l, s_grid)
        report.add(f"i_kl_quadrature/{pair}", 0.0,
                   float(np.max(np.abs(computed - closed))), IKL_TOLERANCE)

        lhs = quantum.conditional_from_joint(k, l, tt1, tt2, params)
        rhs = quantum.conditional_rate(quantum.pair_class(k, l), np.abs(tt1 - tt2), params)
        report.add(f"conditional_relation/{pair}", 0.0,
                   float(np.max(np.abs(lhs - rhs))), CONDITIONAL_TOLERANCE)

    report.merge(check_normalizations(params))
    return report
