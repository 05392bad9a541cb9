"""Closed-form oscillation predictions; ground truth for every check.

Conventions: flavour indices k, l take the values of :class:`Flavour`
(B0=1, B0bar=2); the pair class i is 1 when both decays show the same
flavour and 2 when they differ.  Every function is built from numpy
operators, as in :mod:`bmixlhv.model`: scalars give a scalar, arrays
broadcast.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams

__all__ = [
    "asymmetry",
    "conditional_from_joint",
    "conditional_rate",
    "i_kl",
    "joint_density",
    "pair_class",
    "rate_curve",
]


def pair_class(k, l) -> int:
    """1 for equal flavours, 2 for opposite: |k - l| + 1."""
    return abs(int(k) - int(l)) + 1


def conditional_rate(i: int, delta_t, params: ModelParams):
    """Rate density of the second decay a lag ``delta_t`` after the first.

    (1/4tau) * exp(-dt/tau) * (1 + (-1)^i cos(delta_m * dt)); class i=1
    (same flavour) vanishes at zero lag — the pair is perfectly
    anticorrelated at equal proper times.
    """
    sign = -1.0 if i % 2 else 1.0
    return (
        np.exp(-delta_t / params.tau)
        / (4.0 * params.tau)
        * (1.0 + sign * np.cos(params.delta_m * delta_t))
    )


def joint_density(k, l, t1, t2, params: ModelParams):
    """Joint decay density in (t1, t2) for flavours (k, l).

    (1/4tau^2) * exp(-(t1+t2)/tau) * (1 - (-1)^(l-k) cos(delta_m |t1-t2|)).
    """
    sign = 1.0 if int(k) == int(l) else -1.0
    return (
        np.exp(-(t1 + t2) / params.tau)
        / (4.0 * params.tau**2)
        * (1.0 - sign * np.cos(params.delta_m * np.abs(t1 - t2)))
    )


def i_kl(k, l, s):
    """Window-overlap integral in closed form: 1 - cos s (k = l), else 1 + cos s.

    2pi-periodic in s; the defining integral is re-evaluated by quadrature
    in the verification module.
    """
    sign = -1.0 if int(k) == int(l) else 1.0
    return 1.0 + sign * np.cos(s)


def conditional_from_joint(k, l, t1, t2, params: ModelParams):
    """tau * exp(2 min(t1,t2)/tau) * joint_density — identically equal to
    conditional_rate(pair_class(k,l), |t1-t2|)."""
    return (
        params.tau
        * np.exp(2.0 * np.minimum(t1, t2) / params.tau)
        * joint_density(k, l, t1, t2, params)
    )


def asymmetry(delta_t, params: ModelParams):
    """(opposite - same) / (opposite + same) = cos(delta_m * delta_t)."""
    return np.cos(params.delta_m * delta_t)


def rate_curve(params: ModelParams, delta_t_grid):
    """Both conditional rates on the given lag grid, as (same, opposite)."""
    return conditional_rate(1, delta_t_grid, params), conditional_rate(2, delta_t_grid, params)
