"""Shared fixtures: one standard large batch and one symmetrized large batch.

The two large batches use different seeds on purpose — the two-sample
comparison between them is only meaningful for statistically independent
samples (identical seeds share every proposal draw and would compare a
histogram against itself).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from bmixlhv.model import ModelParams
from bmixlhv.montecarlo import SimConfig, generate

DEFAULT_X = 0.776
BIG_N = 1_000_000
BIG_SEED = 20260814
SYM_SEED = 777000111

# quadrature- and oracle-backed properties (the exact 1/N oracle sums some
# 20 000 half-waves at x = 1e3) can blow the default 200 ms deadline on a
# slow host, so the deadline is disabled
settings.register_profile("quadrature", deadline=None)
settings.load_profile("quadrature")


@pytest.fixture(scope="session")
def params() -> ModelParams:
    return ModelParams(tau=1.0, delta_m=DEFAULT_X)


@pytest.fixture(scope="session")
def big_batch(params):
    return generate(SimConfig(params=params, n_events=BIG_N, seed=BIG_SEED))


@pytest.fixture(scope="session")
def sym_batch(params):
    return generate(
        SimConfig(params=params, n_events=BIG_N, seed=SYM_SEED, symmetrized=True)
    )


@pytest.fixture(scope="session")
def small_batch(params):
    return generate(SimConfig(params=params, n_events=20_000, seed=123))
