"""Hidden-phase model of flavour-correlated neutral-meson pair decays.

A single shared phase per pair drives deterministic flavour windows and
clipped-cosine decay laws that together reproduce the standard oscillation
formulas exactly.  The package provides the model densities
(:mod:`bmixlhv.model`), their closed-form targets (:mod:`bmixlhv.quantum`),
a quadrature verification suite (:mod:`bmixlhv.verification`), a
reproducible event generator (:mod:`bmixlhv.montecarlo`), binned-rate
analysis (:mod:`bmixlhv.analysis`), and a command-line front end
(:mod:`bmixlhv.cli`).
"""

from .model import Flavour, ModelParams
from .montecarlo import EventBatch, SimConfig, generate
from .verification import QuadratureReport, full_verification

__version__ = "0.1.0"

__all__ = [
    "EventBatch",
    "Flavour",
    "ModelParams",
    "QuadratureReport",
    "SimConfig",
    "full_verification",
    "generate",
    "__version__",
]
