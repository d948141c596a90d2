"""Natural gradient descent for multivariate Gaussian variational inference."""

from .factors import Factor, FactorGraph, assemble, extract_marginal, optimize_factored
from .gaussian import MeanCovariance, MeanPrecision, convert, kl, log_pdf, sample
from .kronmat import SymmetricMatrix
from .ngd import NgdConfig, optimize, step_hybrid
from .quadrature import ExpectationRule, expect_scalar, expect_weighted, pointwise
from .vloss import DerivativeBundle, LossFunctional, value, value_and_derivatives

__all__ = [
    "Factor",
    "FactorGraph",
    "assemble",
    "extract_marginal",
    "optimize_factored",
    "MeanCovariance",
    "MeanPrecision",
    "convert",
    "kl",
    "log_pdf",
    "sample",
    "SymmetricMatrix",
    "NgdConfig",
    "optimize",
    "step_hybrid",
    "ExpectationRule",
    "expect_scalar",
    "expect_weighted",
    "pointwise",
    "DerivativeBundle",
    "LossFunctional",
    "value",
    "value_and_derivatives",
]

__version__ = "0.1.0"
