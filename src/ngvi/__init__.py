"""Natural gradient descent for multivariate Gaussian variational inference."""

from .factors import Factor, FactorGraph, assemble, extract_marginal, optimize_factored
from .fim import fd_kl_hessian, fim, fim_inverse
from .gaussian import MeanCovariance, MeanPrecision, NaturalForm, convert, kl, log_pdf, sample
from .kronmat import SymmetricMatrix, duplication, kron, mat, matf, sym, vec, vech
from .ngd import NgdConfig, optimize, step_hybrid
from .quadrature import ExpectationRule, expect_scalar, expect_weighted, pointwise
from .verify import fd_check, step_canonical, step_generic
from .vloss import DerivativeBundle, LossFunctional, value, value_and_derivatives

__all__ = [
    "Factor",
    "FactorGraph",
    "assemble",
    "extract_marginal",
    "optimize_factored",
    "fd_kl_hessian",
    "fim",
    "fim_inverse",
    "MeanCovariance",
    "MeanPrecision",
    "NaturalForm",
    "convert",
    "kl",
    "log_pdf",
    "sample",
    "SymmetricMatrix",
    "duplication",
    "kron",
    "mat",
    "matf",
    "sym",
    "vec",
    "vech",
    "NgdConfig",
    "optimize",
    "step_canonical",
    "step_generic",
    "step_hybrid",
    "ExpectationRule",
    "expect_scalar",
    "expect_weighted",
    "pointwise",
    "DerivativeBundle",
    "LossFunctional",
    "fd_check",
    "value",
    "value_and_derivatives",
]

__version__ = "0.1.0"
