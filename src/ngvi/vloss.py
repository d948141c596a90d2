"""The loss functional V(q) and its mean/precision derivatives.

V(q) = E_q[phi(x)] + (1/2) ln |prec|, with phi(x) the negative log joint
likelihood; additive constants are dropped, so only differences of V are
meaningful. The three derivative blocks

    grad_mu   = prec @ E[(x - mu) phi]
    hess_mu   = prec @ E[(x - mu)(x - mu)^T phi] @ prec - prec * E[phi]
    grad_prec = -(1/2) E[(x - mu)(x - mu)^T phi] + (1/2) cov * E[phi] + (1/2) cov

come from a single weighted-expectation sweep. grad_prec is computed
directly rather than through the relation

    grad_prec = (1/2) cov - (1/2) cov @ hess_mu @ cov

so the relation remains a genuine cross-check. That cross-check and the
finite-difference validation of all three blocks (``fd_check``) live in
``ngvi.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .gaussian import cov_of, prec_of
from .kronmat import DimensionError, SymmetricMatrix
from .quadrature import ExpectationRule, expect_scalar, expect_weighted

__all__ = ["LossFunctional", "DerivativeBundle", "value", "derivatives", "value_and_derivatives"]


@dataclass(frozen=True, eq=False)
class LossFunctional:
    """phi(x) = -ln p(x, z), optionally carrying its factor decomposition."""

    dim: int
    phi: Callable[[np.ndarray], float]
    factorization: Any = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("loss dimension must be a positive integer")


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """First and second mean derivatives of V plus the precision derivative."""

    grad_mu: np.ndarray
    hess_mu: SymmetricMatrix
    grad_prec: SymmetricMatrix


def _check_dims(loss: LossFunctional, q) -> None:
    if loss.dim != q.dim:
        raise DimensionError(f"loss dimension {loss.dim} != Gaussian dimension {q.dim}")


def _logdet_prec(q) -> float:
    sign, logdet = np.linalg.slogdet(prec_of(q))
    return float(logdet)


def value(loss: LossFunctional, q, rule: ExpectationRule) -> float:
    """E_q[phi] + (1/2) ln |prec|, constants dropped."""
    _check_dims(loss, q)
    return expect_scalar(rule, q, loss.phi) + 0.5 * _logdet_prec(q)


def value_and_derivatives(
    loss: LossFunctional, q, rule: ExpectationRule
) -> tuple[float, DerivativeBundle]:
    """Loss value and all three derivative blocks from one shared sweep."""
    _check_dims(loss, q)
    scalar, vector, matrix = expect_weighted(rule, q, loss.phi)
    prec = prec_of(q)
    cov = cov_of(q)
    grad_mu = prec @ vector
    hess_mu = prec @ matrix @ prec - prec * scalar
    hess_mu = 0.5 * (hess_mu + hess_mu.T)
    grad_prec = -0.5 * matrix + 0.5 * cov * scalar + 0.5 * cov
    grad_prec = 0.5 * (grad_prec + grad_prec.T)
    bundle = DerivativeBundle(
        grad_mu,
        SymmetricMatrix.from_full(hess_mu),
        SymmetricMatrix.from_full(grad_prec),
    )
    return scalar + 0.5 * _logdet_prec(q), bundle


def derivatives(loss: LossFunctional, q, rule: ExpectationRule) -> DerivativeBundle:
    return value_and_derivatives(loss, q, rule)[1]
