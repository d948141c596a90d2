"""The loss functional V(q) and its mean/precision derivatives.

V(q) = E_q[phi(x)] + (1/2) ln |prec|, with phi(x) the negative log joint
likelihood; additive constants are dropped, so only differences of V are
meaningful. ``phi`` is a batched integrand (see ``ngvi.quadrature``): it
maps a (P, n) array of points to their P values, and a scalar function
of one point enters through ``quadrature.pointwise``. The two mean
derivatives

    grad_mu = prec @ E[(x - mu) phi]
    hess_mu = prec @ E[((x - mu)(x - mu)^T - cov) phi] @ prec

come from a single weighted-expectation sweep, which returns the Stein
moment of the Hessian already centred. Every assembly, dense
(``value_and_derivatives``) or factored (``factors.assemble``), returns
them in one ``DerivativeBundle`` with the iterate's covariance. The
precision derivative follows from the paper's relation

    grad_prec = (1/2) cov - (1/2) cov @ hess_mu @ cov

and is built only when read: the hybrid step needs only grad_mu and the
mean Hessian. So is the bundle's predicted decrease, the quadratic-model
loss change -(1/2) g^T I^{-1} g. The direct moment formula for
grad_prec, which criterion 5 compares with this relation, and the
finite-difference validation of all three blocks (``fd_check``) live in
``ngvi.verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .gaussian import MeanCovariance, _logdet_from_chol, cov_of, prec_of
from .kronmat import DimensionError, SymmetricMatrix
from .quadrature import ExpectationRule, expect_scalar, expect_weighted

__all__ = [
    "LossFunctional",
    "DerivativeBundle",
    "value",
    "value_and_derivatives",
]


@dataclass(frozen=True, eq=False)
class LossFunctional:
    """phi(x) = -ln p(x, z), batched over the rows of x."""

    dim: int
    phi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("loss dimension must be a positive integer")


@dataclass(frozen=True, eq=False)
class DerivativeBundle:
    """The derivatives of V at one iterate: the mean gradient, the dense,
    exactly symmetric mean Hessian ``hess`` and the iterate's covariance
    ``cov``. The precision derivative follows from the relation

        grad_prec = (1/2) cov - (1/2) cov @ hess @ cov

    and, like the packed ``hess_mu`` and the ``predicted_decrease``, is
    built on first read: the hybrid step needs none of them, and each
    costs dense products."""

    grad_mu: np.ndarray
    hess: np.ndarray
    cov: np.ndarray

    @cached_property
    def hess_mu(self) -> SymmetricMatrix:
        return SymmetricMatrix.from_full(self.hess)

    @cached_property
    def grad_prec(self) -> SymmetricMatrix:
        grad_prec = 0.5 * self.cov - 0.5 * self.cov @ self.hess @ self.cov
        return SymmetricMatrix.from_full(0.5 * (grad_prec + grad_prec.T))

    @cached_property
    def predicted_decrease(self) -> float:
        """Quadratic-model loss change -(1/2) g^T I^{-1} g in hybrid coordinates.

        The inverse FIM is Sigma on the mean block and 2 P (x) P on the
        precision block (``fim.fim_inverse(q, "alpha")``), so this is
        -(1/2) g_mu^T Sigma g_mu - tr(P G P G) for the precision gradient G.
        Sigma is the bundle's covariance, which the assembly has already
        formed.

        The bundle's G is (1/2) Sigma - (1/2) Sigma H Sigma for its mean
        Hessian H. With P Sigma = I, P G = (1/2)(I - M) for M = H Sigma, so

            tr(P G P G) = (1/4) tr((I - M)^2) = (1/4)(n - 2 tr M + sum(M * M^T)),

        one product where forming G and P G takes three. It is summed as
        (1/4) sum(D * D^T) with D = I - M, which does not cancel as M nears
        I at a fixed point.
        """
        resid = -(self.hess @ self.cov)
        resid[np.diag_indices_from(resid)] += 1.0
        return float(-0.5 * self.grad_mu @ (self.cov @ self.grad_mu) - 0.25 * np.sum(resid * resid.T))


def _check_dims(loss: LossFunctional, q) -> None:
    if loss.dim != q.dim:
        raise DimensionError(f"loss dimension {loss.dim} != Gaussian dimension {q.dim}")


def _logdet_prec(q) -> float:
    """ln|prec| from the form's cached Cholesky factor, which factors the
    covariance of a MeanCovariance and the precision of the other forms."""
    logdet = _logdet_from_chol(q.chol)
    return -logdet if isinstance(q, MeanCovariance) else logdet


def value(loss: LossFunctional, q, rule: ExpectationRule) -> float:
    """E_q[phi] + (1/2) ln |prec|, constants dropped."""
    _check_dims(loss, q)
    return expect_scalar(rule, q, loss.phi) + 0.5 * _logdet_prec(q)


def value_and_derivatives(
    loss: LossFunctional, q, rule: ExpectationRule
) -> tuple[float, DerivativeBundle]:
    """Loss value and derivative bundle from one shared sweep."""
    _check_dims(loss, q)
    scalar, vector, matrix = expect_weighted(rule, q, loss.phi)
    prec = prec_of(q)
    hess = prec @ matrix @ prec
    bundle = DerivativeBundle(prec @ vector, 0.5 * (hess + hess.T), cov_of(q))
    return scalar + 0.5 * _logdet_prec(q), bundle
