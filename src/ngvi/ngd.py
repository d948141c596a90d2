"""Natural-gradient updates and the hybrid fixed-point iteration.

The hybrid step assigns the new precision directly from the mean Hessian
and solves for the mean change against that new precision:

    prec  <-  hess_mu
    prec @ delta_mu = -grad_mu
    mu    <-  mu + step_scale * delta_mu

The precision assignment is never damped; ``step_scale`` applies to the
mean change only. The one Cholesky factorization ``L`` of the new
precision is its definiteness test; its inverse ``W = L^-1``
(``gaussian.tril_inverse``) gives the mean change ``-W^T (W grad_mu)``
and, when the next assembly reads it, the new covariance ``W^T W``, so
no LU factorization runs in the iteration. Dense and factored
assemblies hand the iteration the same ``vloss.DerivativeBundle``: the
step reads its mean gradient and dense mean Hessian, and the predicted
decrease adds its covariance, so each has one formula for every
problem. The canonical and generic
inverse-FIM steps that the paper's evidence compares against live in
``ngvi.verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import MeanPrecision, convert, tril_inverse
from .quadrature import ExpectationRule, default_rule
from .vloss import DerivativeBundle, LossFunctional, value_and_derivatives

__all__ = [
    "ConfigError",
    "IndefiniteHessianError",
    "NgdConfig",
    "TraceRecord",
    "IterationTrace",
    "step_hybrid",
    "optimize",
    "iterate_hybrid",
]


class ConfigError(ValueError):
    """Optimizer configuration violates its invariants."""


class IndefiniteHessianError(RuntimeError):
    """The mean Hessian is not positive definite, or is numerically
    singular, at the current iterate."""

    def __init__(self, message: str, min_eigenvalue: float | None = None, trace=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.trace = trace


@dataclass(frozen=True)
class NgdConfig:
    max_iters: int = 100
    rel_tol: float = 1e-9
    step_scale: float = 1.0
    jitter: float = 0.0
    rule: ExpectationRule | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not 0.0 < self.rel_tol < math.inf:
            raise ConfigError(f"rel_tol must be finite and positive, found {self.rel_tol!r}")
        if not 0.0 < self.step_scale <= 1.0:
            raise ConfigError("step_scale must lie in (0, 1]")
        if not 0.0 <= self.jitter < math.inf:
            raise ConfigError(f"jitter must be finite and nonnegative, found {self.jitter!r}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    value: float
    grad_norm: float
    accepted: bool
    predicted_decrease: float


@dataclass
class IterationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    def __len__(self) -> int:
        return len(self.records)


def _step_hessian(d: DerivativeBundle, jitter: float) -> np.ndarray:
    """The precision the hybrid step assigns: the bundle's mean Hessian,
    plus ``jitter`` on its diagonal; raises on non-finite entries."""
    hess = d.hess
    if jitter:
        hess = hess + jitter * np.eye(hess.shape[0])
    if not np.isfinite(hess).all():
        raise ValueError("mean Hessian contains non-finite entries")
    return hess


def _hybrid_delta(hess: np.ndarray, grad_mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta_mu, lower Cholesky factor of the new precision ``hess``,
    that factor's inverse) of the hybrid update; raises on an indefinite
    or numerically singular ``hess``."""
    # the factorization is the definiteness test and the new iterate's
    # factor; its inverse W gives the mean step as two products
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        raise _hessian_error(hess, "indefinite") from None
    try:
        inv_chol = tril_inverse(chol)
    except np.linalg.LinAlgError:
        raise _hessian_error(hess, "numerically singular") from None
    return -inv_chol.T @ (inv_chol @ grad_mu), chol, inv_chol


def _hessian_error(hess: np.ndarray, what: str) -> IndefiniteHessianError:
    lam = float(np.linalg.eigvalsh(hess).min())
    return IndefiniteHessianError(
        f"mean Hessian is {what} (smallest eigenvalue {lam:.6e})", min_eigenvalue=lam
    )


def step_hybrid(
    q: MeanPrecision,
    d: DerivativeBundle,
    step_scale: float = 1.0,
    jitter: float = 0.0,
) -> MeanPrecision:
    """One hybrid natural-gradient step from the bundle evaluated at q."""
    hess = _step_hessian(d, jitter)
    delta_mu, chol, inv_chol = _hybrid_delta(hess, d.grad_mu)
    return MeanPrecision._from_factor(q.mean + step_scale * delta_mu, hess, chol, inv_chol)


def _predicted_decrease(d: DerivativeBundle) -> float:
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
    resid = -(d.hess @ d.cov)
    resid[np.diag_indices_from(resid)] += 1.0
    return float(-0.5 * d.grad_mu @ (d.cov @ d.grad_mu) - 0.25 * np.sum(resid * resid.T))


def iterate_hybrid(eval_fn, q0, cfg: NgdConfig) -> tuple[MeanPrecision, IterationTrace]:
    """Drive the hybrid update with ``eval_fn(q) -> (value, bundle)``.

    Convergence requires both the relative mean change and the relative
    precision change to fall below rel_tol; the check runs before the
    step is applied, so a restart from a fixed point converges without
    moving. An indefinite or numerically singular Hessian raises
    IndefiniteHessianError carrying the partial trace. Inside the loop the
    precision stays the dense array the bundle's Hessian is; each new
    iterate keeps it, its Cholesky factor and that factor's inverse, and
    packs it into a half vector once.
    """
    q = convert(q0, "mean_prec")
    trace = IterationTrace()
    prev_value: float | None = None
    for k in range(cfg.max_iters + 1):
        value_k, bundle = eval_fn(q)
        hess = _step_hessian(bundle, cfg.jitter)
        # before the step, so that its products and the step's new factor
        # and inverse are not held at once
        predicted = _predicted_decrease(bundle)
        try:
            delta_mu, chol, inv_chol = _hybrid_delta(hess, bundle.grad_mu)
        except IndefiniteHessianError as exc:
            exc.trace = trace
            raise
        accepted = prev_value is None or value_k <= prev_value + 1e-12 * max(
            1.0, abs(prev_value)
        )
        trace.records.append(
            TraceRecord(
                iteration=k,
                value=value_k,
                grad_norm=float(np.linalg.norm(bundle.grad_mu)),
                accepted=accepted,
                predicted_decrease=predicted,
            )
        )
        prec_old = q.precision
        rel_mu = float(np.linalg.norm(cfg.step_scale * delta_mu)) / max(
            1.0, float(np.linalg.norm(q.mean))
        )
        rel_prec = float(np.linalg.norm(hess - prec_old)) / float(np.linalg.norm(prec_old))
        if rel_mu < cfg.rel_tol and rel_prec < cfg.rel_tol:
            trace.converged = True
            break
        if k == cfg.max_iters:
            break
        q = MeanPrecision._from_factor(q.mean + cfg.step_scale * delta_mu, hess, chol, inv_chol)
        # the iterate alone holds the inverse factor, until its covariance
        # is formed from it
        del inv_chol
        prev_value = value_k
    return q, trace


def optimize(loss: LossFunctional, q0, cfg: NgdConfig) -> tuple[MeanPrecision, IterationTrace]:
    """Iterate the hybrid update on an unfactored loss until convergence."""
    rule = cfg.rule if cfg.rule is not None else default_rule(loss.dim)

    def eval_fn(q):
        return value_and_derivatives(loss, q, rule)

    return iterate_hybrid(eval_fn, q0, cfg)
