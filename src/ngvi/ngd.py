"""Natural-gradient updates and the hybrid fixed-point iteration.

The hybrid step assigns the new precision directly from the mean Hessian
and solves for the mean change against that new precision:

    prec  <-  hess_mu
    prec @ delta_mu = -grad_mu
    mu    <-  mu + step_scale * delta_mu

The precision assignment is never damped; ``step_scale`` applies to the
mean change only. The canonical and generic inverse-FIM steps that the
paper's evidence compares against live in ``ngvi.verify``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import MeanPrecision, convert, cov_of
from .kronmat import SymmetricMatrix
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
    """The mean Hessian is not positive definite at the current iterate."""

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
    mean: np.ndarray
    prec_fingerprint: str
    accepted: bool
    predicted_decrease: float


@dataclass
class IterationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    def __len__(self) -> int:
        return len(self.records)


def _fingerprint(half: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(half).tobytes()).hexdigest()[:16]


def _hybrid_delta(d: DerivativeBundle, jitter: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(delta_mu, new precision) of the hybrid update; raises on indefiniteness."""
    hess = d.hess_mu.full()
    if jitter:
        hess = hess + jitter * np.eye(hess.shape[0])
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(hess).min())
        raise IndefiniteHessianError(
            f"mean Hessian is indefinite (smallest eigenvalue {lam:.6e})",
            min_eigenvalue=lam,
        ) from None
    delta_mu = -np.linalg.solve(chol.T, np.linalg.solve(chol, d.grad_mu))
    return delta_mu, hess


def step_hybrid(
    q: MeanPrecision, d: DerivativeBundle, step_scale: float = 1.0, jitter: float = 0.0
) -> MeanPrecision:
    """One hybrid natural-gradient step from the bundle evaluated at q."""
    delta_mu, hess = _hybrid_delta(d, jitter)
    return MeanPrecision(q.mean + step_scale * delta_mu, SymmetricMatrix.from_full(hess))


def _predicted_decrease(q, d: DerivativeBundle) -> float:
    """Quadratic-model loss change -(1/2) g^T I^{-1} g in hybrid coordinates."""
    sigma = cov_of(q)
    grad_prec = d.grad_prec.full()
    prod = sigma @ grad_prec
    return float(-0.5 * d.grad_mu @ (sigma @ d.grad_mu) - np.trace(prod @ prod))


def iterate_hybrid(eval_fn, q0, cfg: NgdConfig, post_step=None) -> tuple[MeanPrecision, IterationTrace]:
    """Drive the hybrid update with ``eval_fn(q) -> (value, bundle)``.

    Convergence requires both the relative mean change and the relative
    precision change to fall below rel_tol; the check runs before the
    step is applied, so a restart from a fixed point converges without
    moving. An indefinite Hessian raises IndefiniteHessianError carrying
    the partial trace.
    """
    q = convert(q0, "mean_prec")
    trace = IterationTrace()
    prev_value: float | None = None
    for k in range(cfg.max_iters + 1):
        value_k, bundle = eval_fn(q)
        try:
            delta_mu, hess = _hybrid_delta(bundle, cfg.jitter)
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
                mean=q.mean.copy(),
                prec_fingerprint=_fingerprint(q.prec.half),
                accepted=accepted,
                predicted_decrease=_predicted_decrease(q, bundle),
            )
        )
        prec_old = q.prec.full()
        rel_mu = float(np.linalg.norm(cfg.step_scale * delta_mu)) / max(
            1.0, float(np.linalg.norm(q.mean))
        )
        rel_prec = float(np.linalg.norm(hess - prec_old)) / float(np.linalg.norm(prec_old))
        if rel_mu < cfg.rel_tol and rel_prec < cfg.rel_tol:
            trace.converged = True
            break
        if k == cfg.max_iters:
            break
        q = MeanPrecision(
            q.mean + cfg.step_scale * delta_mu, SymmetricMatrix.from_full(hess)
        )
        if post_step is not None:
            post_step(q)
        prev_value = value_k
    return q, trace


def optimize(loss: LossFunctional, q0, cfg: NgdConfig) -> tuple[MeanPrecision, IterationTrace]:
    """Iterate the hybrid update on an unfactored loss until convergence."""
    rule = cfg.rule if cfg.rule is not None else default_rule(loss.dim)

    def eval_fn(q):
        return value_and_derivatives(loss, q, rule)

    return iterate_hybrid(eval_fn, q0, cfg)
