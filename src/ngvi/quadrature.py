"""Expectation engine: Gauss-Hermite tensor grids and Monte Carlo.

Computes E_q[f(x)] and the weighted moments E_q[(x - mu) f] and
E_q[(x - mu)(x - mu)^T f] from one shared sweep of evaluation points.

Gauss-Hermite nodes are whitened: x = mu + L (sqrt(2) xi) with L the
Cholesky factor of the covariance, and the pi normalization is folded
into the weights so they sum to 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gaussian
from .gaussian import mean_of

__all__ = ["ExpectationRule", "EvaluationError", "default_rule", "expect_scalar", "expect_weighted"]

_KINDS = ("gauss_hermite", "monte_carlo")


class EvaluationError(RuntimeError):
    """The integrand returned a non-finite value at an evaluation point."""

    def __init__(self, message: str, node: np.ndarray):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class ExpectationRule:
    """Quadrature or Monte Carlo scheme for Gaussian expectations.

    ``order`` is points per dimension for gauss_hermite and total sample
    count for monte_carlo. The tensor grid must stay within point_budget.
    """

    kind: str = "gauss_hermite"
    order: int = 5
    seed: int = 0
    point_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "gauss_hermite" and not 1 <= self.order <= 20:
            raise ValueError("gauss_hermite order must be in [1, 20]")
        if self.kind == "monte_carlo" and self.order < 1:
            raise ValueError("monte_carlo sample count must be positive")
        if self.point_budget < 1:
            raise ValueError("point budget must be positive")


def default_rule(dim: int) -> ExpectationRule:
    """Order-5 tensor Gauss-Hermite up to 6 dims, Monte Carlo beyond."""
    if dim <= 6:
        return ExpectationRule("gauss_hermite", 5)
    return ExpectationRule("monte_carlo", 10_000)


@lru_cache(maxsize=None)
def _gh_grid(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes sqrt(2) xi of shape (order^dim, dim) and weights summing
    to 1, built once per (order, dim); both arrays are read-only."""
    xi, wi = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([xi] * dim), indexing="ij")
    nodes = np.stack([grid.reshape(-1) for grid in grids], axis=1)
    wgrids = np.meshgrid(*([wi] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wgrid in wgrids:
        weights = weights * wgrid.reshape(-1)
    weights = weights / weights.sum()
    nodes = np.sqrt(2.0) * nodes
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _mean_and_chol(g) -> tuple[np.ndarray, np.ndarray]:
    """Mean and lower Cholesky factor of the covariance of ``g``: a Gaussian
    in any form, or such a (mean, factor) pair passed through as is."""
    if isinstance(g, tuple):
        return g
    return mean_of(g), gaussian._cov_chol(g)


def _evaluation_points(
    rule: ExpectationRule, mu: np.ndarray, chol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation points (n_pts, dim) and probability weights summing to 1."""
    n = mu.shape[0]
    if rule.kind == "monte_carlo":
        points = gaussian._draw(mu, chol, rule.order, rule.seed)
        weights = np.full(rule.order, 1.0 / rule.order)
        return points, weights
    if rule.order**n > rule.point_budget:
        raise ValueError(
            f"tensor grid of {rule.order}^{n} points exceeds budget {rule.point_budget}"
        )
    nodes, weights = _gh_grid(rule.order, n)
    return mu + nodes @ chol.T, weights


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    values = np.empty(points.shape[0])
    for i, x in enumerate(points):
        values[i] = f(x)
        if not math.isfinite(values[i]):
            raise EvaluationError(
                f"integrand returned {values[i]!r} at node {x.tolist()}", node=x.copy()
            )
    return values


def expect_scalar(rule: ExpectationRule, g, f) -> float:
    """E_q[f(x)] under the given rule."""
    points, weights = _evaluation_points(rule, *_mean_and_chol(g))
    return float(weights @ _evaluate(f, points))


def expect_weighted(rule: ExpectationRule, g, f) -> tuple[float, np.ndarray, np.ndarray]:
    """(E[f], E[(x - mu) f], E[(x - mu)(x - mu)^T f]) from one shared sweep.

    The scalar slot is computed exactly as ``expect_scalar`` would, so the
    two agree bit for bit under the same rule. The matrix moment is
    symmetrized on output. ``g`` is a Gaussian in any form, or a pair
    (mean, lower Cholesky factor of the covariance), which is how the
    factored assembly passes each factor's marginal without building one.
    """
    mu, chol = _mean_and_chol(g)
    points, weights = _evaluation_points(rule, mu, chol)
    values = _evaluate(f, points)
    scalar = float(weights @ values)
    centered = points - mu
    weighted = weights * values
    vector = centered.T @ weighted
    matrix = (centered * weighted[:, None]).T @ centered
    matrix = 0.5 * (matrix + matrix.T)
    return scalar, vector, matrix
