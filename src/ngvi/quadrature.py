"""Expectation engine: Gauss-Hermite tensor grids and Monte Carlo.

Computes E_q[f(x)], the weighted moment E_q[(x - mu) f] and the Stein
moment E_q[((x - mu)(x - mu)^T - Sigma) f] from one shared sweep of
evaluation points. The mean Hessian of E_q[phi] is Sigma^-1 times the
Stein moment of phi times Sigma^-1, so no caller centres it again.

Integrands are batched: ``f(X)`` takes the (P, d) array of a Gaussian's
evaluation points and returns their P values as a (P,) array. A scalar
function of one point is adapted with ``pointwise``. Anything of another
shape is refused rather than broadcast.

Points are whitened: x = mu + L z, with L the Cholesky factor of the
covariance and z standard nodes shared by every Gaussian of one
dimension: sqrt(2) xi on the Gauss-Hermite tensor grid, whose pi
normalization is folded into the weights so they sum to 1 exactly, or
the rule's seeded standard normal draws. A sweep reads its node table:
the nodes z (P, d), their weights and the pairwise products z_i z_j
(P, d*d), built once per Gauss-Hermite order and dimension.

``expect_weighted`` sweeps K Gaussians of one dimension at once, one
integrand each; a single Gaussian is its K = 1 case. The points of all
K come from one GEMM (``gaussian._affine``). With w the weighted values
(K, P), the whitened moments are two more GEMMs, E[z f] = w @ z and
E[z z^T f] = w @ zz. The Stein moment is centred there, where the
identity is exact: E[f] comes off the diagonal of E[z z^T f]. The
x-space moments it returns are L E[z f] and L E[(z z^T - I) f] L^T.

A factor built by ``factors.Factor.gaussian`` is never swept here: its
expectations have a closed form, which ``ngvi.factors`` takes under every
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gaussian
from .gaussian import mean_of

__all__ = [
    "POINT_BUDGET",
    "ExpectationRule",
    "EvaluationError",
    "IntegrandShapeError",
    "default_rule",
    "expect_scalar",
    "expect_weighted",
    "pointwise",
]

_KINDS = ("gauss_hermite", "monte_carlo")

# Largest Gauss-Hermite tensor grid a sweep may build, in points.
POINT_BUDGET = 1_000_000


class EvaluationError(RuntimeError):
    """The integrand returned a non-finite value at an evaluation point."""

    def __init__(self, message: str, node: np.ndarray):
        super().__init__(message)
        self.node = node


class IntegrandShapeError(ValueError):
    """A batched integrand returned values of a shape other than (P,)."""


@dataclass(frozen=True)
class ExpectationRule:
    """Quadrature or Monte Carlo scheme for Gaussian expectations.

    ``order`` is points per dimension for gauss_hermite and total sample
    count for monte_carlo. The tensor grid must stay within
    ``POINT_BUDGET``; ``seed`` keys the Monte Carlo draws and must be
    non-negative.
    """

    kind: str = "gauss_hermite"
    order: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "gauss_hermite" and not 1 <= self.order <= 20:
            raise ValueError("gauss_hermite order must be in [1, 20]")
        if self.kind == "monte_carlo" and self.order < 1:
            raise ValueError("monte_carlo sample count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, found {self.seed!r}")


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


def _n_points(rule: ExpectationRule, dim: int) -> int:
    """Evaluation points per Gaussian of dimension ``dim`` under the rule."""
    return rule.order if rule.kind == "monte_carlo" else rule.order**dim


def _pairwise(z: np.ndarray) -> np.ndarray:
    """The products z_i z_j of every node, (P, d * d)."""
    return (z[:, :, None] * z[:, None, :]).reshape(z.shape[0], -1)


@lru_cache(maxsize=None)
def _gh_table(order: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Hermite grid with its pairwise products, built once per
    (order, dim); all three arrays are read-only."""
    z, weights = _gh_grid(order, dim)
    zz = _pairwise(z)
    zz.setflags(write=False)
    return z, weights, zz


def _node_table(rule: ExpectationRule, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard nodes z (P, dim), probability weights summing to 1 and the
    pairwise products z_i z_j (P, dim * dim); a Gaussian's points are
    mu + z L^T. Monte Carlo draws are made again on every call, so
    that no seed's table outlives its sweep."""
    count = _n_points(rule, dim)
    if rule.kind == "monte_carlo":
        z = gaussian._standard_draws(count, dim, rule.seed)
        return z, np.full(count, 1.0 / count), _pairwise(z)
    if count > POINT_BUDGET:
        raise ValueError(f"tensor grid of {rule.order}^{dim} points exceeds budget {POINT_BUDGET}")
    return _gh_table(rule.order, dim)


def pointwise(fn):
    """The batched form of a scalar integrand ``fn(x) -> float``: one call per point."""
    return lambda points: np.array([fn(x) for x in points], dtype=float)


def _as_values(values, count: int) -> np.ndarray:
    """The (count,) values of one batched call; any other shape raises."""
    shape = np.shape(values)
    if shape != (count,):
        raise IntegrandShapeError(
            f"integrand returned values of shape {shape} for {count} points, expected "
            f"({count},); wrap a scalar integrand in ngvi.quadrature.pointwise"
        )
    return values


def _evaluate(fs, points: np.ndarray) -> np.ndarray:
    """Values (K, P): integrand k called once on its Gaussian's points
    (P, d). The first non-finite value, in integrand then point order,
    raises with its node."""
    values = np.empty(points.shape[:2])
    for k, f in enumerate(fs):
        values[k] = _as_values(f(points[k]), values.shape[1])
    if not np.isfinite(values).all():
        k, i = np.unravel_index(np.flatnonzero(~np.isfinite(values))[0], values.shape)
        x = points[k, i]
        raise EvaluationError(f"integrand returned {values[k, i]!r} at node {x.tolist()}", node=x.copy())
    return values


def expect_scalar(rule: ExpectationRule, g, f) -> float:
    """E_q[f(x)] under the given rule: the scalar slot of ``expect_weighted``."""
    return expect_weighted(rule, g, f)[0]


def expect_weighted(rule: ExpectationRule, g, f):
    """(E[f], E[(x - mu) f], E[((x - mu)(x - mu)^T - Sigma) f]) from one shared sweep.

    ``g`` is a Gaussian in any form or a pair (mean, lower Cholesky factor
    of the covariance), and ``f`` one batched integrand; the result is
    (float, (d,), (d, d)). The stacked form takes a pair of K means
    (K, d) and factors (K, d, d) and a sequence of K integrands, one per
    Gaussian, and returns the three moments stacked: (K,), (K, d),
    (K, d, d). This is how the factored assembly sweeps a group of factor
    marginals at once without building any of them. The matrix moment,
    L E[(z z^T - I) f] L^T, is symmetrized on output.
    """
    if callable(f):
        mu, chol = _mean_and_chol(g)
        scalar, vector, matrix = expect_weighted(rule, (mu[None], chol[None]), (f,))
        return float(scalar[0]), vector[0], matrix[0]
    means, chols = g
    count, dim = means.shape
    z, weights, zz = _node_table(rule, dim)
    values = _evaluate(f, gaussian._affine(means, chols, z))
    scalar = values @ weights
    weighted = values * weights
    vector = np.einsum("kij,kj->ki", chols, weighted @ z)
    whitened = (weighted @ zz).reshape(count, dim, dim)
    whitened[:, np.arange(dim), np.arange(dim)] -= scalar[:, None]
    matrix = chols @ whitened @ np.swapaxes(chols, 1, 2)
    matrix = 0.5 * (matrix + np.swapaxes(matrix, 1, 2))
    return scalar, vector, matrix
