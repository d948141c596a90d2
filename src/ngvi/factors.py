"""Factored loss functionals and the sparsity-preserving hybrid update.

Each factor touches a subset of the variables through an index list (the
projection); per-factor derivatives are evaluated over the factor's
exact marginal and scatter-added into the global gradient and mean
Hessian. Because the Hessian only ever receives within-factor blocks,
the precision support stays inside the factor-induced pattern at every
iteration, and the optimizer asserts exactly that.

Precision matrices are stored densely at desk scale; the sparsity claim
is about the pattern of stored nonzeros, which is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import MeanCovariance, MeanPrecision, convert
from .kronmat import DimensionError, SymmetricMatrix, _vech_indices
from .ngd import IterationTrace, NgdConfig, iterate_hybrid
from .quadrature import ExpectationRule, default_rule, expect_weighted
from .vloss import DerivativeBundle, LossFunctional

__all__ = [
    "Factor",
    "FactorGraph",
    "SparsityError",
    "sparsity_pattern",
    "pattern_violations",
    "extract_marginal",
    "assemble",
    "total_phi",
    "as_loss",
    "optimize_factored",
]


class SparsityError(RuntimeError):
    """A precision matrix has nonzeros outside the factor-induced pattern."""


@dataclass(frozen=True, eq=False)
class Factor:
    """A loss term over the sub-vector selected by ``indices``."""

    id: str
    indices: tuple[int, ...]
    local_phi: Callable[[np.ndarray], float]

    def __post_init__(self) -> None:
        indices = tuple(int(i) for i in self.indices)
        if not indices:
            raise ValueError(f"factor {self.id!r} has no variable indices")
        if len(set(indices)) != len(indices):
            raise ValueError(f"factor {self.id!r} has repeated variable indices")
        if min(indices) < 0:
            raise ValueError(f"factor {self.id!r} has a negative variable index")
        object.__setattr__(self, "indices", indices)


@dataclass(frozen=True, eq=False)
class FactorGraph:
    dim: int
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("graph dimension must be a positive integer")
        factors = tuple(self.factors)
        for f in factors:
            if max(f.indices) >= self.dim:
                raise ValueError(
                    f"factor {f.id!r} references index {max(f.indices)} "
                    f"but the graph dimension is {self.dim}"
                )
        object.__setattr__(self, "factors", factors)


def sparsity_pattern(graph: FactorGraph) -> frozenset[tuple[int, int]]:
    """Lower-triangle (i, j) pairs, i >= j, that factors may populate.

    The diagonal is always present.
    """
    pattern = {(i, i) for i in range(graph.dim)}
    for f in graph.factors:
        for a in f.indices:
            for b in f.indices:
                if a >= b:
                    pattern.add((a, b))
    return frozenset(pattern)


def pattern_violations(
    prec: SymmetricMatrix, pattern: frozenset[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Stored nonzeros of a precision half-vector lying outside the pattern."""
    rows, cols = _vech_indices(prec.dim)
    out = set()
    for r, c, v in zip(rows, cols, prec.half):
        if v != 0.0 and (int(r), int(c)) not in pattern:
            out.add((int(r), int(c)))
    return out


def extract_marginal(q, indices) -> MeanCovariance:
    """Exact marginal over the given indices, via a dense solve for the
    needed covariance columns."""
    q = convert(q, "mean_prec")
    idx = [int(i) for i in indices]
    if any(i < 0 or i >= q.dim for i in idx):
        raise ValueError(f"marginal indices {idx} out of range for dimension {q.dim}")
    prec = q.prec.full()
    rhs = np.zeros((q.dim, len(idx)))
    for col, i in enumerate(idx):
        rhs[i, col] = 1.0
    cols = np.linalg.solve(prec, rhs)
    sub = cols[idx, :]
    sub = 0.5 * (sub + sub.T)
    return MeanCovariance.from_dense(q.mean[idx], sub)


def _assemble(graph: FactorGraph, q, rule: ExpectationRule) -> tuple[float, DerivativeBundle]:
    """Loss value and derivative bundle by per-factor marginal expectations."""
    q = convert(q, "mean_prec")
    n = graph.dim
    grad_mu = np.zeros(n)
    hess_mu = np.zeros((n, n))
    total = 0.0
    for f in graph.factors:
        idx = list(f.indices)
        marginal = extract_marginal(q, idx)
        prec_k = np.linalg.inv(marginal.cov.full())
        prec_k = 0.5 * (prec_k + prec_k.T)
        scalar, vector, matrix = expect_weighted(rule, marginal, f.local_phi)
        local_grad = prec_k @ vector
        local_hess = prec_k @ matrix @ prec_k - prec_k * scalar
        local_hess = 0.5 * (local_hess + local_hess.T)
        grad_mu[idx] += local_grad
        hess_mu[np.ix_(idx, idx)] += local_hess
        total += scalar
    sign, logdet_prec = np.linalg.slogdet(q.prec.full())
    sigma = np.linalg.inv(q.prec.full())
    sigma = 0.5 * (sigma + sigma.T)
    grad_prec = 0.5 * sigma - 0.5 * sigma @ hess_mu @ sigma
    grad_prec = 0.5 * (grad_prec + grad_prec.T)
    bundle = DerivativeBundle(
        grad_mu,
        SymmetricMatrix.from_full(hess_mu),
        SymmetricMatrix.from_full(grad_prec),
    )
    return total + 0.5 * float(logdet_prec), bundle


def assemble(graph: FactorGraph, q, rule: ExpectationRule) -> DerivativeBundle:
    """Global derivative bundle scatter-added from per-factor derivatives."""
    return _assemble(graph, q, rule)[1]


def total_phi(graph: FactorGraph) -> Callable[[np.ndarray], float]:
    """The summed loss over all factors, as a function of the full vector."""

    def phi(x: np.ndarray) -> float:
        return sum(f.local_phi(np.asarray(x, dtype=float)[list(f.indices)]) for f in graph.factors)

    return phi


def as_loss(graph: FactorGraph) -> LossFunctional:
    return LossFunctional(graph.dim, total_phi(graph), factorization=graph)


def optimize_factored(
    graph: FactorGraph, q0: MeanPrecision, cfg: NgdConfig
) -> tuple[MeanPrecision, IterationTrace]:
    """Hybrid iteration with per-iteration sparsity-pattern assertion."""
    rule = cfg.rule if cfg.rule is not None else default_rule(
        max(len(f.indices) for f in graph.factors)
    )
    q0 = convert(q0, "mean_prec")
    if q0.dim != graph.dim:
        raise DimensionError(f"initial dimension {q0.dim} != graph dimension {graph.dim}")
    pattern = sparsity_pattern(graph)

    def check_pattern(q: MeanPrecision) -> None:
        bad = pattern_violations(q.prec, pattern)
        if bad:
            raise SparsityError(
                f"precision has nonzeros outside the factor pattern at {sorted(bad)}"
            )

    check_pattern(q0)

    def eval_fn(q):
        return _assemble(graph, q, rule)

    return iterate_hybrid(eval_fn, q0, cfg, post_step=check_pattern)
