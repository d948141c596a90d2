"""Factored loss functionals and the sparsity-preserving hybrid update.

Each factor touches a subset of the variables through an index list (the
projection); per-factor derivatives are evaluated over the factor's
exact marginal and scatter-added into the global gradient and mean
Hessian. Every marginal of one iteration is sliced from a single
covariance, the inverse of the iterate's precision. The assembly returns
the same ``vloss.DerivativeBundle`` as the dense path: the gradient, the
dense mean Hessian and that covariance, from which the bundle derives the
precision derivative when it is read. Because the Hessian only ever
receives within-factor blocks, the precision support stays inside the
factor-induced pattern at every iteration, and the optimizer asserts
exactly that.

A factor's ``local_phi`` is a batched integrand (see ``ngvi.quadrature``):
it maps the (P, d) evaluation points of its marginal to their P values.
The assembly groups factors by arity, and each group records its
distinct blocks (ordered index tuples; factors over the same tuple share
one) once per graph. Per iteration and group it takes one stacked slice
of the distinct blocks, one batched Cholesky factorization and inverse,
and then sweeps the factors in chunks of at most ``CHUNK_POINTS`` points,
one ``expect_weighted`` call per chunk that calls each factor's
``local_phi`` once. The derivatives are linear in phi, so the moments
are summed per block and mapped to derivatives once per block:
prec E[((x - mu)(x - mu)^T - Sigma) phi] prec for the Hessian and
prec E[(x - mu) phi] for the gradient. One scatter per iteration adds
every block into the global gradient and Hessian.

Precision matrices are stored densely at desk scale; the sparsity claim
is about the pattern of stored nonzeros, which is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .gaussian import (
    MeanCovariance,
    MeanPrecision,
    NotPositiveDefiniteError,
    _chol,
    _logdet_from_chol,
    convert,
)
from .kronmat import DimensionError, SymmetricMatrix, _vech_indices, _vech_position, half_len
from .ngd import IterationTrace, NgdConfig, iterate_hybrid
from .quadrature import (
    EvaluationError,
    ExpectationRule,
    IntegrandShapeError,
    _as_values,
    default_rule,
    expect_weighted,
    _n_points,
)
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
    "CHUNK_POINTS",
]

# Evaluation points per batched sweep of a group of equal-arity factors.
# It bounds the stacked node arrays, so memory does not grow with the
# graph; chunks of 4096 to 16384 points sweep equally fast.
CHUNK_POINTS = 8192


class SparsityError(RuntimeError):
    """A precision matrix has nonzeros outside the factor-induced pattern."""


@dataclass(frozen=True, eq=False)
class Factor:
    """A loss term over the sub-vector selected by ``indices``; its batched
    ``local_phi`` maps (P, len(indices)) points to their P values."""

    id: str
    indices: tuple[int, ...]
    local_phi: Callable[[np.ndarray], np.ndarray]

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

    @cached_property
    def _groups(self) -> tuple["_Group", ...]:
        """The factors grouped by arity, groups in order of first
        appearance and factors in graph order; built once per graph, on
        first use."""
        groups: dict[int, list[Factor]] = {}
        for f in self.factors:
            groups.setdefault(len(f.indices), []).append(f)
        out = []
        for fs in groups.values():
            indices = np.array([f.indices for f in fs], dtype=np.intp)
            blocks, block_of = np.unique(indices, axis=0, return_inverse=True)
            out.append(_Group(tuple(fs), blocks, block_of.reshape(-1)))
        return tuple(out)

    @cached_property
    def _scatter_index(self) -> np.ndarray:
        """Flat positions, in the concatenation of the gradient (n) and the
        row-major Hessian (n * n), of every group's block gradients then
        every group's block Hessians: the one scatter of an assembly."""
        n = self.dim
        grads = [g.blocks.ravel() for g in self._groups]
        hessians = [n + (g.blocks[:, :, None] * n + g.blocks[:, None, :]).ravel() for g in self._groups]
        return np.concatenate(grads + hessians) if grads else np.zeros(0, dtype=np.intp)


class _Group(NamedTuple):
    """Factors of one arity and their distinct blocks."""

    factors: tuple[Factor, ...]
    # (B, d) distinct ordered index tuples, sorted
    blocks: np.ndarray
    # (K,) the block of each factor
    block_of: np.ndarray


def sparsity_pattern(graph: FactorGraph) -> frozenset[tuple[int, int]]:
    """Lower-triangle (i, j) pairs, i >= j, that factors may populate.

    The diagonal is always present.
    """
    rows, cols = _vech_indices(graph.dim)
    allowed = _pattern_mask(graph)
    return frozenset(zip(rows[allowed].tolist(), cols[allowed].tolist()))


def _pattern_mask(graph: FactorGraph) -> np.ndarray:
    """The pattern as a mask over the half vector, from the groups' blocks."""
    n = graph.dim
    allowed = np.zeros(half_len(n), dtype=bool)
    diagonal = np.arange(n)
    allowed[_vech_position(diagonal, diagonal, n)] = True
    for group in graph._groups:
        r, c = np.broadcast_arrays(group.blocks[:, :, None], group.blocks[:, None, :])
        lower = r >= c
        allowed[_vech_position(r[lower], c[lower], n)] = True
    return allowed


def pattern_violations(
    prec: SymmetricMatrix, pattern: frozenset[tuple[int, int]] | np.ndarray
) -> set[tuple[int, int]]:
    """Stored nonzeros of a precision half-vector lying outside the pattern:
    a set of (i, j) pairs, or the boolean half-vector mask of its allowed
    entries, which the optimizer builds once per solve."""
    n = prec.dim
    allowed = pattern
    if not isinstance(pattern, np.ndarray):
        pairs = np.array(list(pattern), dtype=np.intp).reshape(-1, 2)
        r, c = pairs[:, 0], pairs[:, 1]
        # pairs off the stored lower triangle can match no stored entry
        stored = (c >= 0) & (r >= c) & (r < n)
        allowed = np.zeros(half_len(n), dtype=bool)
        allowed[_vech_position(r[stored], c[stored], n)] = True
    bad = np.flatnonzero((prec.half != 0.0) & ~allowed)
    rows, cols = _vech_indices(n)
    return set(zip(rows[bad].tolist(), cols[bad].tolist()))


def extract_marginal(q, indices) -> MeanCovariance:
    """Exact marginal over the given indices, via a dense solve for the
    needed covariance columns.

    This is the public one-off form; the optimizer does not call it, but
    slices every factor's block from one covariance per iteration.
    """
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
    """Loss value and derivative bundle by per-factor marginal expectations.

    The marginals are blocks of the iterate's one covariance, and
    ln|prec| comes from its cached factor. Per arity group, each distinct
    block is sliced, factored and inverted once, each chunk of factors is
    swept by one ``expect_weighted`` call, and the moments are summed per
    block before the one map to derivatives (they are linear in phi).
    Every group's block derivatives then go into one scatter. The bundle
    carries the covariance the marginals were sliced from.
    """
    q = convert(q, "mean_prec")
    n = graph.dim
    try:
        sigma = q.covariance
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "the iterate's precision is singular: it has a Cholesky factor but no inverse"
        ) from None
    grads, hessians = [], []
    total = 0.0
    try:
        for group in graph._groups:
            blocks, block_of = group.blocks, group.block_of
            count, dim = blocks.shape
            cov = sigma[blocks[:, :, None], blocks[:, None, :]]
            chol = np.linalg.cholesky(cov)
            # L L^T rather than the sliced block: the centring below must use
            # the factor the moments were formed with, or the rounding gap
            # between the two adds up over every factor of a block
            outer = chol @ np.swapaxes(chol, 1, 2)
            prec = np.linalg.inv(cov)
            prec = 0.5 * (prec + np.swapaxes(prec, 1, 2))
            mean = q.mean[blocks]
            moments = []
            per_chunk = max(1, CHUNK_POINTS // _n_points(rule, dim))
            for start in range(0, len(group.factors), per_chunk):
                at = block_of[start : start + per_chunk]
                phis = [f.local_phi for f in group.factors[start : start + per_chunk]]
                scalar, vector, matrix = expect_weighted(rule, (mean[at], chol[at]), phis)
                # L E[(z z^T - I) f] L^T per factor: a factor's Hessian is a small
                # difference of two large terms, and a block sum taken before
                # that difference would lose its digits
                centred = matrix - scalar[:, None, None] * outer[at]
                moments.append(np.column_stack([scalar, vector, centred.reshape(len(at), -1)]))
            width = 1 + dim + dim * dim
            slots = (block_of[:, None] * width + np.arange(width)).ravel()
            sums = np.bincount(slots, np.concatenate(moments).ravel(), count * width)
            sums = sums.reshape(count, width)
            scalar, vector = sums[:, 0], sums[:, 1 : 1 + dim]
            matrix = sums[:, 1 + dim :].reshape(count, dim, dim)
            hess = prec @ matrix @ prec
            grads.append(np.einsum("kij,kj->ki", prec, vector).ravel())
            hessians.append((0.5 * (hess + np.swapaxes(hess, 1, 2))).ravel())
            total += float(scalar.sum())
    except (np.linalg.LinAlgError, EvaluationError, IntegrandShapeError):
        _raise_first_failure(graph, q.mean, sigma, rule)
        raise
    values = np.concatenate(grads + hessians) if grads else np.zeros(0)
    flat = np.bincount(graph._scatter_index, values, n + n * n)
    # every block is exactly symmetric and (i, j) and (j, i) receive its
    # equal entries in the same order, so the Hessian is exactly symmetric
    bundle = DerivativeBundle(flat[:n], flat[n:].reshape(n, n), sigma)
    return total + 0.5 * _logdet_from_chol(q.chol), bundle


def _raise_first_failure(
    graph: FactorGraph, mean: np.ndarray, sigma: np.ndarray, rule: ExpectationRule
) -> None:
    """Sweep factor by factor in graph order and raise what the first
    failing factor raises, with the factor named: a batch can fail at a
    factor that another group's factor precedes."""
    for f in graph.factors:
        idx = np.array(f.indices, dtype=np.intp)
        chol = _chol(sigma[np.ix_(idx, idx)], f"marginal covariance of factor {f.id!r}")
        try:
            expect_weighted(rule, (mean[idx], chol), f.local_phi)
        except IntegrandShapeError as exc:
            raise IntegrandShapeError(f"factor {f.id!r}: {exc}") from None


def assemble(graph: FactorGraph, q, rule: ExpectationRule) -> DerivativeBundle:
    """Global derivative bundle scatter-added from per-factor derivatives."""
    return _assemble(graph, q, rule)[1]


def total_phi(graph: FactorGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The summed loss over all factors as a batched integrand of the full
    vector: (P, n) points to their P values."""

    def phi(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[0])
        for f in graph.factors:
            try:
                total += _as_values(f.local_phi(x[:, list(f.indices)]), x.shape[0])
            except IntegrandShapeError as exc:
                raise IntegrandShapeError(f"factor {f.id!r}: {exc}") from None
        return total

    return phi


def as_loss(graph: FactorGraph) -> LossFunctional:
    return LossFunctional(graph.dim, total_phi(graph))


def optimize_factored(
    graph: FactorGraph, q0: MeanPrecision, cfg: NgdConfig
) -> tuple[MeanPrecision, IterationTrace]:
    """Hybrid iteration with per-iteration sparsity-pattern assertion.

    A graph with no factors is refused: its loss is the entropy term
    (1/2) ln|prec| alone, which is unbounded below and has no optimum.
    """
    if not graph.factors:
        raise ValueError(
            "factor graph has no factors: the loss (1/2) ln|prec| is unbounded below"
        )
    rule = cfg.rule if cfg.rule is not None else default_rule(
        max(len(f.indices) for f in graph.factors)
    )
    q0 = convert(q0, "mean_prec")
    if q0.dim != graph.dim:
        raise DimensionError(f"initial dimension {q0.dim} != graph dimension {graph.dim}")
    pattern = _pattern_mask(graph)

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
