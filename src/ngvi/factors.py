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
prec E[((x - mu)(x - mu)^T - Sigma) phi] prec for the Hessian, from the
Stein moment the sweep returns centred, and prec E[(x - mu) phi] for the
gradient. One scatter per iteration adds every block into the global
gradient and Hessian.

A Gaussian factor, built by ``Factor.gaussian`` as 0.5 (u - m)^T P (u - m),
has these expectations in closed form: the value 0.5 r^T P r +
0.5 tr(P Sigma_k) for r = mu_k - m, the gradient P r and the constant
Hessian P. These are the exact expectations, so under every rule the
graph's Gaussian factors are stacked per arity once and integrated in
closed form, and their ``local_phi`` is not called. A rule exact to degree
4 in z (Gauss-Hermite of order 3 or more) would sweep them to the same
numbers up to rounding; a lower order or Monte Carlo would only
approximate them.

Precision matrices are stored densely at desk scale; the sparsity claim
is about the pattern of stored nonzeros, which is checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    ``local_phi`` maps (P, len(indices)) points to their P values.

    ``Factor.gaussian`` builds the quadratic 0.5 (u - m)^T P (u - m) and
    records its (m, P) in ``quadratic``; a factor built from a
    ``local_phi`` alone records none and is always swept.
    """

    id: str
    indices: tuple[int, ...]
    local_phi: Callable[[np.ndarray], np.ndarray]
    quadratic: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        indices = tuple(map(int, self.indices))
        if not indices:
            raise ValueError(f"factor {self.id!r} has no variable indices")
        if len(set(indices)) != len(indices):
            raise ValueError(f"factor {self.id!r} has repeated variable indices")
        if min(indices) < 0:
            raise ValueError(f"factor {self.id!r} has a negative variable index")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def gaussian(cls, id: str, indices, m, P) -> "Factor":
        """The factor 0.5 (u - m)^T P (u - m), its ``local_phi`` built from
        the recorded (m, P) so that the two cannot disagree. The assembly
        takes the symmetric part of P, the only part the form sees."""
        indices = tuple(indices)
        m = np.array(m, dtype=float)
        p = np.array(P, dtype=float)
        d = len(indices)
        if m.shape != (d,) or p.shape != (d, d):
            raise ValueError(
                f"factor {id!r}: m of shape {m.shape} and P of shape {p.shape} "
                f"do not fit {d} indices"
            )
        m.setflags(write=False)
        p.setflags(write=False)
        factor = cls(id, indices, _quadratic_phi(m, p))
        object.__setattr__(factor, "quadratic", (m, p))
        return factor


def _quadratic_phi(m: np.ndarray, p: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The batched integrand 0.5 (u - m)^T P (u - m)."""

    def phi(u: np.ndarray) -> np.ndarray:
        d = u - m
        return np.einsum("pj,pj->p", 0.5 * d @ p, d)

    return phi


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
    def _plan(self) -> "_Plan":
        """The assembly plan, built once per graph on first use: the
        factors without a recorded quadratic grouped for the sweep, and the
        Gaussian ones stacked per arity in graph order for the closed form."""
        tagged: dict[int, list[Factor]] = {}
        untagged = []
        for f in self.factors:
            if f.quadratic is None:
                untagged.append(f)
            else:
                tagged.setdefault(len(f.indices), []).append(f)
        groups = _arity_groups(untagged)
        stacks = []
        for fs in tagged.values():
            p = np.array([f.quadratic[1] for f in fs])
            stacks.append(
                _Gaussians(
                    np.array([f.indices for f in fs], dtype=np.intp),
                    np.array([f.quadratic[0] for f in fs]),
                    0.5 * (p + np.swapaxes(p, 1, 2)),
                )
            )
        return _Plan(groups, tuple(stacks), _scatter_index(self.dim, groups, stacks))


class _Group(NamedTuple):
    """Factors of one arity and their distinct blocks."""

    factors: tuple[Factor, ...]
    # (B, d) distinct ordered index tuples, sorted
    blocks: np.ndarray
    # (K,) the block of each factor
    block_of: np.ndarray


class _Gaussians(NamedTuple):
    """Gaussian factors of one arity, stacked: the closed-form terms."""

    # (K, d) index tuples, one per factor
    blocks: np.ndarray
    # (K, d) and (K, d, d): each factor's m and symmetric P
    m: np.ndarray
    p: np.ndarray


class _Plan(NamedTuple):
    """What an assembly sweeps, what it takes in closed form, and where
    the one scatter puts each block."""

    groups: tuple[_Group, ...]
    gaussians: tuple[_Gaussians, ...]
    # flat positions, in the concatenation of the gradient (n) and the
    # row-major Hessian (n * n), of the block gradients of every group then
    # every stack, then of their block Hessians in the same order
    scatter_index: np.ndarray


def _arity_groups(factors) -> tuple[_Group, ...]:
    """The factors grouped by arity, groups in order of first appearance
    and factors in graph order."""
    groups: dict[int, list[Factor]] = {}
    for f in factors:
        groups.setdefault(len(f.indices), []).append(f)
    out = []
    for fs in groups.values():
        indices = np.array([f.indices for f in fs], dtype=np.intp)
        blocks, block_of = np.unique(indices, axis=0, return_inverse=True)
        out.append(_Group(tuple(fs), blocks, block_of.reshape(-1)))
    return tuple(out)


def _scatter_index(n: int, groups, stacks) -> np.ndarray:
    blocks = [g.blocks for g in (*groups, *stacks)]
    grads = [b.ravel() for b in blocks]
    hessians = [n + (b[:, :, None] * n + b[:, None, :]).ravel() for b in blocks]
    return np.concatenate(grads + hessians) if blocks else np.zeros(0, dtype=np.intp)


def sparsity_pattern(graph: FactorGraph) -> frozenset[tuple[int, int]]:
    """Lower-triangle (i, j) pairs, i >= j, that factors may populate.

    The diagonal is always present.
    """
    rows, cols = _vech_indices(graph.dim)
    allowed = _pattern_mask(graph)
    return frozenset(zip(rows[allowed].tolist(), cols[allowed].tolist()))


def _pattern_mask(graph: FactorGraph) -> np.ndarray:
    """The pattern as a mask over the half vector, from the blocks of the
    assembly plan, swept and closed-form alike."""
    n = graph.dim
    allowed = np.zeros(half_len(n), dtype=bool)
    diagonal = np.arange(n)
    allowed[_vech_position(diagonal, diagonal, n)] = True
    plan = graph._plan
    for part in (*plan.groups, *plan.gaussians):
        r, c = np.broadcast_arrays(part.blocks[:, :, None], part.blocks[:, None, :])
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
    block before the one map to derivatives (they are linear in phi). The
    sweep centres each factor's matrix moment before that sum.
    The Gaussian factors are not swept: each adds 0.5 r^T P r +
    0.5 tr(P Sigma_k) to the value, P r to the gradient and its constant P
    to the Hessian, for r = mu_k - m. Every block's derivatives then go
    into one scatter. The bundle carries
    the covariance the marginals were sliced from.
    """
    q = convert(q, "mean_prec")
    n = graph.dim
    plan = graph._plan
    try:
        sigma = q.covariance
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "the iterate's precision is singular: it has a Cholesky factor but no inverse"
        ) from None
    grads, hessians = [], []
    total = 0.0
    try:
        for group in plan.groups:
            blocks, block_of = group.blocks, group.block_of
            count, dim = blocks.shape
            cov = sigma[blocks[:, :, None], blocks[:, None, :]]
            chol = np.linalg.cholesky(cov)
            prec = np.linalg.inv(cov)
            prec = 0.5 * (prec + np.swapaxes(prec, 1, 2))
            mean = q.mean[blocks]
            moments = []
            per_chunk = max(1, CHUNK_POINTS // _n_points(rule, dim))
            for start in range(0, len(group.factors), per_chunk):
                at = block_of[start : start + per_chunk]
                phis = [f.local_phi for f in group.factors[start : start + per_chunk]]
                scalar, vector, matrix = expect_weighted(rule, (mean[at], chol[at]), phis)
                moments.append(np.column_stack([scalar, vector, matrix.reshape(len(at), -1)]))
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
        for stack in plan.gaussians:
            blocks, p = stack.blocks, stack.p
            cov = sigma[blocks[:, :, None], blocks[:, None, :]]
            np.linalg.cholesky(cov)  # the definiteness test of every marginal
            resid = q.mean[blocks] - stack.m
            p_resid = (p @ resid[:, :, None])[:, :, 0]
            value = 0.5 * float(np.vdot(resid, p_resid) + np.vdot(p, cov))
            if not math.isfinite(value):
                # an overflow; the factor-by-factor sweep names the factor
                raise EvaluationError(f"Gaussian factors have expected value {value!r}", node=q.mean[blocks])
            grads.append(p_resid.ravel())
            hessians.append(p.ravel())
            total += value
    except (np.linalg.LinAlgError, EvaluationError, IntegrandShapeError):
        _raise_first_failure(graph, q.mean, sigma, rule)
        raise
    values = np.concatenate(grads + hessians) if grads else np.zeros(0)
    flat = np.bincount(plan.scatter_index, values, n + n * n)
    # every block, a Gaussian factor's P too, is exactly symmetric and (i, j)
    # and (j, i) receive its equal entries in the same order, so the Hessian
    # is exactly symmetric
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
    """Hybrid iteration with per-iteration sparsity-pattern assertion: each
    iterate, the start included, is checked before it is assembled.

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

    def eval_fn(q):
        bad = pattern_violations(q.prec, pattern)
        if bad:
            raise SparsityError(
                f"precision has nonzeros outside the factor pattern at {sorted(bad)}"
            )
        return _assemble(graph, q, rule)

    return iterate_hybrid(eval_fn, q0, cfg)
