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
The assembly takes factors in groups of one formula, projection and
arity. A factor built by ``Factor.of_kind`` is one row of its kind's
stacked formula, (K, P, r) points and a (K, w) parameter table to (K, P)
values, and its ``local_phi`` is that formula, composed with the kind's
projection if it has one, at K = 1; the rows of one group are stacked
once per graph. The factors built from a ``local_phi`` alone form one
generic group per arity, whose stacked integrand calls each factor's
``local_phi`` once. The path is read from each factor's record, so
wrapping a ``local_phi`` changes no number. Per iteration and group the
assembly takes one stacked slice of the group's blocks (ordered index
tuples) and one batched Cholesky factorization, the definiteness test of
every marginal, and then takes the group in closed form or sweeps it.

A Gaussian factor, built by ``Factor.gaussian`` as the row (m, P) of the
kind ``quadratic``, 0.5 (u - m)^T P (u - m), has its expectations in
closed form: the value 0.5 r^T P r + 0.5 tr(P Sigma_k) for r = mu_k - m,
the gradient P r and the constant Hessian P. These are the exact
expectations, so under every rule a ``quadratic`` group, one block per
factor in graph order, is taken in closed form, and no ``local_phi`` of
it is called. A rule exact to degree 4 in z (Gauss-Hermite of order 3 or
more) would sweep it to the same numbers up to rounding; a lower order or
Monte Carlo would only approximate them.

Any other group records its distinct blocks (factors over the same tuple
share one) once per graph, and sweeps its factors in chunks of at most
``CHUNK_POINTS`` points: one ``expect_weighted`` call per chunk, which
makes one call of the group's stacked integrand. The derivatives are
linear in phi, so the moments of a group swept in its d dimensions are
summed per block and mapped to derivatives once per block, through the
block's inverse: prec E[((x - mu)(x - mu)^T - Sigma) phi] prec for the
Hessian, from the Stein moment the sweep returns centred, and
prec E[(x - mu) phi] for the gradient.

A ridge group is a kind whose formula reads only y = A u, r < d: a
logistic row reads t = a^T u (r = 1) and a 4-index range row the
difference of its position and landmark pairs (r = 2). Its factors are
swept in y ~ N(A mu_k, S), S = A Sigma_k A^T, and each factor's moments
map straight to its derivatives, A^T S^-1 E[(y - m) phi] and
A^T S^-1 E[((y - m)(y - m)^T - S) phi] S^-1 A, which are summed per block;
no block inverse is taken. Under Gauss-Hermite of order p a ridge group
takes order min(20, p + d - r) in y, one more node per dimension the
projection removes; Monte Carlo keeps its sample count and seed. A row
whose A is zero reads one constant value and adds no derivatives. One
scatter per iteration adds every block into the global gradient and
Hessian.

Precision matrices are stored densely at desk scale; the sparsity claim
is about the pattern of stored nonzeros, which is checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
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
from .kronmat import DimensionError, SymmetricMatrix, _index, _vech_indices, _vech_position, half_len, integer
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

    ``Factor.of_kind`` builds one row of a stacked formula and records the
    formula, the row's parameters and the kind's projection (or None) in
    ``kind``; ``Factor.gaussian`` builds the row (m, P) of the formula
    ``quadratic``. A factor built from a
    ``local_phi`` alone records no kind, and the assembly calls its
    ``local_phi``.
    """

    id: str
    indices: tuple[int, ...]
    local_phi: Callable[[np.ndarray], np.ndarray]
    kind: tuple[Callable, tuple, Callable | None] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            indices = tuple(map(_index, self.indices))
        except TypeError:
            raise TypeError(
                f"factor {self.id!r} variable indices must be integers, found {self.indices!r}"
            ) from None
        if not indices:
            raise ValueError(f"factor {self.id!r} has no variable indices")
        if len(set(indices)) != len(indices):
            raise ValueError(f"factor {self.id!r} has repeated variable indices")
        if min(indices) < 0:
            raise ValueError(f"factor {self.id!r} has a negative variable index")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def gaussian(cls, id: str, indices, m, P) -> "Factor":
        """The factor 0.5 (u - m)^T P (u - m), the row (m, P) of the kind
        ``quadratic``. The assembly takes the symmetric part of P, the only
        part the form sees."""
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
        return cls.of_kind(id, indices, quadratic, (m, p))

    @classmethod
    def of_kind(cls, id: str, indices, formula, params: tuple, projection=None) -> "Factor":
        """One factor of a kind: ``formula`` maps the points (K, P, r) of K
        factors and their parameter table (K, w) to the (K, P) values, and
        ``params`` holds this factor's numbers and arrays, the parts of its
        row. A kind whose formula reads only y = A u names ``projection``,
        which maps the table to the rows' (K, r, d) matrices A; the formula
        then takes the projected points, and without a projection r = d and
        y = u. The assembly stacks the rows of every factor of one kind and
        arity once per graph and sweeps them with one call per chunk, in r
        dimensions where r < d, or takes them in closed form for
        ``quadratic``; ``local_phi`` is the formula composed with the
        projection at K = 1, so the two cannot disagree."""
        factor = cls(id, indices, partial(_row_phi, formula, params, projection))
        object.__setattr__(factor, "kind", (formula, params, projection))
        return factor


def _row_phi(formula, params: tuple, projection, u: np.ndarray) -> np.ndarray:
    """The values (P,) of one row at its points u (P, d): the formula,
    composed with the projection, at K = 1. A partial of it is each
    kind row's ``local_phi``, which a parse builds once per factor."""
    return _through(formula, projection)(u[None], _table([params]))[0]


def _through(formula, projection):
    """The stacked formula of the points u (K, P, d): ``formula`` composed
    with the rows' projection y = A u, or ``formula`` itself without one."""
    if projection is None:
        return formula
    # one matrix product per row, so that a row's values do not depend on
    # the rows stacked with it
    return lambda u, table: formula(u @ np.swapaxes(projection(table), 1, 2), table)


def quadratic(u: np.ndarray, params: np.ndarray) -> np.ndarray:
    """0.5 (u - m)^T P (u - m); a row is (m, P), P row-major. The assembly
    takes its groups in closed form, so it runs only as ``local_phi``."""
    k, _, d = u.shape
    r = u - params[:, None, :d]
    return np.einsum("kpj,kpj->kp", 0.5 * r @ params[:, d:].reshape(k, d, d), r)


def _table(rows) -> np.ndarray:
    """The (K, w) parameter table of K rows of one formula: the parts of
    each row side by side. An array part whose length varies between rows
    is padded with zeros at its end; only polynomial coefficients vary,
    and zero high-order coefficients leave a polynomial unchanged."""
    columns = []
    for part in zip(*rows):
        try:
            column = np.array(part, dtype=float)
        except ValueError:  # arrays of unequal lengths
            column = np.zeros((len(part), max(map(len, part))))
            for k, values in enumerate(part):
                column[k, : len(values)] = values
        columns.append(column.reshape(len(part), -1))
    return np.hstack(columns)


def _path(f: Factor) -> tuple[Callable, Callable | None]:
    """The formula and projection a factor is grouped and swept by."""
    return (_each_phi, None) if f.kind is None else (f.kind[0], f.kind[2])


def _each_phi(points: np.ndarray, factors: tuple[Factor, ...]) -> np.ndarray:
    """The stacked integrand of factors that record no kind: each factor's
    ``local_phi`` called once, on its own points."""
    values = np.empty(points.shape[:2])
    for k, f in enumerate(factors):
        values[k] = _as_values(f.local_phi(points[k]), values.shape[1])
    return values


@dataclass(frozen=True, eq=False)
class FactorGraph:
    dim: int
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", integer(self.dim, "graph dimension"))
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
        factors grouped by formula, projection and arity, in order of first
        appearance, the closed-form ``quadratic`` groups after the swept
        ones. The path is read from each factor's record, never from its
        ``local_phi``, which a caller may wrap."""
        grouped: dict[tuple, list[Factor]] = {}
        for f in self.factors:
            grouped.setdefault((*_path(f), len(f.indices)), []).append(f)
        keys = sorted(grouped, key=lambda key: key[0] is quadratic)
        groups = tuple(_group(key[0], key[1], grouped[key]) for key in keys)
        return _Plan(groups, _scatter_index(self.dim, groups))


class _Group(NamedTuple):
    """Factors of one formula, projection and arity and their blocks."""

    factors: tuple[Factor, ...]
    # (B, d) ordered index tuples: one per factor for ``quadratic``, else
    # the distinct ones, sorted
    blocks: np.ndarray
    # (K,) the block of each factor
    block_of: np.ndarray
    # the stacked integrand (K, P, r) points, params -> (K, P) values, and
    # its params: the (K, w) table of a kind, the factors themselves, or
    # for ``quadratic`` the stacked m and symmetric P of the closed form
    formula: Callable[[np.ndarray, object], np.ndarray]
    params: np.ndarray | tuple
    # the rows' (K, r, d) projections of a ridge group, r < d, whose
    # formula takes the projected points; None where the points are the
    # d-dimensional u
    ridge: np.ndarray | None = None


class _Plan(NamedTuple):
    """The groups an assembly takes, and where the one scatter puts each
    block."""

    groups: tuple[_Group, ...]
    # flat positions, in the concatenation of the gradient (n) and the
    # row-major Hessian (n * n), of the block gradients of every group,
    # then of their block Hessians in the same order
    scatter_index: np.ndarray


def _group(formula, projection, factors) -> _Group:
    """The group of these factors, in graph order, with its blocks and
    params. The stacked P of a ``quadratic`` group is symmetrized here,
    once per graph, and so are a ridge group's projections stacked; a
    projection that keeps every dimension (r = d) is folded into the
    formula of the points u instead."""
    indices = np.array([f.indices for f in factors], dtype=np.intp)
    factors = tuple(factors)
    if formula is quadratic:
        p = np.array([f.kind[1][1] for f in factors])
        params = (np.array([f.kind[1][0] for f in factors]), 0.5 * (p + np.swapaxes(p, 1, 2)))
        return _Group(factors, indices, np.arange(len(factors)), formula, params)
    blocks, block_of = np.unique(indices, axis=0, return_inverse=True)
    if formula is _each_phi:
        return _Group(factors, blocks, block_of.reshape(-1), formula, factors)
    table = _table([f.kind[1] for f in factors])
    ridge = _ridge(projection, table)
    if ridge is None:
        formula = _through(formula, projection)
    return _Group(factors, blocks, block_of.reshape(-1), formula, table, ridge)


def _ridge(projection, table: np.ndarray) -> np.ndarray | None:
    """The (K, r, d) projections of the rows of a table where they drop
    dimensions, r < d, else None: the rows are then swept in u."""
    if projection is None:
        return None
    ridge = np.ascontiguousarray(projection(table))
    return ridge if ridge.shape[1] < ridge.shape[2] else None


def _scatter_index(n: int, groups) -> np.ndarray:
    blocks = [g.blocks for g in groups]
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
    assembly plan."""
    n = graph.dim
    allowed = np.zeros(half_len(n), dtype=bool)
    diagonal = np.arange(n)
    allowed[_vech_position(diagonal, diagonal, n)] = True
    for group in graph._plan.groups:
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
    ln|prec| comes from its cached factor. Per group of one formula and
    arity, the blocks are sliced and factored at once, which tests every
    marginal for definiteness. A ``quadratic`` group adds, per factor,
    0.5 r^T P r + 0.5 tr(P Sigma_k) to the value, P r to the gradient and
    its constant P to the Hessian, for r = mu_k - m; any other group is
    swept (``_sweep``), a ridge group in its projection. Every block's
    derivatives then go into one scatter.
    The bundle carries the covariance the marginals were sliced from.
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
            blocks = group.blocks
            cov = sigma[blocks[:, :, None], blocks[:, None, :]]
            chol = np.linalg.cholesky(cov)  # the definiteness test of every marginal
            mean = q.mean[blocks]
            if group.formula is quadratic:
                m, hess = group.params
                resid = mean - m
                grad = (hess @ resid[:, :, None])[:, :, 0]
                value = 0.5 * float(np.vdot(resid, grad) + np.vdot(hess, cov))
                if not math.isfinite(value):
                    # an overflow; the factor-by-factor sweep names the factor
                    raise EvaluationError(f"Gaussian factors have expected value {value!r}", node=mean)
            else:
                value, grad, hess = _sweep(group, mean, cov, chol, rule)
            grads.append(grad.ravel())
            hessians.append(hess.ravel())
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


def _sweep(group: _Group, mean: np.ndarray, cov: np.ndarray, chol: np.ndarray, rule: ExpectationRule):
    """Value, block gradients and block Hessians of a swept group, from
    its blocks' means, covariances and Cholesky factors. Each chunk of
    factors is swept by one ``expect_weighted`` call with one call of the
    group's stacked integrand, which centres each factor's matrix moment.
    The derivatives are linear in phi, so a d-dimensional group sums its
    moments per block before the one map to derivatives per block; a
    ridge group maps each factor's moments in y = A u to derivatives,
    A^T S^-1 E[(y - m) phi] and A^T S^-1 E[((y - m)(y - m)^T - S) phi]
    S^-1 A, and sums those per block."""
    count, dim = group.blocks.shape
    block_of = group.block_of
    if group.ridge is None:
        means, chols = mean[block_of], chol[block_of]
    else:
        means, chols, maps = _project(group.ridge, mean[block_of], chol[block_of])
        rule = _ridge_rule(rule, dim, means.shape[1])
    moments = []
    per_chunk = max(1, CHUNK_POINTS // _n_points(rule, means.shape[1]))
    for start in range(0, len(group.factors), per_chunk):
        rows = slice(start, start + per_chunk)

        def stacked(points, formula=group.formula, params=group.params[rows]):
            return formula(points, params)

        scalar, vector, matrix = expect_weighted(rule, (means[rows], chols[rows]), stacked)
        if group.ridge is not None:
            vector = np.einsum("kri,kr->ki", maps[rows], vector)
            matrix = np.swapaxes(maps[rows], 1, 2) @ matrix @ maps[rows]
        moments.append(np.column_stack([scalar, vector, matrix.reshape(len(scalar), -1)]))
    width = 1 + dim + dim * dim
    slots = (block_of[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(slots, np.concatenate(moments).ravel(), count * width)
    sums = sums.reshape(count, width)
    scalar, grad = sums[:, 0], sums[:, 1 : 1 + dim]
    hess = sums[:, 1 + dim :].reshape(count, dim, dim)
    if group.ridge is None:
        prec = np.linalg.inv(cov)
        prec = 0.5 * (prec + np.swapaxes(prec, 1, 2))
        hess = prec @ hess @ prec
        grad = np.einsum("kij,kj->ki", prec, grad)
    return float(scalar.sum()), grad, 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _ridge_rule(rule: ExpectationRule, dim: int, rank: int) -> ExpectationRule:
    """The rule of a ridge group, which sweeps d-dimensional marginals in r
    dimensions: Gauss-Hermite of order p takes order min(20, p + d - r),
    one more node per dimension the projection removes, and Monte Carlo
    keeps its sample count and seed."""
    if rule.kind == "monte_carlo":
        return rule
    return replace(rule, order=min(20, rule.order + dim - rank))


def _project(ridge: np.ndarray, mean: np.ndarray, chol: np.ndarray):
    """The projections y = A u of K marginals, means (K, d) and covariance
    factors (K, d, d), through their rows' matrices A (K, r, d): the means
    A mu (K, r), a factor of each covariance S = (A L)(A L)^T (K, r, r),
    and the maps S^-1 A (K, r, d) of y moments to derivatives. A zero A
    reads one constant value, its y being 0 at every node, so its factor
    and map are 0 and it adds only its value."""
    b = ridge @ chol
    s = b @ np.swapaxes(b, 1, 2)
    live = s.any(axis=(1, 2))[:, None, None]
    s = np.where(live, s, np.eye(s.shape[1]))
    means = (ridge @ mean[:, :, None])[:, :, 0]
    return means, np.linalg.cholesky(s) * live, np.linalg.solve(s, ridge) * live


def _raise_first_failure(
    graph: FactorGraph, mean: np.ndarray, sigma: np.ndarray, rule: ExpectationRule
) -> None:
    """Sweep factor by factor in graph order, each one as a group of its
    own, and raise what the first failing factor raises, with the factor
    named: a batch can fail at a factor that another group's factor
    precedes. A Gaussian factor, whose group is taken in closed form, is
    swept through its ``local_phi``."""
    for f in graph.factors:
        idx = np.array(f.indices, dtype=np.intp)
        cov = sigma[np.ix_(idx, idx)]
        chol = _chol(cov, f"marginal covariance of factor {f.id!r}")
        formula, projection = _path(f)
        try:
            if formula is quadratic:
                expect_weighted(rule, (mean[idx], chol), f.local_phi)
            else:
                _sweep(_group(formula, projection, [f]), mean[idx][None], cov[None], chol[None], rule)
        except IntegrandShapeError as exc:
            raise IntegrandShapeError(f"factor {f.id!r}: {exc}") from None
        except np.linalg.LinAlgError:  # only a ridge row's projection can fail
            raise NotPositiveDefiniteError(
                f"projected covariance of factor {f.id!r} is not positive definite"
            ) from None


def assemble(graph: FactorGraph, q, rule: ExpectationRule) -> DerivativeBundle:
    """Global derivative bundle scatter-added from per-factor derivatives,
    each group under the rule a solve gives it (a ridge group's own
    Gauss-Hermite order included)."""
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
