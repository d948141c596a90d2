"""Gaussian distributions in three interchangeable forms.

Mean/covariance, mean/precision, and the natural (inverse covariance)
form, with conversions, log-density, KL divergence, and sampling.
Positive definiteness is validated once at construction via Cholesky;
log-determinants come from the cached factor's pivots.

A form's matrix is inverted through its cached factor, never by LU:
with ``W = L^-1`` the inverse of the lower-triangular factor ``L``
(``tril_inverse``), the inverse of ``L L^T`` is ``W^T W``. numpy forms
that product with syrk, so it is exactly symmetric, and every diagonal
entry is a sum of squares. A factor whose pivots satisfy
``min l_ii^2 <= eps max l_ii^2`` belongs to a numerically singular
matrix, and ``tril_inverse`` refuses it with ``LinAlgError``, as
``np.linalg.inv`` refuses an exactly singular one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .kronmat import DimensionError, SymmetricMatrix, _vech_indices

__all__ = [
    "NotPositiveDefiniteError",
    "MeanCovariance",
    "MeanPrecision",
    "NaturalForm",
    "FORM_TAGS",
    "convert",
    "log_pdf",
    "kl",
    "sample",
    "mean_of",
    "cov_of",
    "prec_of",
    "tril_inverse",
]

FORM_TAGS = ("mean_cov", "mean_prec", "natural")

_LOG_2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(float).eps)

# Rows at or below which ``tril_inverse`` inverts a block with one
# ``np.linalg.inv`` call instead of splitting it.
_LEAF_ROWS = 64


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite has a nonpositive pivot."""


def _chol(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def tril_inverse(chol: np.ndarray) -> np.ndarray:
    """``W = L^-1`` of a lower Cholesky factor ``L``, so that
    ``(L L^T)^-1 = W^T W``.

    Raises ``np.linalg.LinAlgError`` when ``L L^T`` is numerically
    singular: its smallest squared pivot is at most machine epsilon times
    its largest.
    """
    if _singular(chol):
        raise np.linalg.LinAlgError("Singular matrix")
    return _blocked_inverse(chol)


def _singular(chol: np.ndarray) -> bool:
    """True when ``L L^T``, for the lower Cholesky factor ``L``, is
    numerically singular: its smallest squared pivot is at most machine
    epsilon times its largest."""
    pivots = (chol.diagonal() ** 2).tolist()
    return min(pivots) <= _EPS * max(pivots)


def _blocked_inverse(chol: np.ndarray) -> np.ndarray:
    """``L^-1`` by blocked recursion: a block of at most ``_LEAF_ROWS``
    rows is one ``np.linalg.inv``; above that, with
    ``L = [[A, 0], [B, C]]``, ``L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``
    from two half-size inverses and one pair of products."""
    n = chol.shape[0]
    if n <= _LEAF_ROWS:
        return np.linalg.inv(chol)
    h = n // 2
    w = np.zeros_like(chol)
    w[:h, :h] = _blocked_inverse(chol[:h, :h])
    w[h:, h:] = _blocked_inverse(chol[h:, h:])
    # in place: block-sized temporaries would stay on the heap and raise
    # the process's peak memory
    off = chol[h:, :h] @ w[:h, :h]
    np.negative(off, out=off)
    np.matmul(w[h:, h:], off, out=w[h:, :h])
    return w


def _inverse_from_chol(chol: np.ndarray) -> np.ndarray:
    """The inverse ``W^T W`` of ``L L^T``, exactly symmetric."""
    w = tril_inverse(chol)
    return w.T @ w


def _check_mean(mean, matrix: SymmetricMatrix) -> np.ndarray:
    mean = np.asarray(mean, dtype=float).reshape(-1)
    if mean.shape[0] != matrix.dim:
        raise DimensionError(
            f"mean has length {mean.shape[0]} but matrix dimension is {matrix.dim}"
        )
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean contains non-finite entries")
    return mean


@dataclass(frozen=True, eq=False)
class MeanCovariance:
    """Gaussian parameterized by mean and covariance."""

    mean: np.ndarray
    cov: SymmetricMatrix
    form: ClassVar[str] = "mean_cov"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _check_mean(self.mean, self.cov))
        object.__setattr__(self, "_chol", _chol(self.cov.full(), "covariance"))

    @classmethod
    def from_dense(cls, mean, cov) -> "MeanCovariance":
        return cls(mean, SymmetricMatrix.from_full(cov))

    @property
    def dim(self) -> int:
        return self.cov.dim

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return self._chol


@dataclass(frozen=True, eq=False)
class MeanPrecision:
    """Gaussian parameterized by mean and precision (inverse covariance)."""

    mean: np.ndarray
    prec: SymmetricMatrix
    form: ClassVar[str] = "mean_prec"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _check_mean(self.mean, self.prec))
        # ``_from_factor`` hands over a factor it has already computed
        if "_chol" not in vars(self):
            object.__setattr__(self, "_chol", _chol(self.precision, "precision"))

    @classmethod
    def from_dense(cls, mean, prec) -> "MeanPrecision":
        return cls(mean, SymmetricMatrix.from_full(prec))

    @classmethod
    def _from_factor(
        cls, mean, prec: np.ndarray, chol: np.ndarray, inv_chol: np.ndarray
    ) -> "MeanPrecision":
        """The Gaussian with a dense, exactly symmetric precision, whose
        lower Cholesky factor and that factor's inverse ``W`` the caller has
        computed. It keeps the precision (read-only) and the factor, packs
        the lower triangle by index and stores the covariance ``W^T W``;
        nothing is symmetrized, factored or inverted again."""
        prec.setflags(write=False)
        cov = inv_chol.T @ inv_chol
        cov.setflags(write=False)
        g = cls.__new__(cls)
        vars(g).update(precision=prec, covariance=cov, _chol=chol)
        g.__init__(mean, SymmetricMatrix(prec.shape[0], prec[_vech_indices(prec.shape[0])]))
        return g

    @property
    def dim(self) -> int:
        return self.prec.dim

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the precision."""
        return self._chol

    @cached_property
    def precision(self) -> np.ndarray:
        """Dense precision, expanded once on first use and shared by every
        later caller (read-only)."""
        prec = self.prec.full()
        prec.setflags(write=False)
        return prec

    @cached_property
    def covariance(self) -> np.ndarray:
        """Dense covariance ``W^T W``, for ``W`` the inverse of the
        precision's Cholesky factor, formed once (by ``_from_factor`` for
        a hybrid step's iterate, otherwise on first use) and shared by
        every later caller (read-only). Raises ``np.linalg.LinAlgError``
        for a numerically singular precision."""
        cov = _inverse_from_chol(self._chol)
        cov.setflags(write=False)
        return cov


@dataclass(frozen=True, eq=False)
class NaturalForm:
    """Natural parameters: eta1 = prec @ mean, eta2 = prec."""

    eta1: np.ndarray
    eta2: SymmetricMatrix
    form: ClassVar[str] = "natural"

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta1", _check_mean(self.eta1, self.eta2))
        object.__setattr__(self, "_chol", _chol(self.eta2.full(), "precision"))

    @property
    def dim(self) -> int:
        return self.eta2.dim

    @property
    def chol(self) -> np.ndarray:
        return self._chol


def mean_of(g) -> np.ndarray:
    if isinstance(g, NaturalForm):
        return np.linalg.solve(g.eta2.full(), g.eta1)
    return g.mean.copy()


def cov_of(g) -> np.ndarray:
    """Dense covariance of any form; for a MeanPrecision, its shared
    read-only ``covariance``."""
    if isinstance(g, MeanCovariance):
        return g.cov.full()
    if isinstance(g, MeanPrecision):
        return g.covariance
    return _inverse_from_chol(g.chol)


def prec_of(g) -> np.ndarray:
    """Dense precision of any form; for a MeanPrecision, its shared
    read-only ``precision``."""
    if isinstance(g, MeanPrecision):
        return g.precision
    if isinstance(g, NaturalForm):
        return g.eta2.full()
    return _inverse_from_chol(g.chol)


def convert(g, target: str):
    """Convert between the three forms; round trips recover the input."""
    if target not in FORM_TAGS:
        raise ValueError(f"unknown form tag {target!r}; expected one of {FORM_TAGS}")
    if g.form == target:
        return g
    if target == "mean_cov":
        return MeanCovariance.from_dense(mean_of(g), cov_of(g))
    if target == "mean_prec":
        return MeanPrecision.from_dense(mean_of(g), prec_of(g))
    prec = prec_of(g)
    return NaturalForm(prec @ mean_of(g), SymmetricMatrix.from_full(prec))


def log_pdf(g, x):
    """Log density at x, computed via the cached Cholesky factor.

    A point of length n gives a float; an (m, n) array of points gives the
    m log densities as an array.
    """
    x = np.asarray(x, dtype=float)
    points = x if x.ndim == 2 else x.reshape(1, -1)
    n = g.dim
    if points.shape[1] != n:
        raise DimensionError(f"point has length {points.shape[1]}, expected {n}")
    delta = points - mean_of(g)
    if isinstance(g, MeanCovariance):
        w = np.linalg.solve(g.chol, delta.T)
        logdet_cov = _logdet_from_chol(g.chol)
    else:
        # chol factors the precision
        w = g.chol.T @ delta.T
        logdet_cov = -_logdet_from_chol(g.chol)
    quad = np.einsum("ij,ij->j", w, w)
    values = -0.5 * (quad + logdet_cov + n * _LOG_2PI)
    return values if x.ndim == 2 else float(values[0])


def kl(q, p) -> float:
    """KL divergence between two Gaussians, closed form."""
    q = convert(q, "mean_cov")
    p = convert(p, "mean_cov")
    if q.dim != p.dim:
        raise DimensionError(f"dimension mismatch: {q.dim} vs {p.dim}")
    n = q.dim
    sigma_q = q.cov.full()
    delta = p.mean - q.mean
    # solve against p's covariance through its Cholesky factor
    lp = p.chol
    trace = float(np.trace(np.linalg.solve(lp.T, np.linalg.solve(lp, sigma_q))))
    w = np.linalg.solve(lp, delta)
    quad = float(w @ w)
    logdets = _logdet_from_chol(lp) - _logdet_from_chol(q.chol)
    return 0.5 * (trace + quad - n + logdets)


def sample(g, count: int, seed: int) -> np.ndarray:
    """Draw count samples, deterministically for a given seed.

    Returns an array of shape (count, dim).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return _draw(mean_of(g), _cov_chol(g), count, seed)


def _cov_chol(g) -> np.ndarray:
    """Lower Cholesky factor of the covariance of any form."""
    if isinstance(g, MeanCovariance):
        return g.chol
    return _chol(cov_of(g), "covariance")


def _draw(mean: np.ndarray, chol_cov: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` draws mean + L z, with L the covariance's lower Cholesky factor."""
    return _affine(mean[None], chol_cov[None], _standard_draws(count, mean.shape[0], seed))[0]


def _affine(means: np.ndarray, chols: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Points mu_k + L_k z (K, P, d) of K Gaussians, means (K, d) and
    covariance factors (K, d, d), at shared standard nodes z (P, d); the
    offsets of all K come from one GEMM, z @ [L_1^T ... L_K^T]."""
    count, dim = means.shape
    points = (z @ chols.reshape(count * dim, dim).T).reshape(-1, count, dim)
    points += means
    return np.swapaxes(points, 0, 1)


def _standard_draws(count: int, dim: int, seed: int) -> np.ndarray:
    """``count`` seeded standard normal draws of shape (count, dim)."""
    return np.random.default_rng(seed).standard_normal((count, dim))
