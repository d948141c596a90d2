"""Vectorization, Kronecker, and duplication-matrix algebra.

Dense, desk-scale building blocks used by the Fisher-information and
natural-gradient code: column-major ``vec``/``mat``, the half
vectorization ``vech``/``matf``, duplication matrices with their
pseudoinverses, and the ``sym`` operator that converts an unconstrained
matrix derivative into its symmetry-aware counterpart.

Duplication matrices are assembled by index bookkeeping, never by
numerical pseudoinversion: D^T D is diagonal with entries 1 (diagonal
slots) or 2 (off-diagonal slots), so D+ has an exact closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DimensionError",
    "AsymmetricMatrixError",
    "SymmetricMatrix",
    "DuplicationPair",
    "half_len",
    "check_symmetric",
    "vec",
    "mat",
    "kron",
    "vech",
    "matf",
    "duplication",
    "sym",
]


class DimensionError(ValueError):
    """Shapes are incompatible with the requested operation."""


class AsymmetricMatrixError(ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


# relative tolerance for accepting a dense matrix as symmetric:
# max|A - A^T| <= SYMMETRY_RTOL * max(1, max|A|)
SYMMETRY_RTOL = 1e-12


def half_len(dim: int) -> int:
    """Number of on-and-below-diagonal entries of a dim x dim matrix."""
    return dim * (dim + 1) // 2


@lru_cache(maxsize=None)
def _vech_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of the lower triangle in column-major order."""
    rows = np.concatenate([np.arange(j, dim) for j in range(dim)])
    cols = np.concatenate([np.full(dim - j, j) for j in range(dim)])
    return rows, cols


def check_symmetric(a: np.ndarray) -> None:
    """Raise AsymmetricMatrixError unless max|A - A^T| <= SYMMETRY_RTOL * max(1, max|A|)."""
    scale = max(1.0, float(np.abs(a).max()))
    gap = float(np.abs(a - a.T).max())
    if gap > SYMMETRY_RTOL * scale:
        raise AsymmetricMatrixError(
            f"matrix is asymmetric: max|A - A^T| = {gap:.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )


def _vech_position(i: int, j: int, dim: int) -> int:
    # position of entry (i, j), i >= j, in the column-major half vector
    return j * dim - j * (j - 1) // 2 + (i - j)


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Symmetric matrix stored as its half vector (column-major lower triangle).

    Expansion assigns one stored scalar to both (i, j) and (j, i), so
    ``full()`` is bit-identically equal to its own transpose.
    """

    dim: int
    half: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("dimension must be a positive integer")
        half = np.asarray(self.half, dtype=float).reshape(-1)
        if half.shape[0] != half_len(self.dim):
            raise DimensionError(
                f"half vector has length {half.shape[0]}, "
                f"expected {half_len(self.dim)} for dim {self.dim}"
            )
        if not np.all(np.isfinite(half)):
            raise ValueError("half vector contains non-finite entries")
        object.__setattr__(self, "half", half)

    @classmethod
    def from_full(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Build from a dense matrix, which must be symmetric within tolerance."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        check_symmetric(a)
        r, c = _vech_indices(a.shape[0])
        return cls(a.shape[0], 0.5 * (a[r, c] + a[c, r]))

    def full(self) -> np.ndarray:
        """Dense expansion; off-diagonal pairs share one stored scalar."""
        a = np.zeros((self.dim, self.dim))
        r, c = _vech_indices(self.dim)
        a[r, c] = self.half
        a[c, r] = self.half
        return a


@dataclass(frozen=True, eq=False)
class DuplicationPair:
    """Duplication matrix D (N^2 x N(N+1)/2) and its pseudoinverse D+."""

    dim: int
    dup: np.ndarray
    pinv: np.ndarray


def vec(m) -> np.ndarray:
    """Stack the columns of a matrix into one vector; vec of a vector is itself."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        return a.copy()
    if a.ndim != 2:
        raise DimensionError(f"expected a vector or matrix, got ndim {a.ndim}")
    return a.reshape(-1, order="F")


def mat(v, rows: int, cols: int) -> np.ndarray:
    """Unstack a vector back into a rows x cols matrix (inverse of vec)."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape[0] != rows * cols:
        raise DimensionError(
            f"vector of length {a.shape[0]} cannot fill a {rows}x{cols} matrix"
        )
    return a.reshape((rows, cols), order="F")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.atleast_2d(np.asarray(a, dtype=float)),
                   np.atleast_2d(np.asarray(b, dtype=float)))


def vech(m) -> np.ndarray:
    """Half vectorization: on-and-below-diagonal entries, column-major.

    Accepts a SymmetricMatrix or a dense square matrix that is symmetric
    within tolerance.
    """
    if isinstance(m, SymmetricMatrix):
        return m.half.copy()
    return SymmetricMatrix.from_full(m).half


def matf(h, dim: int) -> SymmetricMatrix:
    """Rebuild the full symmetric matrix from its half vector."""
    return SymmetricMatrix(dim, h)


@lru_cache(maxsize=None)
def duplication(dim: int) -> DuplicationPair:
    """Duplication matrix for symmetric dim x dim matrices, with pseudoinverse.

    D satisfies vec(A) = D vech(A) for symmetric A. D+ = (D^T D)^{-1} D^T,
    where D^T D is diagonal with entries 1 or 2.
    """
    if dim < 1:
        raise DimensionError("dimension must be a positive integer")
    d = np.zeros((dim * dim, half_len(dim)))
    for j in range(dim):
        for i in range(dim):
            lo, hi = (i, j) if i < j else (j, i)
            d[j * dim + i, _vech_position(hi, lo, dim)] = 1.0
    counts = d.sum(axis=0)
    pinv = (d / counts).T
    d.setflags(write=False)
    pinv.setflags(write=False)
    return DuplicationPair(dim, d, pinv)


def sym(m) -> np.ndarray:
    """A + A^T - A o I, the symmetry-aware derivative projection."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a + a.T - np.diag(np.diag(a))
