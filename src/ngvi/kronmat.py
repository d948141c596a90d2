"""Symmetric-matrix storage for the optimizer's iterate.

A ``SymmetricMatrix`` holds one scalar per on-and-below-diagonal entry,
in the column-major half vector, so its dense expansion is symmetric by
construction. ``check_symmetric`` is the one tolerance rule for
accepting a dense matrix as symmetric, and ``integer`` the one rule for
an integer field of the Python API. The Kronecker and duplication
algebra the paper derives its FIMs with lives in ``ngvi.fim``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DimensionError",
    "AsymmetricMatrixError",
    "SymmetricMatrix",
    "half_len",
    "check_symmetric",
    "integer",
]


class DimensionError(ValueError):
    """Shapes are incompatible with the requested operation."""


class AsymmetricMatrixError(ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


# relative tolerance for accepting a dense matrix as symmetric:
# max|A - A^T| <= SYMMETRY_RTOL * max(1, max|A|)
SYMMETRY_RTOL = 1e-12


def _index(value) -> int:
    """``operator.index(value)``, which refuses a float, a string or a
    NumPy bool; a bool, which it would read as 0 or 1, is refused too."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def integer(value, what: str) -> int:
    """``value`` as an int, by ``_index``; a refusal names ``what``."""
    try:
        return _index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, found {value!r}") from None


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
    """Raise AsymmetricMatrixError unless max|A - A^T| <= SYMMETRY_RTOL * max(1, max|A|),
    for one matrix or each of a stack (..., d, d); the message holds the
    numbers of the first matrix that fails."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    gap = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    failed = np.flatnonzero(gap > SYMMETRY_RTOL * scale)
    if failed.size:
        k = failed[0]
        raise AsymmetricMatrixError(
            f"matrix is asymmetric: max|A - A^T| = {float(gap.flat[k]):.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * {float(scale.flat[k]):.3e}"
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
        object.__setattr__(self, "dim", integer(self.dim, "dimension"))
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
