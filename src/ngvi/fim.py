"""Fisher information matrices for five Gaussian parameterizations, and
the vec/vech, Kronecker and duplication-matrix algebra they are written in.

Each tag is the mean plus one matrix in one layout, and ``_PARAMS`` is
the table of both:

* ``theta`` -- mean plus vec(covariance), symmetry-blind
* ``gamma`` -- mean plus vech(covariance), symmetry-aware
* ``alpha`` -- mean plus vec(precision), symmetry-blind ("hybrid")
* ``beta``  -- mean plus vech(precision), symmetry-aware
* ``eta``   -- natural parameters (prec @ mean, vec(precision))

With ``M`` the tagged matrix, the FIM is blockdiag(prec, 1/2 M^-1 (x) M^-1)
and its inverse blockdiag(cov, 2 M (x) M); a vech layout sandwiches the
matrix block as D^T . D in the FIM and D+ . D+^T in the inverse. ``eta``
is the one exception, twice over: its FIM is the alpha FIM sandwiched by
the Jacobian d(alpha)/d(eta), and its inverse has its own closed form.

Inverses come from closed forms, never from numerically inverting the
FIM; numeric inversion is confined to test oracles.

``fd_kl_hessian`` is the definitional oracle: the central-difference
Hessian of the KL divergence in the tagged coordinates. For the
symmetry-blind tags those coordinates are redundant (off-diagonal pairs
move independently), so the FD Hessian agrees with the closed form only
on the symmetric subspace; use ``reduce_to_unique`` on both before
comparing entrywise.

The algebra: column-major ``vec``/``mat``, the half vectorization
``vech``/``matf``, duplication matrices with their pseudoinverses, and
the ``sym`` operator that converts an unconstrained matrix derivative
into its symmetry-aware counterpart. Duplication matrices are assembled
by index bookkeeping, never by numerical pseudoinversion: D^T D is
diagonal with entries 1 (diagonal slots) or 2 (off-diagonal slots), so
D+ has an exact closed form. The optimizer never calls this algebra;
its iterate is stored in ``kronmat.SymmetricMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import NotPositiveDefiniteError, cov_of, prec_of
from .kronmat import DimensionError, SymmetricMatrix, _vech_position, half_len

__all__ = [
    "DuplicationPair",
    "vec",
    "mat",
    "kron",
    "vech",
    "matf",
    "duplication",
    "sym",
    "PARAM_TAGS",
    "coord_dim",
    "fim",
    "fim_inverse",
    "fd_kl_hessian",
    "reduce_to_unique",
    "central_gradient",
    "central_hessian",
    "shrink_until_pd",
]


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


# tag -> (the matrix its coordinates hold, that matrix's layout)
_PARAMS = {
    "theta": ("cov", "vec"),
    "gamma": ("cov", "vech"),
    "alpha": ("prec", "vec"),
    "beta": ("prec", "vech"),
    "eta": ("prec", "vec"),
}

PARAM_TAGS = tuple(_PARAMS)


def _param(tag: str) -> tuple[str, str]:
    if tag not in _PARAMS:
        raise ValueError(f"unknown parameter tag {tag!r}; expected one of {PARAM_TAGS}")
    return _PARAMS[tag]


def coord_dim(tag: str, dim: int) -> int:
    """Length of the parameter vector for a given tag and Gaussian dimension."""
    _, layout = _param(tag)
    return dim + (dim * dim if layout == "vec" else half_len(dim))


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _kron_block(scale: float, m: np.ndarray, layout: str, left: np.ndarray) -> np.ndarray:
    """scale (m (x) m), sandwiched as left . left^T for the vech layout."""
    kernel = np.kron(m, m)
    return scale * kernel if layout == "vec" else scale * left @ kernel @ left.T


def _alpha_from_eta_jacobian(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """d(alpha)/d(eta) = [[Sigma, -Sigma (mu^T (x) I)], [0, I]]."""
    n = mu.shape[0]
    eye = np.eye(n)
    top = np.hstack([sigma, -sigma @ np.kron(mu[None, :], eye)])
    bottom = np.hstack([np.zeros((n * n, n)), np.eye(n * n)])
    return np.vstack([top, bottom])


def fim(g, tag: str) -> np.ndarray:
    """Closed-form Fisher information matrix for the tagged parameterization."""
    which, layout = _param(tag)
    mu = g.mean
    sigma = cov_of(g)
    prec = prec_of(g)
    inverse = prec if which == "cov" else sigma
    left = duplication(mu.shape[0]).dup.T
    matrix = _block_diag(prec, _kron_block(0.5, inverse, layout, left))
    if tag == "eta":
        # Jacobian sandwich through the hybrid parameterization
        jac = _alpha_from_eta_jacobian(mu, sigma)
        matrix = jac.T @ matrix @ jac
    return 0.5 * (matrix + matrix.T)


def _eta_fim_closed(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # direct closed form for the natural-parameter FIM; cross-check of the
    # Jacobian-sandwich construction
    n = mu.shape[0]
    eye = np.eye(n)
    mu_row = np.kron(mu[None, :], eye)  # (mu^T (x) I), n x n^2
    mu_col = np.kron(mu[:, None], eye)  # (mu (x) I), n^2 x n
    top = np.hstack([sigma, -sigma @ mu_row])
    bottom = np.hstack([-mu_col @ sigma, 0.5 * np.kron(sigma, sigma) + mu_col @ sigma @ mu_row])
    return np.vstack([top, bottom])


def fim_inverse(g, tag: str) -> np.ndarray:
    """Closed-form inverse FIM; never obtained by inverting ``fim``."""
    which, layout = _param(tag)
    mu = g.mean
    sigma = cov_of(g)
    prec = prec_of(g)
    if tag == "eta":
        prec_mu = prec @ mu
        top_left = (1.0 + 2.0 * float(mu @ prec_mu)) * prec
        top_right = 2.0 * np.kron(prec_mu[None, :], prec)
        bottom_left = 2.0 * np.kron(prec_mu[:, None], prec)
        bottom_right = 2.0 * np.kron(prec, prec)
        matrix = np.vstack([np.hstack([top_left, top_right]), np.hstack([bottom_left, bottom_right])])
    else:
        m = sigma if which == "cov" else prec
        left = duplication(mu.shape[0]).pinv
        matrix = _block_diag(sigma, _kron_block(2.0, m, layout, left))
    return 0.5 * (matrix + matrix.T)


def reduce_to_unique(matrix: np.ndarray, tag: str, dim: int) -> np.ndarray:
    """Project a tagged-coordinate bilinear form onto unique (vech) coordinates.

    For vech-layout tags this is the identity. For vec-layout tags the
    matrix block is sandwiched with the duplication matrix, which is the
    only basis in which the KL Hessian is well defined (the covariance or
    precision can only be perturbed symmetrically).
    """
    _, layout = _param(tag)
    if layout == "vech":
        return matrix.copy()
    reducer = _block_diag(np.eye(dim), duplication(dim).dup)
    return reducer.T @ matrix @ reducer


def _coords(g, tag: str) -> np.ndarray:
    """The tagged coordinate vector of ``g``."""
    which, layout = _param(tag)
    mu = g.mean
    matrix = cov_of(g) if which == "cov" else prec_of(g)
    head = matrix @ mu if tag == "eta" else mu
    body = matrix.reshape(-1, order="F") if layout == "vec" else vech(matrix)
    return np.concatenate([head, body])


def _from_coords(c: np.ndarray, tag: str, n: int) -> tuple[np.ndarray, np.ndarray, str]:
    """(mean, matrix, which) read back from tagged coordinates, ``which``
    naming the matrix as in ``_PARAMS``. A vec layout is reshaped, not
    symmetrized, so that coordinates off the symmetric manifold stay off it."""
    which, layout = _param(tag)
    body = c[n:]
    matrix = body.reshape((n, n), order="F") if layout == "vec" else matf(body, n).full()
    mean = np.linalg.solve(matrix, c[:n]) if tag == "eta" else c[:n]
    return mean, matrix, which


def _kl_in_coords(g, tag: str):
    """KL(g || q') as a function of q' coordinates; analytic extension off
    the symmetric manifold for the vec-layout tags."""
    mu = g.mean
    sigma = cov_of(g)
    n = mu.shape[0]
    _, logdet_sigma = np.linalg.slogdet(sigma)

    def kl(c: np.ndarray) -> float:
        mu2, matrix, which = _from_coords(c, tag, n)
        s, logdet2 = np.linalg.slogdet(matrix)
        if s <= 0:
            name = "covariance" if which == "cov" else "precision"
            raise NotPositiveDefiniteError(f"perturbed {name} lost positivity")
        if which == "cov":
            prec2, logdet_prec2 = np.linalg.inv(matrix), -logdet2
        else:
            prec2, logdet_prec2 = matrix, logdet2
        delta = mu2 - mu
        return 0.5 * (
            float(np.trace(prec2 @ sigma))
            + float(delta @ prec2 @ delta)
            - n
            - logdet_prec2
            - logdet_sigma
        )

    return kl


def central_gradient(fn, x0: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of ``fn`` at ``x0`` with step ``h``."""
    return np.array([(fn(x0 + e) - fn(x0 - e)) / (2.0 * h) for e in h * np.eye(x0.shape[0])])


def central_hessian(fn, x0: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian of ``fn`` at ``x0`` with step ``h``."""
    n = x0.shape[0]
    hess = np.empty((n, n))
    f0 = fn(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        hess[i, i] = (fn(x0 + ei) - 2.0 * f0 + fn(x0 - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4.0 * h**2)
    return hess


def shrink_until_pd(estimate, step: float, what: str):
    """``estimate(h)`` at the first of h = step, step/2, ..., step/2^8 whose
    perturbations all stay inside the positive-definite cone."""
    h = step
    for attempt in range(9):
        try:
            return estimate(h)
        except NotPositiveDefiniteError as exc:
            if attempt == 8:
                raise NotPositiveDefiniteError(
                    f"{what} step shrank to {h:.2e} and perturbations still leave the PD cone"
                ) from exc
            h *= 0.5


def fd_kl_hessian(g, tag: str, step: float = 1e-3) -> np.ndarray:
    """Central-difference Hessian of KL(g || .) in the tagged coordinates.

    Richardson refinement combines estimates at ``step`` and ``step / 2``.
    Perturbations that leave the positive-definite cone shrink the step
    geometrically (x 1/2, at most 8 times) before giving up.
    """
    _param(tag)
    if step <= 0:
        raise ValueError("step must be positive")
    fn = _kl_in_coords(g, tag)
    x0 = _coords(g, tag)

    def estimate(h: float) -> np.ndarray:
        coarse = central_hessian(fn, x0, h)
        fine = central_hessian(fn, x0, h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    return shrink_until_pd(estimate, step, "KL Hessian")
