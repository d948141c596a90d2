"""Fisher information matrices for five Gaussian parameterizations.

Parameter tags:

* ``theta`` -- mean plus vec(covariance), symmetry-blind
* ``gamma`` -- mean plus vech(covariance), symmetry-aware
* ``alpha`` -- mean plus vec(precision), symmetry-blind ("hybrid")
* ``beta``  -- mean plus vech(precision), symmetry-aware
* ``eta``   -- natural parameters (prec @ mean, vec(precision))

Inverses come from closed forms, never from numerically inverting the
FIM; numeric inversion is confined to test oracles.

``fd_kl_hessian`` is the definitional oracle: the central-difference
Hessian of the KL divergence in the tagged coordinates. For the
symmetry-blind tags those coordinates are redundant (off-diagonal pairs
move independently), so the FD Hessian agrees with the closed form only
on the symmetric subspace; use ``reduce_to_unique`` on both before
comparing entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import NotPositiveDefiniteError, cov_of, mean_of, prec_of
from .kronmat import duplication, half_len, matf, vech

__all__ = [
    "PARAM_TAGS",
    "FisherInfo",
    "coord_dim",
    "fim",
    "fim_inverse",
    "fd_kl_hessian",
    "reduce_to_unique",
    "central_hessian",
    "shrink_until_pd",
]

PARAM_TAGS = ("theta", "gamma", "alpha", "beta", "eta")

# tags whose matrix block uses the redundant vec layout
_VEC_TAGS = ("theta", "alpha", "eta")


@dataclass(frozen=True, eq=False)
class FisherInfo:
    """A FIM or inverse FIM tagged with its parameterization."""

    tag: str
    matrix: np.ndarray
    inverse_flag: bool


def _check_tag(tag: str) -> None:
    if tag not in PARAM_TAGS:
        raise ValueError(f"unknown parameter tag {tag!r}; expected one of {PARAM_TAGS}")


def coord_dim(tag: str, dim: int) -> int:
    """Length of the parameter vector for a given tag and Gaussian dimension."""
    _check_tag(tag)
    return dim + (dim * dim if tag in _VEC_TAGS else half_len(dim))


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _alpha_from_eta_jacobian(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """d(alpha)/d(eta) = [[Sigma, -Sigma (mu^T (x) I)], [0, I]]."""
    n = mu.shape[0]
    eye = np.eye(n)
    top = np.hstack([sigma, -sigma @ np.kron(mu[None, :], eye)])
    bottom = np.hstack([np.zeros((n * n, n)), np.eye(n * n)])
    return np.vstack([top, bottom])


def fim(g, tag: str) -> FisherInfo:
    """Closed-form Fisher information matrix for the tagged parameterization."""
    _check_tag(tag)
    mu = mean_of(g)
    sigma = cov_of(g)
    prec = prec_of(g)
    n = mu.shape[0]
    if tag == "theta":
        matrix = _block_diag(prec, 0.5 * np.kron(prec, prec))
    elif tag == "gamma":
        d = duplication(n).dup
        matrix = _block_diag(prec, 0.5 * d.T @ np.kron(prec, prec) @ d)
    elif tag == "alpha":
        matrix = _block_diag(prec, 0.5 * np.kron(sigma, sigma))
    elif tag == "beta":
        d = duplication(n).dup
        matrix = _block_diag(prec, 0.5 * d.T @ np.kron(sigma, sigma) @ d)
    else:
        # Jacobian sandwich through the hybrid parameterization
        jac = _alpha_from_eta_jacobian(mu, sigma)
        alpha_fim = _block_diag(prec, 0.5 * np.kron(sigma, sigma))
        matrix = jac.T @ alpha_fim @ jac
    matrix = 0.5 * (matrix + matrix.T)
    return FisherInfo(tag, matrix, inverse_flag=False)


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


def fim_inverse(g, tag: str) -> FisherInfo:
    """Closed-form inverse FIM; never obtained by inverting ``fim``."""
    _check_tag(tag)
    mu = mean_of(g)
    sigma = cov_of(g)
    prec = prec_of(g)
    n = mu.shape[0]
    if tag == "theta":
        matrix = _block_diag(sigma, 2.0 * np.kron(sigma, sigma))
    elif tag == "gamma":
        dp = duplication(n).pinv
        matrix = _block_diag(sigma, 2.0 * dp @ np.kron(sigma, sigma) @ dp.T)
    elif tag == "alpha":
        matrix = _block_diag(sigma, 2.0 * np.kron(prec, prec))
    elif tag == "beta":
        dp = duplication(n).pinv
        matrix = _block_diag(sigma, 2.0 * dp @ np.kron(prec, prec) @ dp.T)
    else:
        eye = np.eye(n)
        prec_mu = prec @ mu
        top_left = (1.0 + 2.0 * float(mu @ prec_mu)) * prec
        top_right = 2.0 * np.kron(prec_mu[None, :], prec)
        bottom_left = 2.0 * np.kron(prec_mu[:, None], prec)
        bottom_right = 2.0 * np.kron(prec, prec)
        matrix = np.vstack(
            [np.hstack([top_left, top_right]), np.hstack([bottom_left, bottom_right])]
        )
    matrix = 0.5 * (matrix + matrix.T)
    return FisherInfo(tag, matrix, inverse_flag=True)


def reduce_to_unique(matrix: np.ndarray, tag: str, dim: int) -> np.ndarray:
    """Project a tagged-coordinate bilinear form onto unique (vech) coordinates.

    For vech-layout tags this is the identity. For vec-layout tags the
    matrix block is sandwiched with the duplication matrix, which is the
    only basis in which the KL Hessian is well defined (the covariance or
    precision can only be perturbed symmetrically).
    """
    _check_tag(tag)
    if tag not in _VEC_TAGS:
        return matrix.copy()
    n = dim
    reducer = _block_diag(np.eye(n), duplication(n).dup)
    return reducer.T @ matrix @ reducer


def _pack_coords(g, tag: str) -> np.ndarray:
    mu = mean_of(g)
    sigma = cov_of(g)
    prec = prec_of(g)
    if tag == "theta":
        return np.concatenate([mu, sigma.reshape(-1, order="F")])
    if tag == "gamma":
        return np.concatenate([mu, vech(sigma)])
    if tag == "alpha":
        return np.concatenate([mu, prec.reshape(-1, order="F")])
    if tag == "beta":
        return np.concatenate([mu, vech(prec)])
    return np.concatenate([prec @ mu, prec.reshape(-1, order="F")])


def _kl_in_coords(g, tag: str):
    """KL(g || q') as a function of q' coordinates; analytic extension off
    the symmetric manifold for the vec-layout tags."""
    mu = mean_of(g)
    sigma = cov_of(g)
    n = mu.shape[0]
    sign, logdet_sigma = np.linalg.slogdet(sigma)

    def from_cov(mu2: np.ndarray, sigma2: np.ndarray) -> float:
        s, logdet2 = np.linalg.slogdet(sigma2)
        if s <= 0:
            raise NotPositiveDefiniteError("perturbed covariance lost positivity")
        prec2 = np.linalg.inv(sigma2)
        delta = mu2 - mu
        return 0.5 * (
            float(np.trace(prec2 @ sigma))
            + float(delta @ prec2 @ delta)
            - n
            + logdet2
            - logdet_sigma
        )

    def from_prec(mu2: np.ndarray, prec2: np.ndarray) -> float:
        s, logdet2 = np.linalg.slogdet(prec2)
        if s <= 0:
            raise NotPositiveDefiniteError("perturbed precision lost positivity")
        delta = mu2 - mu
        return 0.5 * (
            float(np.trace(prec2 @ sigma))
            + float(delta @ prec2 @ delta)
            - n
            - logdet2
            - logdet_sigma
        )

    if tag == "theta":
        return lambda c: from_cov(c[:n], c[n:].reshape((n, n), order="F"))
    if tag == "gamma":
        return lambda c: from_cov(c[:n], matf(c[n:], n).full())
    if tag == "alpha":
        return lambda c: from_prec(c[:n], c[n:].reshape((n, n), order="F"))
    if tag == "beta":
        return lambda c: from_prec(c[:n], matf(c[n:], n).full())

    def eta_fn(c: np.ndarray) -> float:
        prec2 = c[n:].reshape((n, n), order="F")
        s, _ = np.linalg.slogdet(prec2)
        if s <= 0:
            raise NotPositiveDefiniteError("perturbed precision lost positivity")
        mu2 = np.linalg.solve(prec2, c[:n])
        return from_prec(mu2, prec2)

    return eta_fn


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


def fd_kl_hessian(g, tag: str, step: float = 1e-3, refine: bool = True) -> np.ndarray:
    """Central-difference Hessian of KL(g || .) in the tagged coordinates.

    Richardson refinement combines estimates at ``step`` and ``step / 2``.
    Perturbations that leave the positive-definite cone shrink the step
    geometrically (x 1/2, at most 8 times) before giving up.
    """
    _check_tag(tag)
    if step <= 0:
        raise ValueError("step must be positive")
    fn = _kl_in_coords(g, tag)
    x0 = _pack_coords(g, tag)

    def estimate(h: float) -> np.ndarray:
        coarse = central_hessian(fn, x0, h)
        if not refine:
            return coarse
        fine = central_hessian(fn, x0, h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    return shrink_until_pd(estimate, step, "KL Hessian")
