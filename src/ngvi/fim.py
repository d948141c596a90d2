"""Fisher information matrices for five Gaussian parameterizations.

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
"""

from __future__ import annotations

import numpy as np

from .gaussian import NotPositiveDefiniteError, cov_of, mean_of, prec_of
from .kronmat import duplication, half_len, matf, vech

__all__ = [
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
    mu = mean_of(g)
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
    mu = mean_of(g)
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
    mu = mean_of(g)
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
    mu = mean_of(g)
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
