"""Fisher information matrices, closed-form inverses, and the FD-KL oracle."""

import numpy as np
import pytest

from ngvi._testing import random_gaussian, random_spd
from ngvi.fim import (
    PARAM_TAGS,
    _eta_fim_closed,
    coord_dim,
    fd_kl_hessian,
    fim,
    fim_inverse,
    reduce_to_unique,
)
from ngvi.gaussian import MeanCovariance, MeanPrecision, NotPositiveDefiniteError
from ngvi.kronmat import duplication, half_len, kron, vec


def test_coord_dim():
    assert coord_dim("theta", 3) == 3 + 9
    assert coord_dim("gamma", 3) == 3 + 6
    assert coord_dim("alpha", 3) == 3 + 9
    assert coord_dim("beta", 3) == 3 + 6
    assert coord_dim("eta", 3) == 3 + 9


def test_unknown_tag_rejected():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        fim(g, "delta")


def test_theta_fim_scalar_example():
    # N=1, sigma^2 = 2: I_theta = diag(1/2, 1/8)
    g = MeanCovariance.from_dense([0.0], [[2.0]])
    assert np.allclose(fim(g, "theta").matrix, np.diag([0.5, 0.125]), atol=1e-14)


def test_theta_fim_inverse_scalar_example():
    g = MeanCovariance.from_dense([0.0], [[2.0]])
    assert np.allclose(fim_inverse(g, "theta").matrix, np.diag([2.0, 8.0]), atol=1e-14)


def test_gamma_fim_identity_covariance_structure():
    # N=2, Sigma=I: matrix block (1/2) D^T D = diag(1/2, 1, 1/2)
    g = MeanCovariance.from_dense([0.0, 0.0], np.eye(2))
    matrix = fim(g, "gamma").matrix
    assert np.allclose(matrix[:2, :2], np.eye(2), atol=1e-14)
    assert np.allclose(matrix[2:, 2:], np.diag([0.5, 1.0, 0.5]), atol=1e-14)


def test_eta_fim_decouples_at_zero_mean():
    rng = np.random.default_rng(0)
    n = 2
    g = MeanCovariance.from_dense(np.zeros(n), random_spd(n, rng))
    matrix = fim(g, "eta").matrix
    assert np.allclose(matrix[:n, n:], 0.0, atol=1e-13)
    assert np.allclose(matrix[:n, :n], g.cov.full(), atol=1e-13)


def test_eta_inverse_top_left_example():
    # N=1, mu=1, sigma^2=1: top-left of the inverse is (1 + 2 mu^2/sigma^2)/sigma^2 = 3
    g = MeanCovariance.from_dense([1.0], [[1.0]])
    inv = fim_inverse(g, "eta").matrix
    assert np.isclose(inv[0, 0], 3.0, atol=1e-13)


def test_eta_sandwich_matches_direct_closed_form():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        g = random_gaussian(n, rng)
        sandwich = fim(g, "eta").matrix
        direct = _eta_fim_closed(g.mean, g.cov.full())
        direct = 0.5 * (direct + direct.T)
        assert np.allclose(sandwich, direct, atol=1e-10)


def test_gamma_fim_is_jacobian_sandwich_of_theta():
    # I_gamma = J^T I_theta J with J = blockdiag(I, D)
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        g = random_gaussian(n, rng)
        d = duplication(n).dup
        jac = np.zeros((n + n * n, n + half_len(n)))
        jac[:n, :n] = np.eye(n)
        jac[n:, n:] = d
        sandwich = jac.T @ fim(g, "theta").matrix @ jac
        assert np.allclose(sandwich, fim(g, "gamma").matrix, atol=1e-12)


def test_theta_alpha_block_product():
    # (1/2 P (x) P)(2 S (x) S) = I, connecting the theta and alpha blocks
    rng = np.random.default_rng(3)
    n = 3
    g = random_gaussian(n, rng)
    sigma = g.cov.full()
    prec = np.linalg.inv(sigma)
    product = (0.5 * kron(prec, prec)) @ (2.0 * kron(sigma, sigma))
    assert np.allclose(product, np.eye(n * n), atol=1e-12)


def test_closed_inverse_times_fim_is_identity():
    rng = np.random.default_rng(4)
    for tag in PARAM_TAGS:
        for n in (1, 2, 3):
            g = random_gaussian(n, rng)
            product = fim_inverse(g, tag).matrix @ fim(g, tag).matrix
            assert np.allclose(product, np.eye(product.shape[0]), atol=1e-10), tag


def test_fim_is_spd():
    rng = np.random.default_rng(5)
    for tag in ("gamma", "beta", "eta"):
        g = random_gaussian(2, rng)
        eigs = np.linalg.eigvalsh(fim(g, tag).matrix)
        assert eigs.min() > 0.0


def test_fd_kl_hessian_matches_fim_on_unique_coordinates():
    rng = np.random.default_rng(6)
    for tag in PARAM_TAGS:
        for n in (1, 2):
            g = random_gaussian(n, rng)
            closed = reduce_to_unique(fim(g, tag).matrix, tag, n)
            numeric = reduce_to_unique(fd_kl_hessian(g, tag), tag, n)
            rel = np.linalg.norm(numeric - closed) / np.linalg.norm(closed)
            assert rel < 1e-5, (tag, n, rel)


def test_reduce_to_unique_is_identity_for_vech_tags():
    rng = np.random.default_rng(7)
    g = random_gaussian(2, rng)
    for tag in ("gamma", "beta"):
        matrix = fim(g, tag).matrix
        assert np.array_equal(reduce_to_unique(matrix, tag, 2), matrix)


def test_reduce_to_unique_theta_block_equals_gamma_block():
    # sandwiching the theta FIM yields exactly the gamma FIM
    rng = np.random.default_rng(8)
    g = random_gaussian(3, rng)
    reduced = reduce_to_unique(fim(g, "theta").matrix, "theta", 3)
    assert np.allclose(reduced, fim(g, "gamma").matrix, atol=1e-12)


def test_fd_hessian_accepts_all_forms():
    g = MeanPrecision.from_dense([0.3], [[2.0]])
    closed = fim(g, "beta").matrix
    numeric = fd_kl_hessian(g, "beta")
    assert np.allclose(numeric, closed, rtol=1e-5, atol=1e-8)


def test_fd_hessian_rejects_bad_step():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        fd_kl_hessian(g, "theta", step=0.0)


def test_fd_hessian_failure_names_smallest_step_tried():
    # a covariance this small leaves the PD cone at every step tried
    g = MeanCovariance.from_dense([0.0], [[1e-9]])
    with pytest.raises(NotPositiveDefiniteError, match=f"shrank to {1e-3 / 2**8:.2e}"):
        fd_kl_hessian(g, "gamma", step=1e-3)


def test_fisher_info_records_tag_and_flag():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    info = fim(g, "alpha")
    assert info.tag == "alpha"
    assert info.inverse_flag is False
    assert fim_inverse(g, "alpha").inverse_flag is True
