"""Gaussian forms, conversions, log-density, KL divergence, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngvi._testing import random_gaussian
from ngvi.gaussian import (
    MeanCovariance,
    MeanPrecision,
    NotPositiveDefiniteError,
    convert,
    cov_of,
    kl,
    log_pdf,
    prec_of,
    sample,
    tril_inverse,
)
from ngvi.kronmat import DimensionError, SymmetricMatrix
from ngvi.quadrature import ExpectationRule, expect_scalar


def test_construction_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        MeanCovariance.from_dense([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        MeanPrecision.from_dense([0.0], [[-1.0]])


def test_construction_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        MeanCovariance([0.0, 0.0, 0.0], SymmetricMatrix.from_full(np.eye(2)))


def test_conversion_round_trips():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        g = random_gaussian(n, rng)
        for target in ("mean_prec", "mean_cov"):
            back = convert(convert(g, target), "mean_cov")
            assert np.allclose(back.mean, g.mean, atol=1e-12)
            assert np.allclose(back.cov.full(), g.cov.full(), atol=1e-12)


def test_convert_same_form_is_identity_object():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    assert convert(g, "mean_cov") is g


def test_accessors_consistent_across_forms():
    rng = np.random.default_rng(1)
    g = random_gaussian(3, rng)
    for target in ("mean_cov", "mean_prec"):
        h = convert(g, target)
        assert np.allclose(h.mean, g.mean, atol=1e-12)
        assert np.allclose(cov_of(h), g.cov.full(), atol=1e-12)
        assert np.allclose(cov_of(h) @ prec_of(h), np.eye(3), atol=1e-12)


def test_log_pdf_standard_normal():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    assert np.isclose(log_pdf(g, [0.0]), -0.5 * np.log(2.0 * np.pi), atol=1e-14)
    assert np.isclose(log_pdf(g, [1.0]), -0.5 - 0.5 * np.log(2.0 * np.pi), atol=1e-14)


def test_log_pdf_agrees_across_forms():
    rng = np.random.default_rng(2)
    g = random_gaussian(3, rng)
    x = rng.standard_normal(3)
    vals = [log_pdf(convert(g, t), x) for t in ("mean_cov", "mean_prec")]
    assert np.allclose(vals, vals[0], atol=1e-12)


def test_log_pdf_of_a_batch_matches_each_point():
    rng = np.random.default_rng(12)
    g = random_gaussian(3, rng)
    xs = rng.standard_normal((50, 3))
    for tag in ("mean_cov", "mean_prec"):
        form = convert(g, tag)
        batch = log_pdf(form, xs)
        assert batch.shape == (50,)
        single = [log_pdf(form, x) for x in xs]
        assert all(isinstance(v, float) for v in single)
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionError):
        log_pdf(g, xs[:, :2])


def test_log_pdf_integrates_to_density_values():
    # direct dense formula as oracle
    rng = np.random.default_rng(3)
    n = 2
    g = random_gaussian(n, rng)
    x = rng.standard_normal(n)
    sigma = g.cov.full()
    delta = x - g.mean
    expected = -0.5 * (
        delta @ np.linalg.solve(sigma, delta)
        + np.log(np.linalg.det(sigma))
        + n * np.log(2.0 * np.pi)
    )
    assert np.isclose(log_pdf(g, x), expected, atol=1e-12)


def test_kl_self_is_zero():
    rng = np.random.default_rng(4)
    g = random_gaussian(3, rng)
    assert abs(kl(g, g)) < 1e-14


def test_kl_unit_mean_shift():
    # KL(N(0,1) || N(1,1)) = 1/2
    q = MeanCovariance.from_dense([0.0], [[1.0]])
    p = MeanCovariance.from_dense([1.0], [[1.0]])
    assert np.isclose(kl(q, p), 0.5, atol=1e-14)


def test_kl_variance_two_vs_one():
    # KL(N(0,2) || N(0,1)) = (2 - 1 - ln 2) / 2 = 0.15342640972002733
    q = MeanCovariance.from_dense([0.0], [[2.0]])
    p = MeanCovariance.from_dense([0.0], [[1.0]])
    assert np.isclose(kl(q, p), 0.15342640972002733, atol=1e-14)


def test_kl_nonnegative_and_asymmetric():
    rng = np.random.default_rng(5)
    q = random_gaussian(3, rng)
    p = random_gaussian(3, rng)
    assert kl(q, p) > 0.0
    assert kl(p, q) > 0.0
    assert not np.isclose(kl(q, p), kl(p, q), atol=1e-6)


def test_kl_monte_carlo_oracle():
    # E_q[ln q - ln p] estimated by sampling matches the closed form
    rng = np.random.default_rng(6)
    q = random_gaussian(2, rng)
    p = random_gaussian(2, rng)
    xs = sample(q, 200_000, seed=7)
    est = np.mean(log_pdf(q, xs) - log_pdf(p, xs))
    assert np.isclose(est, kl(q, p), atol=0.05 * max(1.0, kl(q, p)))


def test_kl_second_order_in_perturbation():
    # a mean-only shift gives KL = (1/2) d^T Sigma^{-1} d exactly, so
    # halving eps divides KL by exactly 4
    rng = np.random.default_rng(8)
    g = random_gaussian(2, rng)
    direction = rng.standard_normal(2)
    prev = None
    eps = 0.1
    for _ in range(3):
        shifted = MeanCovariance(g.mean + eps * direction, g.cov)
        val = kl(g, shifted)
        if prev is not None:
            assert np.isclose(prev / val, 4.0, rtol=1e-10)
        prev = val
        eps *= 0.5


def test_entropy_identity_under_quadrature():
    # E_q[-ln q] - (n/2)(1 + ln 2 pi) - (1/2) ln |Sigma| = 0
    rng = np.random.default_rng(9)
    n = 2
    g = random_gaussian(n, rng)
    rule = ExpectationRule("gauss_hermite", 7)
    neg_ent = expect_scalar(rule, g, lambda x: -log_pdf(g, x))
    closed = 0.5 * n * (1.0 + np.log(2.0 * np.pi)) + 0.5 * np.log(
        np.linalg.det(g.cov.full())
    )
    assert np.isclose(neg_ent, closed, atol=1e-10)


def test_sample_determinism_and_moments():
    rng = np.random.default_rng(10)
    g = random_gaussian(3, rng)
    a = sample(g, 1000, seed=42)
    b = sample(g, 1000, seed=42)
    assert np.array_equal(a, b)
    big = sample(g, 400_000, seed=11)
    assert np.allclose(big.mean(axis=0), g.mean, atol=0.02)
    assert np.allclose(np.cov(big.T), g.cov.full(), atol=0.05)


def test_sample_rejects_nonpositive_count():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        sample(g, 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 63, 64, 65, 129, 200]),
    log_cond=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_tril_inverse_inverts_the_factor(n, log_cond, seed):
    # a precision of condition number up to 1e12: random eigenvectors,
    # eigenvalues spread evenly in log scale
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    prec = (basis * np.logspace(0.0, -log_cond, n)) @ basis.T
    chol = np.linalg.cholesky(0.5 * (prec + prec.T))
    w = tril_inverse(chol)
    cov = w.T @ w
    assert np.array_equal(cov, cov.T)
    # a backward-stable inverse: residual and forward error within
    # n eps cond(L), the factor's 2-norm condition number
    bound = n * np.finfo(float).eps * np.linalg.cond(chol)
    assert np.max(np.abs(chol @ w - np.eye(n))) <= bound
    ref = np.linalg.inv(chol)
    assert np.max(np.abs(w - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "matrix",
    [
        [[2.0, 1.0], [1.0, 0.5]],
        [[3.8873945481944796, 2.5281465849980265], [2.5281465849980265, 1.6441668258771829]],
    ],
    ids=["exactly-singular", "near-singular"],
)
def test_tril_inverse_refuses_a_numerically_singular_factor(matrix):
    # both pass their Cholesky factorization with a squared pivot ratio
    # below eps (5.6e-17 and 5.7e-17)
    chol = np.linalg.cholesky(np.array(matrix))
    with pytest.raises(np.linalg.LinAlgError):
        tril_inverse(chol)
    with pytest.raises(np.linalg.LinAlgError):
        MeanPrecision.from_dense([0.0, 0.0], matrix).covariance
