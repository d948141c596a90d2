"""The loss functional V(q) and its derivative bundle."""

import numpy as np
import pytest

from ngvi._testing import random_gaussian, random_spd
from ngvi.gaussian import MeanPrecision, NotPositiveDefiniteError, convert
from ngvi.kronmat import DimensionError
from ngvi.quadrature import ExpectationRule, pointwise
from ngvi.verify import direct_grad_prec, fd_check
from ngvi.vloss import (
    LossFunctional,
    value,
    value_and_derivatives,
)

RULE5 = ExpectationRule("gauss_hermite", 5)


def quadratic_loss(m, p):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)

    def phi(x):
        d = x - m
        return float(0.5 * d @ p @ d)

    return LossFunctional(m.shape[0], pointwise(phi))


def test_value_of_quadratic_closed_form():
    # E[phi] = (1/2)(mu - m)^T P (mu - m) + (1/2) tr(P Sigma)
    rng = np.random.default_rng(0)
    n = 3
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    g = random_gaussian(n, rng)
    sigma = g.cov.full()
    prec = np.linalg.inv(sigma)
    expected = (
        0.5 * (g.mean - m) @ p @ (g.mean - m)
        + 0.5 * np.trace(p @ sigma)
        + 0.5 * np.log(np.linalg.det(prec))
    )
    assert np.isclose(value(loss, g, RULE5), expected, atol=1e-10)


def test_quadratic_derivatives_closed_form():
    # grad_mu = P (mu - m), hess_mu = P, independent of q
    rng = np.random.default_rng(1)
    n = 2
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    g = random_gaussian(n, rng)
    _, bundle = value_and_derivatives(loss, g, RULE5)
    assert np.allclose(bundle.grad_mu, p @ (g.mean - m), atol=1e-10)
    assert np.allclose(bundle.hess_mu.full(), p, atol=1e-10)


def test_gradient_vanishes_at_stationary_point():
    # at mu = m and prec = P the mean gradient and precision gradient vanish
    rng = np.random.default_rng(2)
    n = 2
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    q = MeanPrecision.from_dense(m, p)
    _, bundle = value_and_derivatives(loss, q, RULE5)
    assert np.allclose(bundle.grad_mu, 0.0, atol=1e-12)
    assert np.allclose(bundle.grad_prec.full(), 0.0, atol=1e-12)


def test_precision_to_mean_hessian_relation_quartic():
    # the direct moment formula for grad_prec against the bundle's
    # (1/2) Sigma - (1/2) Sigma hess_mu Sigma, polynomial integrand
    rng = np.random.default_rng(3)
    n = 2
    g = random_gaussian(n, rng)

    def quartic(x):
        return float(0.1 * np.sum(x**4) + 0.5 * x @ x + 0.2 * x[0] * x[1] + x[0])

    loss = LossFunctional(n, pointwise(quartic))
    rule = ExpectationRule("gauss_hermite", 7)
    relation = value_and_derivatives(loss, g, rule)[1].grad_prec.full()
    assert np.max(np.abs(direct_grad_prec(loss, g, rule) - relation)) < 1e-8


def test_precision_to_mean_hessian_relation_cosine():
    g = MeanPrecision.from_dense([0.2], [[1.5]])
    loss = LossFunctional(1, pointwise(lambda x: float(np.cos(x[0]))))
    rule = ExpectationRule("gauss_hermite", 15)
    relation = value_and_derivatives(loss, g, rule)[1].grad_prec.full()
    assert abs(direct_grad_prec(loss, g, rule)[0, 0] - relation[0, 0]) < 1e-6


def test_value_and_derivatives_shares_one_sweep():
    rng = np.random.default_rng(4)
    g = random_gaussian(2, rng)

    calls = []

    def phi(x):
        calls.append(1)
        return float(x @ x)

    loss = LossFunctional(2, pointwise(phi))
    value_and_derivatives(loss, g, RULE5)
    assert len(calls) == 5**2


def test_value_and_derivatives_value_matches_value():
    rng = np.random.default_rng(5)
    g = random_gaussian(2, rng)
    loss = LossFunctional(2, pointwise(lambda x: float(np.tanh(x[0]) + x[1] ** 2)))
    v1 = value(loss, g, RULE5)
    v2, _ = value_and_derivatives(loss, g, RULE5)
    assert v1 == v2


def test_dimension_mismatch_rejected():
    loss = LossFunctional(2, pointwise(lambda x: 0.0))
    g = MeanPrecision.from_dense([0.0], [[1.0]])
    with pytest.raises(DimensionError):
        value(loss, g, RULE5)


def test_invalid_dimension_rejected():
    with pytest.raises(DimensionError):
        LossFunctional(0, pointwise(lambda x: 0.0))


def test_fd_check_quadratic():
    rng = np.random.default_rng(6)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    g = random_gaussian(n, rng)
    report = fd_check(loss, convert(g, "mean_prec"), RULE5)
    assert report.grad_mu_error < 1e-5
    assert report.hess_mu_error < 1e-5
    assert report.grad_prec_error < 1e-5


def test_fd_check_logistic():
    a = np.array([1.5])

    def phi(x):
        t = float(a @ x)
        return float(np.logaddexp(0.0, t) - t)  # label 1

    loss = LossFunctional(1, pointwise(phi))
    g = MeanPrecision.from_dense([0.3], [[2.0]])
    report = fd_check(loss, g, ExpectationRule("gauss_hermite", 15))
    assert report.grad_mu_error < 1e-4
    assert report.hess_mu_error < 1e-4
    assert report.grad_prec_error < 1e-4


def test_fd_check_rejects_bad_step():
    loss = LossFunctional(1, pointwise(lambda x: 0.0))
    g = MeanPrecision.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        fd_check(loss, g, RULE5, step=-1.0)


def test_fd_check_failure_names_smallest_step_tried():
    # a precision this small leaves the PD cone at every step tried
    loss = LossFunctional(1, pointwise(lambda x: float(x[0] ** 2)))
    g = MeanPrecision.from_dense([0.0], [[1e-9]])
    with pytest.raises(NotPositiveDefiniteError, match=f"shrank to {1e-5 / 2**8:.2e}"):
        fd_check(loss, g, RULE5)
