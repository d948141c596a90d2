"""Gauss-Hermite tensor grids and Monte Carlo expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngvi._testing import random_gaussian
from ngvi.gaussian import MeanCovariance, MeanPrecision, _draw, _standard_draws, convert
from ngvi.quadrature import (
    POINT_BUDGET,
    EvaluationError,
    ExpectationRule,
    IntegrandShapeError,
    _gh_grid,
    default_rule,
    expect_scalar,
    expect_weighted,
    pointwise,
)


def test_rule_validation():
    with pytest.raises(ValueError):
        ExpectationRule(kind="trapezoid")
    with pytest.raises(ValueError):
        ExpectationRule(kind="gauss_hermite", order=0)
    with pytest.raises(ValueError):
        ExpectationRule(kind="gauss_hermite", order=21)
    with pytest.raises(ValueError):
        ExpectationRule(kind="monte_carlo", order=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ExpectationRule(kind="monte_carlo", order=10, seed=-3)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ExpectationRule(kind="gauss_hermite", seed=-1)


def test_default_rule_switches_to_monte_carlo():
    assert default_rule(6).kind == "gauss_hermite"
    assert default_rule(7).kind == "monte_carlo"


def test_point_budget_enforced():
    # 20^5 = 3.2e6 points: refused before the grid is built
    assert 20**5 > POINT_BUDGET
    rule = ExpectationRule("gauss_hermite", order=20)
    g = MeanCovariance.from_dense(np.zeros(5), np.eye(5))
    with pytest.raises(ValueError, match="exceeds budget"):
        expect_scalar(rule, g, pointwise(lambda x: 0.0))


def test_constant_integrand():
    rng = np.random.default_rng(0)
    g = random_gaussian(2, rng)
    rule = ExpectationRule("gauss_hermite", 5)
    scalar, vector, matrix = expect_weighted(rule, g, pointwise(lambda x: 1.0))
    assert np.isclose(scalar, 1.0, atol=1e-14)
    assert np.allclose(vector, 0.0, atol=1e-12)
    # a constant's Stein moment E[((x - mu)(x - mu)^T - Sigma) c] is 0
    assert np.allclose(matrix, 0.0, atol=1e-12)


def test_polynomial_exactness_1d():
    # order-k Gauss-Hermite integrates polynomials up to degree 2k-1 exactly
    mu, var = 0.7, 1.3
    g = MeanCovariance.from_dense([mu], [[var]])
    rule = ExpectationRule("gauss_hermite", 3)
    # E[x^4] for N(mu, var)
    expected = mu**4 + 6.0 * mu**2 * var + 3.0 * var**2
    found = expect_scalar(rule, g, pointwise(lambda x: x[0] ** 4))
    assert np.isclose(found, expected, rtol=1e-13)


def test_polynomial_exactness_2d_cross_moment():
    mu = np.array([0.5, -0.3])
    sigma = np.array([[1.2, 0.4], [0.4, 0.9]])
    g = MeanCovariance.from_dense(mu, sigma)
    rule = ExpectationRule("gauss_hermite", 4)
    # E[x0 x1] = mu0 mu1 + Sigma01
    found = expect_scalar(rule, g, pointwise(lambda x: x[0] * x[1]))
    assert np.isclose(found, mu[0] * mu[1] + sigma[0, 1], rtol=1e-13)


def test_weights_are_normalized_at_every_order():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    for order in range(1, 21):
        rule = ExpectationRule("gauss_hermite", order)
        assert np.isclose(expect_scalar(rule, g, pointwise(lambda x: 1.0)), 1.0, atol=1e-14)


def test_shared_sweep_scalar_is_bit_identical():
    rng = np.random.default_rng(1)
    g = random_gaussian(3, rng)
    rule = ExpectationRule("gauss_hermite", 5)

    def f(x):
        return float(np.sin(x[0]) + x[1] ** 2 - 0.3 * x[2])

    scalar_only = expect_scalar(rule, g, pointwise(f))
    scalar_shared, _, _ = expect_weighted(rule, g, pointwise(f))
    assert scalar_only == scalar_shared


def test_weighted_matrix_is_symmetric():
    rng = np.random.default_rng(2)
    g = random_gaussian(3, rng)
    rule = ExpectationRule("gauss_hermite", 5)
    _, _, matrix = expect_weighted(rule, g, pointwise(lambda x: float(np.exp(0.1 * x[0]))))
    assert np.array_equal(matrix, matrix.T)


def test_precision_form_gives_same_answer():
    rng = np.random.default_rng(3)
    g = random_gaussian(2, rng)
    rule = ExpectationRule("gauss_hermite", 7)

    def f(x):
        return float(np.cos(x[0]) * x[1])

    a = expect_scalar(rule, g, pointwise(f))
    b = expect_scalar(rule, convert(g, "mean_prec"), pointwise(f))
    assert np.isclose(a, b, atol=1e-13)


def test_monte_carlo_determinism():
    rng = np.random.default_rng(4)
    g = random_gaussian(2, rng)
    rule = ExpectationRule("monte_carlo", 500, seed=9)
    f = lambda x: float(x[0] ** 2)
    assert expect_scalar(rule, g, pointwise(f)) == expect_scalar(rule, g, pointwise(f))


def test_monte_carlo_unbiasedness():
    # mean over independent seeds approaches the truth within 4 standard errors
    g = MeanCovariance.from_dense([1.0], [[2.0]])
    truth = 1.0**2 + 2.0  # E[x^2]
    per_seed = []
    for seed in range(50):
        rule = ExpectationRule("monte_carlo", 2000, seed=seed)
        per_seed.append(expect_scalar(rule, g, pointwise(lambda x: x[0] ** 2)))
    per_seed = np.array(per_seed)
    stderr = per_seed.std(ddof=1) / np.sqrt(len(per_seed))
    assert abs(per_seed.mean() - truth) < 4.0 * stderr


def test_nonfinite_integrand_raises_with_node():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    rule = ExpectationRule("gauss_hermite", 5)

    def bad(x):
        return np.inf if x[0] > 0 else 0.0

    with pytest.raises(EvaluationError) as excinfo:
        expect_scalar(rule, g, pointwise(bad))
    assert excinfo.value.node.shape == (1,)


def stacked_gaussians(k, d, rng):
    gs = [random_gaussian(d, rng) for _ in range(k)]
    return gs, np.stack([g.mean for g in gs]), np.stack([g.chol for g in gs])


@pytest.mark.parametrize(
    "rule", [ExpectationRule("gauss_hermite", 4), ExpectationRule("monte_carlo", 300, seed=5)]
)
def test_stacked_sweep_matches_one_gaussian_at_a_time(rule):
    rng = np.random.default_rng(12)
    gs, means, chols = stacked_gaussians(5, 3, rng)
    fs = [lambda x, a=a: np.sin(a * x[:, 0]) + x[:, 1] * x[:, 2] ** 2 for a in range(5)]
    scalar, vector, matrix = expect_weighted(rule, (means, chols), fs)
    assert scalar.shape == (5,) and vector.shape == (5, 3) and matrix.shape == (5, 3, 3)
    for k, (g, f) in enumerate(zip(gs, fs)):
        s1, v1, m1 = expect_weighted(rule, g, f)
        assert abs(scalar[k] - s1) <= 1e-14 * abs(s1)
        assert np.max(np.abs(vector[k] - v1)) <= 1e-14 * np.max(np.abs(v1))
        assert np.max(np.abs(matrix[k] - m1)) <= 1e-14 * np.max(np.abs(m1))


def test_stacked_monte_carlo_points_are_each_gaussians_draws():
    # every Gaussian gets the draws gaussian._draw makes for it with the rule's seed
    rng = np.random.default_rng(13)
    gs, means, chols = stacked_gaussians(4, 2, rng)
    seen = []

    def record(x):
        seen.append(x.copy())
        return np.zeros(x.shape[0])

    rule = ExpectationRule("monte_carlo", 50, seed=21)
    expect_weighted(rule, (means, chols), [record] * 4)
    for points, g in zip(seen, gs):
        assert np.array_equal(points, _draw(g.mean, g.chol, 50, 21))


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: x, lambda x: x[:-1, 0]], ids=["scalar", "2-d", "short"])
def test_integrand_of_wrong_shape_points_to_pointwise(f):
    g = MeanCovariance.from_dense([0.0, 1.0], np.eye(2))
    expected = "expected \\(25,\\); wrap a scalar integrand in ngvi.quadrature.pointwise"
    with pytest.raises(IntegrandShapeError, match=expected):
        expect_weighted(ExpectationRule("gauss_hermite", 5), g, f)


def test_stacked_nonfinite_value_reports_first_integrand_then_point():
    rng = np.random.default_rng(14)
    _, means, chols = stacked_gaussians(3, 2, rng)
    fine = pointwise(lambda x: 0.0)
    # integrand 1 turns non-finite past a threshold, integrand 2 everywhere
    bad = pointwise(lambda x: np.inf if x[0] > means[1, 0] else 0.0)
    rule = ExpectationRule("gauss_hermite", 5)
    with pytest.raises(EvaluationError) as excinfo:
        expect_weighted(rule, (means, chols), [fine, bad, pointwise(lambda x: np.nan)])
    nodes, _ = _gh_grid(5, 2)
    points = means[1] + nodes @ chols[1].T
    first = points[np.flatnonzero(points[:, 0] > means[1, 0])[0]]
    assert str(excinfo.value) == f"integrand returned {np.float64(np.inf)!r} at node {first.tolist()}"
    assert np.array_equal(excinfo.value.node, first)


def offset_moments(rule, means, chols, fs):
    """The moments as the sweep formed them before the node tables: from
    the offsets z L^T of every point, reduced point by point, with the
    matrix moment centred by E[f] L L^T afterwards."""
    d = means.shape[1]
    if rule.kind == "monte_carlo":
        z, weights = _standard_draws(rule.order, d, rule.seed), np.full(rule.order, 1.0 / rule.order)
    else:
        z, weights = _gh_grid(rule.order, d)
    offsets = z @ np.swapaxes(chols, -1, -2)
    values = np.stack([f(m + off) for f, m, off in zip(fs, means, offsets)])
    weighted = values * weights
    vector = np.einsum("kp,kpd->kd", weighted, offsets)
    scalar = values @ weights
    matrix = np.swapaxes(offsets * weighted[..., None], 1, 2) @ offsets
    matrix = matrix - scalar[:, None, None] * (chols @ np.swapaxes(chols, 1, 2))
    return scalar, vector, 0.5 * (matrix + np.swapaxes(matrix, 1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 4),
    k=st.integers(1, 6),
    rule=st.sampled_from(
        [
            ExpectationRule("gauss_hermite", 3),
            ExpectationRule("gauss_hermite", 5),
            ExpectationRule("monte_carlo", 200, seed=9),
        ]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_whitened_moments_match_the_offset_formula(d, k, rule, seed):
    rng = np.random.default_rng(seed)
    _, means, chols = stacked_gaussians(k, d, rng)
    a = rng.standard_normal((k, d))
    fs = [lambda x, a=a[j]: np.cos(x @ a) + (x @ a) ** 2 for j in range(k)]
    found = expect_weighted(rule, (means, chols), fs)
    for got, expected in zip(found, offset_moments(rule, means, chols, fs)):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
