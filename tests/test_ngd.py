"""Natural-gradient steps and the hybrid fixed-point iteration."""

import numpy as np
import pytest

from ngvi._testing import random_gaussian, random_spd, random_symmetric
from ngvi.fim import fim_inverse
from ngvi.gaussian import MeanCovariance, MeanPrecision, convert
from ngvi.kronmat import duplication, matf, vec
from ngvi.ngd import (
    ConfigError,
    IndefiniteHessianError,
    NgdConfig,
    iterate_hybrid,
    optimize,
    step_hybrid,
)
from ngvi.quadrature import ExpectationRule
from ngvi.verify import natural_delta, step_canonical, step_generic
from ngvi.vloss import DerivativeBundle, LossFunctional, derivatives, value_and_derivatives
from ngvi.kronmat import SymmetricMatrix

RULE5 = ExpectationRule("gauss_hermite", 5)


def quadratic_loss(m, p):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)

    def phi(x):
        d = x - m
        return float(0.5 * d @ p @ d)

    return LossFunctional(m.shape[0], phi)


def test_config_validation():
    with pytest.raises(ConfigError):
        NgdConfig(max_iters=0)
    with pytest.raises(ConfigError):
        NgdConfig(rel_tol=0.0)
    with pytest.raises(ConfigError):
        NgdConfig(step_scale=0.0)
    with pytest.raises(ConfigError):
        NgdConfig(step_scale=1.5)
    with pytest.raises(ConfigError):
        NgdConfig(jitter=-1.0)


@pytest.mark.parametrize("field", ["rel_tol", "jitter"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, bad):
    with pytest.raises(ConfigError, match=field):
        NgdConfig(**{field: bad})


def test_natural_delta_matches_explicit_inverse_product():
    rng = np.random.default_rng(0)
    for tag in ("theta", "gamma", "alpha", "beta", "eta"):
        g = random_gaussian(3, rng)
        inv = fim_inverse(g, tag).matrix
        grad = rng.standard_normal(inv.shape[0])
        assert np.allclose(natural_delta(g, tag, grad), -(inv @ grad), atol=1e-13)


def test_natural_delta_rejects_wrong_length():
    g = MeanCovariance.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        natural_delta(g, "theta", np.zeros(5))


def test_mean_delta_is_minus_covariance_times_gradient():
    # at Sigma = I the theta mean block gives delta_mu = -g
    g = MeanCovariance.from_dense([0.0, 0.0], np.eye(2))
    grad = np.array([0.3, -0.7])
    delta = natural_delta(g, "theta", np.concatenate([grad, np.zeros(4)]))
    assert np.allclose(delta[:2], -grad, atol=1e-14)


def test_symmetry_blind_and_aware_updates_agree():
    # theta vs gamma, and alpha vs beta: the symmetric-matrix update is the
    # same whether computed in redundant vec or unique vech coordinates,
    # provided the vech gradient is D^T times the vec gradient
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g = random_gaussian(n, rng)
        grad_mu = rng.standard_normal(n)
        grad_matrix = random_symmetric(n, rng)
        pair = duplication(n)
        blind = np.concatenate([grad_mu, vec(grad_matrix)])
        aware = np.concatenate([grad_mu, pair.dup.T @ vec(grad_matrix)])
        for vec_tag, vech_tag in (("theta", "gamma"), ("alpha", "beta")):
            d_blind = natural_delta(g, vec_tag, blind)
            d_aware = natural_delta(g, vech_tag, aware)
            assert np.allclose(d_blind[:n], d_aware[:n], atol=1e-10)
            blind_matrix = d_blind[n:].reshape((n, n), order="F")
            aware_matrix = matf(d_aware[n:], n).full()
            assert np.max(np.abs(blind_matrix - aware_matrix)) < 1e-10


def test_step_generic_returns_native_forms():
    rng = np.random.default_rng(2)
    g = random_gaussian(2, rng)
    zero = {tag: np.zeros(fim_inverse(g, tag).matrix.shape[0]) for tag in
            ("theta", "gamma", "alpha", "beta", "eta")}
    assert step_generic(g, "theta", zero["theta"]).form == "mean_cov"
    assert step_generic(g, "gamma", zero["gamma"]).form == "mean_cov"
    assert step_generic(g, "alpha", zero["alpha"]).form == "mean_prec"
    assert step_generic(g, "beta", zero["beta"]).form == "mean_prec"
    assert step_generic(g, "eta", zero["eta"]).form == "natural"


def test_zero_gradient_is_fixed_point_for_all_tags():
    rng = np.random.default_rng(3)
    g = random_gaussian(2, rng)
    for tag in ("theta", "gamma", "alpha", "beta", "eta"):
        grad = np.zeros(fim_inverse(g, tag).matrix.shape[0])
        out = convert(step_generic(g, tag, grad), "mean_cov")
        assert np.allclose(out.mean, g.mean, atol=1e-12)
        assert np.allclose(out.cov.full(), g.cov.full(), atol=1e-12)


def test_eta_update_decouples_at_zero_mean():
    # with mu = 0 a pure mean-block gradient leaves the precision unchanged
    rng = np.random.default_rng(4)
    n = 2
    g = MeanCovariance.from_dense(np.zeros(n), random_spd(n, rng))
    grad = np.concatenate([rng.standard_normal(n), np.zeros(n * n)])
    out = step_generic(g, "eta", grad)
    assert np.allclose(out.eta2.full(), np.linalg.inv(g.cov.full()), atol=1e-12)


def test_step_hybrid_one_step_exactness_on_quadratic():
    # from any start, one hybrid step lands exactly on the quadratic target
    rng = np.random.default_rng(5)
    n = 3
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    bundle = derivatives(loss, q0, RULE5)
    q1 = step_hybrid(q0, bundle)
    assert np.max(np.abs(q1.mean - m)) < 1e-10
    assert np.max(np.abs(q1.prec.full() - p)) < 1e-10


def test_step_hybrid_step_scale_dampens_mean_only():
    rng = np.random.default_rng(6)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    bundle = derivatives(loss, q0, RULE5)
    full = step_hybrid(q0, bundle, step_scale=1.0)
    half = step_hybrid(q0, bundle, step_scale=0.5)
    assert np.allclose(half.prec.full(), full.prec.full(), atol=1e-14)
    assert np.allclose(half.mean - q0.mean, 0.5 * (full.mean - q0.mean), atol=1e-12)


def test_step_hybrid_raises_on_indefinite_hessian():
    q = MeanPrecision.from_dense([0.0], [[1.0]])
    bundle = DerivativeBundle(
        np.array([0.0]),
        SymmetricMatrix.from_full(np.array([[-1.0]])),
        SymmetricMatrix.from_full(np.array([[0.0]])),
    )
    with pytest.raises(IndefiniteHessianError) as excinfo:
        step_hybrid(q, bundle)
    assert excinfo.value.min_eigenvalue == pytest.approx(-1.0)


def test_step_hybrid_jitter_rescues_indefinite_hessian():
    q = MeanPrecision.from_dense([0.0], [[1.0]])
    bundle = DerivativeBundle(
        np.array([1.0]),
        SymmetricMatrix.from_full(np.array([[-0.5]])),
        SymmetricMatrix.from_full(np.array([[0.0]])),
    )
    out = step_hybrid(q, bundle, jitter=1.0)
    assert np.isclose(out.prec.full()[0, 0], 0.5, atol=1e-14)


def test_step_canonical_matches_hybrid_on_quadratic():
    # on a quadratic both steps land on the same target in one move
    rng = np.random.default_rng(7)
    n = 2
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    q0 = MeanPrecision.from_dense(m, p)  # start at the optimum: both stay put
    bundle = derivatives(loss, q0, RULE5)
    out = step_canonical(convert(q0, "mean_cov"), bundle)
    assert np.allclose(out.mean, m, atol=1e-10)
    assert np.allclose(out.cov.full(), np.linalg.inv(p), atol=1e-10)


def test_optimize_converges_at_iteration_one_on_quadratic():
    rng = np.random.default_rng(8)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(np.zeros(n), np.eye(n))
    q, trace = optimize(loss, q0, NgdConfig(rule=RULE5))
    assert trace.converged
    assert trace.records[-1].iteration == 1
    assert len(trace) == 2


def test_optimize_restart_converges_without_moving():
    rng = np.random.default_rng(9)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(np.zeros(n), np.eye(n))
    q1, _ = optimize(loss, q0, NgdConfig(rule=RULE5))
    q2, trace = optimize(loss, q1, NgdConfig(rule=RULE5))
    assert trace.converged
    assert trace.records[-1].iteration == 0
    assert np.array_equal(q2.mean, q1.mean)
    assert np.array_equal(q2.prec.half, q1.prec.half)


def test_optimize_trace_values_non_increasing():
    g_loss = LossFunctional(1, lambda x: float(np.logaddexp(0.0, 2.0 * x[0]) + 0.5 * x[0] ** 2))
    q0 = MeanPrecision.from_dense([2.0], [[0.5]])
    cfg = NgdConfig(rule=ExpectationRule("gauss_hermite", 15))
    _, trace = optimize(g_loss, q0, cfg)
    values = [r.value for r in trace.records]
    assert trace.converged
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-9 * max(1.0, abs(earlier))
    assert all(r.accepted for r in trace.records)


def test_optimize_respects_max_iters():
    g_loss = LossFunctional(1, lambda x: float(np.logaddexp(0.0, 2.0 * x[0]) + 0.5 * x[0] ** 2))
    q0 = MeanPrecision.from_dense([2.0], [[0.5]])
    cfg = NgdConfig(max_iters=2, rule=ExpectationRule("gauss_hermite", 15))
    _, trace = optimize(g_loss, q0, cfg)
    assert not trace.converged
    assert len(trace) == 3  # iterations 0, 1, 2


def test_predicted_decrease_is_nonpositive():
    rng = np.random.default_rng(10)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    _, trace = optimize(loss, q0, NgdConfig(rule=RULE5))
    assert all(r.predicted_decrease <= 1e-12 for r in trace.records)


def test_indefinite_hessian_error_carries_partial_trace():
    calls = {"n": 0}

    def eval_fn(q):
        calls["n"] += 1
        if calls["n"] == 1:
            _, bundle = value_and_derivatives(
                quadratic_loss([0.0], [[1.0]]), q, RULE5
            )
            return 0.0, bundle
        bad = DerivativeBundle(
            np.array([0.0]),
            SymmetricMatrix.from_full(np.array([[-1.0]])),
            SymmetricMatrix.from_full(np.array([[0.0]])),
        )
        return 0.0, bad

    q0 = MeanPrecision.from_dense([1.0], [[2.0]])
    with pytest.raises(IndefiniteHessianError) as excinfo:
        iterate_hybrid(eval_fn, q0, NgdConfig(rule=RULE5))
    assert len(excinfo.value.trace.records) == 1


def test_bimodal_target_mirrored_starts():
    # phi(x) = 10 (x^2 - 1)^2 has deep minima at +-1 (the factor of 10
    # keeps the wells deep enough that the entropy term does not merge
    # them); tight mirrored starts converge to the corresponding local
    # solution
    loss = LossFunctional(1, lambda x: float(10.0 * (x[0] ** 2 - 1.0) ** 2))
    cfg = NgdConfig(rule=ExpectationRule("gauss_hermite", 15), max_iters=200)
    means = []
    for start in (0.8, -0.8):
        q0 = MeanPrecision.from_dense([start], [[100.0]])
        q, trace = optimize(loss, q0, cfg)
        assert trace.converged
        means.append(q.mean[0])
    assert means[0] > 0.5
    assert means[1] < -0.5
    assert np.isclose(means[0], -means[1], atol=1e-8)


def test_fingerprint_tracks_precision_changes():
    rng = np.random.default_rng(11)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(np.zeros(n), np.eye(n))
    _, trace = optimize(loss, q0, NgdConfig(rule=RULE5))
    prints = [r.prec_fingerprint for r in trace.records]
    assert len(prints[0]) == 16
    assert prints[0] != prints[1]
