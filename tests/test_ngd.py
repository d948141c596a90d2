"""Natural-gradient steps and the hybrid fixed-point iteration."""

import numpy as np
import pytest

from ngvi import factors
from ngvi._testing import random_gaussian, random_spd, random_symmetric
from ngvi.cli import load_problem, main
from ngvi.factors import SparsityError, optimize_factored
from ngvi.fim import fim_inverse
from ngvi.gaussian import MeanCovariance, MeanPrecision, convert
from ngvi.kronmat import duplication, matf, vec
from ngvi.ngd import (
    ConfigError,
    IndefiniteHessianError,
    NgdConfig,
    _hybrid_step,
    iterate_hybrid,
    optimize,
    step_hybrid,
)
from ngvi.quadrature import ExpectationRule, pointwise
from ngvi.verify import natural_delta, step_canonical, step_generic
from ngvi.vloss import (
    DerivativeBundle,
    LossFunctional,
    value_and_derivatives,
)
from ngvi.kronmat import AsymmetricMatrixError, SymmetricMatrix

RULE5 = ExpectationRule("gauss_hermite", 5)


def quadratic_loss(m, p):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)

    def phi(x):
        d = x - m
        return float(0.5 * d @ p @ d)

    return LossFunctional(m.shape[0], pointwise(phi))


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
        inv = fim_inverse(g, tag)
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
    zero = {tag: np.zeros(fim_inverse(g, tag).shape[0]) for tag in
            ("theta", "gamma", "alpha", "beta", "eta")}
    assert step_generic(g, "theta", zero["theta"]).form == "mean_cov"
    assert step_generic(g, "gamma", zero["gamma"]).form == "mean_cov"
    assert step_generic(g, "alpha", zero["alpha"]).form == "mean_prec"
    assert step_generic(g, "beta", zero["beta"]).form == "mean_prec"
    assert step_generic(g, "eta", zero["eta"]).form == "mean_prec"


def test_zero_gradient_is_fixed_point_for_all_tags():
    rng = np.random.default_rng(3)
    g = random_gaussian(2, rng)
    for tag in ("theta", "gamma", "alpha", "beta", "eta"):
        grad = np.zeros(fim_inverse(g, tag).shape[0])
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
    assert np.allclose(out.prec.full(), np.linalg.inv(g.cov.full()), atol=1e-12)


def test_step_hybrid_one_step_exactness_on_quadratic():
    # from any start, one hybrid step lands exactly on the quadratic target
    rng = np.random.default_rng(5)
    n = 3
    m = rng.standard_normal(n)
    p = random_spd(n, rng)
    loss = quadratic_loss(m, p)
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    _, bundle = value_and_derivatives(loss, q0, RULE5)
    q1 = step_hybrid(q0, bundle)
    assert np.max(np.abs(q1.mean - m)) < 1e-10
    assert np.max(np.abs(q1.prec.full() - p)) < 1e-10


def test_step_hybrid_step_scale_dampens_mean_only():
    rng = np.random.default_rng(6)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    _, bundle = value_and_derivatives(loss, q0, RULE5)
    full = step_hybrid(q0, bundle, step_scale=1.0)
    half = step_hybrid(q0, bundle, step_scale=0.5)
    assert np.allclose(half.prec.full(), full.prec.full(), atol=1e-14)
    assert np.allclose(half.mean - q0.mean, 0.5 * (full.mean - q0.mean), atol=1e-12)


def record_dense_lu(monkeypatch, n):
    """Patch ``np.linalg.inv`` and ``solve`` to record the shape of every
    argument whose trailing n x n matrix is not lower triangular, that is,
    every LU factorization of an n x n precision or Hessian; inverting a
    Cholesky factor is not recorded."""
    dense = []
    inv, solve = np.linalg.inv, np.linalg.solve

    def record(a):
        a = np.asarray(a)
        if a.shape[-2:] == (n, n) and not np.array_equal(a, np.tril(a)):
            dense.append(a.shape)

    def counted_inv(a):
        record(a)
        return inv(a)

    def counted_solve(a, b):
        record(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    return dense


def test_step_hybrid_solves_for_the_mean_once(monkeypatch):
    # the mean step is -W^T (W g) through the Hessian's one factor, with
    # no LU factorization of the Hessian
    rng = np.random.default_rng(16)
    n = 6
    hess = random_spd(n, rng)
    q = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    bundle = DerivativeBundle(rng.standard_normal(n), hess, q.covariance)
    expected = q.mean - np.linalg.inv(hess) @ bundle.grad_mu
    dense = record_dense_lu(monkeypatch, n)
    out = step_hybrid(q, bundle)
    assert dense == []
    assert np.max(np.abs(out.mean - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_step_hybrid_raises_on_indefinite_hessian():
    q = MeanPrecision.from_dense([0.0], [[1.0]])
    bundle = DerivativeBundle(np.array([0.0]), np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(IndefiniteHessianError) as excinfo:
        step_hybrid(q, bundle)
    assert excinfo.value.min_eigenvalue == pytest.approx(-1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_step_hybrid_refuses_a_non_finite_hessian(entry):
    q = MeanPrecision.from_dense([0.0, 0.0], np.eye(2))
    bundle = DerivativeBundle(np.zeros(2), np.array([[1.0, entry], [entry, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="mean Hessian contains non-finite entries"):
        step_hybrid(q, bundle)


def test_step_hybrid_refuses_a_hessian_that_is_not_exactly_symmetric():
    # both assemblies build the Hessian exactly symmetric; the step checks
    # that where it enters, since the new iterate packs its lower triangle
    hess = np.array([[2.0, 0.5], [0.5, 2.0]])
    hess[0, 1] += 1e-15
    assert hess[0, 1] != hess[1, 0]
    bundle = DerivativeBundle(np.zeros(2), hess, np.eye(2))
    with pytest.raises(ValueError, match="mean Hessian is not exactly symmetric"):
        _hybrid_step(bundle, 0.0)


def test_step_hybrid_jitter_rescues_indefinite_hessian():
    q = MeanPrecision.from_dense([0.0], [[1.0]])
    bundle = DerivativeBundle(np.array([1.0]), np.array([[-0.5]]), np.array([[1.0]]))
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
    _, bundle = value_and_derivatives(loss, q0, RULE5)
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
    g_loss = LossFunctional(1, pointwise(lambda x: float(np.logaddexp(0.0, 2.0 * x[0]) + 0.5 * x[0] ** 2)))
    q0 = MeanPrecision.from_dense([2.0], [[0.5]])
    cfg = NgdConfig(rule=ExpectationRule("gauss_hermite", 15))
    _, trace = optimize(g_loss, q0, cfg)
    values = [r.value for r in trace.records]
    assert trace.converged
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-9 * max(1.0, abs(earlier))
    assert all(r.accepted for r in trace.records)


def test_optimize_respects_max_iters():
    g_loss = LossFunctional(1, pointwise(lambda x: float(np.logaddexp(0.0, 2.0 * x[0]) + 0.5 * x[0] ** 2)))
    q0 = MeanPrecision.from_dense([2.0], [[0.5]])
    cfg = NgdConfig(max_iters=2, rule=ExpectationRule("gauss_hermite", 15))
    _, trace = optimize(g_loss, q0, cfg)
    assert not trace.converged
    assert len(trace) == 3  # iterations 0, 1, 2


def test_predicted_decrease_matches_the_trace_formula():
    # -(1/2) g^T I^-1 g with the closed-form inverse FIM of the mean/precision
    # coordinates: vec (alpha) and, with the gradient D^T vec(G), vech (beta),
    # for the bundle's relation-derived G of a random mean Hessian. An
    # indefinite Hessian, the one a failing iteration sees, still gives a
    # nonpositive value: tr((I - H Sigma)^2) = ||I - Sigma^1/2 H Sigma^1/2||_F^2.
    rng = np.random.default_rng(11)
    indefinite_rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        q = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
        for bundle in (
            DerivativeBundle(rng.standard_normal(n), random_spd(n, rng), q.covariance),
            DerivativeBundle(
                indefinite_rng.standard_normal(n), random_symmetric(n, indefinite_rng), q.covariance
            ),
        ):
            grad_prec = vec(bundle.grad_prec.full())
            for tag, g in (
                ("alpha", np.concatenate([bundle.grad_mu, grad_prec])),
                ("beta", np.concatenate([bundle.grad_mu, duplication(n).dup.T @ grad_prec])),
            ):
                expected = float(-0.5 * g @ fim_inverse(q, tag) @ g)
                assert abs(bundle.predicted_decrease - expected) <= 1e-12 * abs(expected)
            assert bundle.predicted_decrease <= 0.0


def test_no_iteration_reads_the_predicted_decrease(monkeypatch, tmp_path):
    # the predicted decrease is built only for a reader, and a run has none
    def unread(bundle):
        raise AssertionError("the predicted decrease was computed")

    monkeypatch.setattr(DerivativeBundle, "predicted_decrease", property(unread))
    rng = np.random.default_rng(12)
    loss = quadratic_loss(rng.standard_normal(2), random_spd(2, rng))
    q0 = MeanPrecision.from_dense(rng.standard_normal(2), random_spd(2, rng))
    assert optimize(loss, q0, NgdConfig(rule=RULE5))[1].converged
    spec = load_problem("linear_chain")
    assert optimize_factored(spec.graph, spec.init, spec.config)[1].converged
    assert main(["run", "linear_chain", "-o", str(tmp_path / "out")]) == 0


def test_factored_run_inverts_one_dense_precision_per_iteration(monkeypatch):
    # each covariance is W^T W from the precision's factor, and each mean
    # step goes through the Hessian's factor: no LU factorization of an
    # n x n precision or Hessian anywhere in the run
    spec = load_problem("linear_chain")
    dense = record_dense_lu(monkeypatch, spec.dimension)
    _, trace = optimize_factored(spec.graph, spec.init, spec.config)
    assert trace.converged and len(trace.records) >= 2
    assert dense == []


def test_factored_run_factors_and_packs_each_precision_once(monkeypatch):
    # one n x n Cholesky per iteration, the definiteness test, whose factor
    # the next iterate keeps; one packing per new iterate, by index, with
    # no tolerance check or symmetrization of the precision (from_full),
    # and none for the precision derivative, which the step does not read
    spec = load_problem("linear_chain")
    n = spec.dimension
    factorizations, packings, checked = [], [], []
    cholesky = np.linalg.cholesky
    from_full = SymmetricMatrix.__dict__["from_full"].__func__
    post_init = SymmetricMatrix.__post_init__

    def counted_cholesky(a):
        if np.shape(a) == (n, n):
            factorizations.append(1)
        return cholesky(a)

    def counted_from_full(cls, a, *args, **kwargs):
        if np.shape(a) == (n, n):
            checked.append(1)
        return from_full(cls, a, *args, **kwargs)

    def counted_post_init(self):
        if self.dim == n:
            packings.append(1)
        post_init(self)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(SymmetricMatrix, "from_full", classmethod(counted_from_full))
    monkeypatch.setattr(SymmetricMatrix, "__post_init__", counted_post_init)
    _, trace = optimize_factored(spec.graph, spec.init, spec.config)
    iterations = len(trace.records)
    assert trace.converged and iterations >= 2
    assert len(factorizations) == iterations
    assert len(packings) == iterations - 1
    assert checked == []
    with pytest.raises(AsymmetricMatrixError):
        SymmetricMatrix.from_full(np.array([[1.0, 0.5], [0.0, 1.0]]))


def tampered_chain_run(monkeypatch, tamper):
    """Run linear_chain with ``tamper(hess)`` applied to the mean Hessian
    of every assembly after the first."""
    spec = load_problem("linear_chain")
    assemble = factors._assemble
    calls = []

    def tampered(graph, q, rule):
        value, bundle = assemble(graph, q, rule)
        calls.append(1)
        if len(calls) > 1:
            bundle = DerivativeBundle(bundle.grad_mu, tamper(bundle.hess.copy()), bundle.cov)
        return value, bundle

    monkeypatch.setattr(factors, "_assemble", tampered)
    return optimize_factored(spec.graph, spec.init, spec.config)


def test_factored_run_checks_each_new_iterate_pattern(monkeypatch):
    def fill_in(hess):
        hess[-1, 0] = hess[0, -1] = 0.1
        return hess

    with pytest.raises(SparsityError, match=r"\(3, 0\)"):
        tampered_chain_run(monkeypatch, fill_in)


def test_factored_run_raises_on_an_indefinite_hessian(monkeypatch):
    with pytest.raises(IndefiniteHessianError) as excinfo:
        tampered_chain_run(monkeypatch, np.negative)
    assert excinfo.value.min_eigenvalue < 0.0
    assert len(excinfo.value.trace.records) == 1


def test_predicted_decrease_is_nonpositive():
    rng = np.random.default_rng(10)
    n = 2
    loss = quadratic_loss(rng.standard_normal(n), random_spd(n, rng))
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    bundles = []

    def eval_fn(q):
        value, bundle = value_and_derivatives(loss, q, RULE5)
        bundles.append(bundle)
        return value, bundle

    _, trace = iterate_hybrid(eval_fn, q0, NgdConfig(rule=RULE5))
    assert len(bundles) == len(trace.records)
    assert all(b.predicted_decrease <= 1e-12 for b in bundles)


def test_indefinite_hessian_error_carries_partial_trace():
    calls = {"n": 0}

    def eval_fn(q):
        calls["n"] += 1
        if calls["n"] == 1:
            _, bundle = value_and_derivatives(
                quadratic_loss([0.0], [[1.0]]), q, RULE5
            )
            return 0.0, bundle
        bad = DerivativeBundle(np.array([0.0]), np.array([[-1.0]]), q.covariance)
        return 0.0, bad

    q0 = MeanPrecision.from_dense([1.0], [[2.0]])
    with pytest.raises(IndefiniteHessianError) as excinfo:
        iterate_hybrid(eval_fn, q0, NgdConfig(rule=RULE5))
    assert len(excinfo.value.trace.records) == 1


def test_numerically_singular_hessian_is_refused_with_the_trace():
    # [[2, 1], [1, 0.5]] is singular but passes its Cholesky factorization:
    # its second squared pivot is below eps times its first
    singular = np.array([[2.0, 1.0], [1.0, 0.5]])
    calls = {"n": 0}

    def eval_fn(q):
        calls["n"] += 1
        if calls["n"] == 1:
            return 0.0, DerivativeBundle(np.zeros(2), 2.0 * np.eye(2), q.covariance)
        return 0.0, DerivativeBundle(np.zeros(2), singular, q.covariance)

    q0 = MeanPrecision.from_dense([1.0, 0.0], np.eye(2))
    with pytest.raises(IndefiniteHessianError, match=r"^mean Hessian is numerically singular \(smallest eigenvalue ") as excinfo:
        iterate_hybrid(eval_fn, q0, NgdConfig(rule=RULE5))
    assert len(excinfo.value.trace.records) == 1
    assert abs(excinfo.value.min_eigenvalue) <= 1e-15


def test_bimodal_target_mirrored_starts():
    # phi(x) = 10 (x^2 - 1)^2 has deep minima at +-1 (the factor of 10
    # keeps the wells deep enough that the entropy term does not merge
    # them); tight mirrored starts converge to the corresponding local
    # solution
    loss = LossFunctional(1, pointwise(lambda x: float(10.0 * (x[0] ** 2 - 1.0) ** 2)))
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
