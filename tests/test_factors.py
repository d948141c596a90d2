"""Factor graphs, marginal extraction, sparsity-preserving optimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngvi import factors
from ngvi._testing import random_gaussian, random_spd
from ngvi.cli import build_phi, load_problem
from ngvi.factors import (
    Factor,
    FactorGraph,
    SparsityError,
    as_loss,
    assemble,
    extract_marginal,
    optimize_factored,
    pattern_violations,
    sparsity_pattern,
    total_phi,
)
from ngvi.gaussian import MeanCovariance, MeanPrecision, NotPositiveDefiniteError, convert
from ngvi.kronmat import SymmetricMatrix, _vech_indices, half_len
from ngvi.ngd import NgdConfig, _predicted_decrease, optimize
from ngvi.quadrature import (
    EvaluationError,
    ExpectationRule,
    IntegrandShapeError,
    _gh_grid,
    expect_weighted,
    pointwise,
)
from ngvi.vloss import LossFunctional, value_and_derivatives

RULE5 = ExpectationRule("gauss_hermite", 5)


def quadratic_phi(m, p):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)

    def phi(u):
        d = u - m
        return float(0.5 * d @ p @ d)

    return pointwise(phi)


def chain_graph():
    """4-variable chain: prior on x0, unit-precision odometry x_{i+1}-x_i=1."""
    factors = [Factor("prior", (0,), quadratic_phi([0.0], [[1.0]]))]
    odo = quadratic_phi([0.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]])
    for i in range(3):
        factors.append(Factor(f"odo{i}", (i, i + 1), odo))
    return FactorGraph(4, tuple(factors))


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor("empty", (), pointwise(lambda u: 0.0))
    with pytest.raises(ValueError):
        Factor("repeat", (1, 1), pointwise(lambda u: 0.0))
    with pytest.raises(ValueError):
        Factor("negative", (-1,), pointwise(lambda u: 0.0))


def test_gaussian_factor_records_its_quadratic():
    f = Factor.gaussian("g", [2, 0], [1.0, -1.0], [[2.0, 0.5], [0.5 + 1e-15, 1.0]])
    m, p = f.quadratic
    assert f.indices == (2, 0) and np.array_equal(m, [1.0, -1.0]) and p[1, 0] == 0.5 + 1e-15
    assert not p.flags.writeable and not m.flags.writeable
    u = np.array([[0.5, 2.0], [-1.0, 0.0]])
    expected = [0.5 * (x - m) @ p @ (x - m) for x in u]
    assert np.allclose(f.local_phi(u), expected, rtol=1e-15, atol=0.0)
    # the assembly stacks the symmetric part, which keeps its Hessian exactly symmetric
    stacked = FactorGraph(3, (f,))._plan.gaussians[0].p[0]
    assert np.array_equal(stacked, stacked.T) and stacked[1, 0] == 0.5 * (0.5 + (0.5 + 1e-15))
    assert Factor("plain", (0,), f.local_phi).quadratic is None
    with pytest.raises(ValueError, match="factor 'g'"):
        Factor.gaussian("g", (0, 1), [0.0], np.eye(2))
    with pytest.raises(ValueError, match="factor 'g'"):
        Factor.gaussian("g", (0,), [0.0], np.eye(2))


def test_graph_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        FactorGraph(2, (Factor("f", (0, 2), pointwise(lambda u: 0.0)),))


def test_sparsity_pattern_of_chain():
    pattern = sparsity_pattern(chain_graph())
    expected = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (3, 2)}
    assert pattern == frozenset(expected)


def test_pattern_violations_detects_fill_in():
    pattern = sparsity_pattern(chain_graph())
    dense = SymmetricMatrix.from_full(np.eye(4) + 0.1)
    bad = pattern_violations(dense, pattern)
    assert (2, 0) in bad and (3, 0) in bad and (3, 1) in bad
    tridiag = SymmetricMatrix.from_full(
        np.diag([2.0, 2.0, 2.0, 1.0])
        + np.diag([-1.0] * 3, 1)
        + np.diag([-1.0] * 3, -1)
    )
    assert pattern_violations(tridiag, pattern) == set()


def reference_pattern_violations(prec, pattern):
    """The element-by-element loop the vectorized check replaced."""
    rows, cols = _vech_indices(prec.dim)
    out = set()
    for r, c, v in zip(rows, cols, prec.half):
        if v != 0.0 and (int(r), int(c)) not in pattern:
            out.add((int(r), int(c)))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_pattern_violations_matches_reference_loop(dim, seed):
    rng = np.random.default_rng(seed)
    rows, cols = _vech_indices(dim)
    # a random lower-triangle pattern, plus pairs the check must ignore:
    # upper-triangle, out-of-range and negative ones
    keep = rng.random(rows.shape[0]) < rng.random()
    pattern = {(int(r), int(c)) for r, c, k in zip(rows, cols, keep) if k}
    pattern |= {(0, dim), (dim, 0), (dim + 2, dim + 1), (-1, 0), (0, -1)}
    pattern = frozenset(pattern)
    half = rng.standard_normal(half_len(dim))
    kind = rng.integers(3, size=half.shape[0])
    half[kind == 1] = 0.0
    half[kind == 2] = -0.0
    # fill-in on the diagonal band: the diagonal and first subdiagonal
    band = (rows - cols <= 1) & (rng.random(rows.shape[0]) < 0.5)
    half[band] = rng.standard_normal(int(band.sum()))
    prec = SymmetricMatrix(dim, half)
    found = pattern_violations(prec, pattern)
    assert found == reference_pattern_violations(prec, pattern)
    assert all(type(r) is int and type(c) is int for r, c in found)


def test_extract_marginal_diagonal_example():
    # prec = diag(2, 4): marginal of variable 1 is N(mu1, 1/4)
    q = MeanPrecision.from_dense([1.0, -1.0], np.diag([2.0, 4.0]))
    marg = extract_marginal(q, [1])
    assert np.allclose(marg.mean, [-1.0], atol=1e-14)
    assert np.isclose(marg.cov.full()[0, 0], 0.25, atol=1e-14)


def test_extract_marginal_matches_dense_inverse():
    rng = np.random.default_rng(0)
    n = 3
    q = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    sigma = np.linalg.inv(q.prec.full())
    for idx in ([0], [2, 0], [0, 1, 2]):
        marg = extract_marginal(q, idx)
        assert np.allclose(marg.mean, q.mean[idx], atol=1e-13)
        assert np.allclose(marg.cov.full(), sigma[np.ix_(idx, idx)], atol=1e-12)


def test_extract_marginal_rejects_bad_index():
    q = MeanPrecision.from_dense([0.0], [[1.0]])
    with pytest.raises(ValueError):
        extract_marginal(q, [1])


def reference_sparsity_pattern(graph):
    """The pair-by-pair loop that the half-vector mask replaced."""
    pattern = {(i, i) for i in range(graph.dim)}
    for f in graph.factors:
        for a in f.indices:
            for b in f.indices:
                if a >= b:
                    pattern.add((a, b))
    return frozenset(pattern)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_pattern_mask_matches_the_pair_set(dim, seed):
    rng = np.random.default_rng(seed)

    def random_indices():
        arity = int(rng.integers(1, dim + 1))
        return tuple(int(i) for i in rng.choice(dim, arity, replace=False))

    def factor(k):
        # every other factor is a Gaussian one, whose block the closed-form
        # assembly stacks apart from the swept ones
        indices = random_indices()
        if k % 2:
            return Factor.gaussian(f"f{k}", indices, np.zeros(len(indices)), np.eye(len(indices)))
        return Factor(f"f{k}", indices, pointwise(lambda u: 0.0))

    count = int(rng.integers(1, 6))
    graph = FactorGraph(dim, tuple(factor(k) for k in range(count)))
    pattern = reference_sparsity_pattern(graph)
    assert sparsity_pattern(graph) == pattern
    half = rng.standard_normal(half_len(dim))
    kind = rng.integers(3, size=half.shape[0])
    half[kind == 1] = 0.0
    half[kind == 2] = -0.0
    prec = SymmetricMatrix(dim, half)
    found = pattern_violations(prec, factors._pattern_mask(graph))
    assert found == reference_pattern_violations(prec, pattern)
    assert found == pattern_violations(prec, pattern)


def reference_assemble(graph, q, rule):
    """One dense solve per factor through the public extract_marginal: the
    per-factor assembly that slicing one covariance replaced."""
    n = graph.dim
    grad_mu = np.zeros(n)
    hess_mu = np.zeros((n, n))
    total = 0.0
    for f in graph.factors:
        idx = list(f.indices)
        marginal = extract_marginal(q, idx)
        prec_k = np.linalg.inv(marginal.cov.full())
        prec_k = 0.5 * (prec_k + prec_k.T)
        scalar, vector, matrix = expect_weighted(rule, marginal, f.local_phi)
        local_hess = prec_k @ matrix @ prec_k
        grad_mu[idx] += prec_k @ vector
        hess_mu[np.ix_(idx, idx)] += 0.5 * (local_hess + local_hess.T)
        total += scalar
    sigma = np.linalg.inv(q.prec.full())
    sigma = 0.5 * (sigma + sigma.T)
    grad_prec = 0.5 * sigma - 0.5 * sigma @ hess_mu @ sigma
    value = total + 0.5 * np.linalg.slogdet(q.prec.full())[1]
    return value, grad_mu, hess_mu, 0.5 * (grad_prec + grad_prec.T)


def random_phi_params(kind, arity, rng):
    if kind == "gaussian_quadratic":
        return {"m": rng.standard_normal(arity).tolist(), "P": random_spd(arity, rng).tolist()}
    if kind == "logistic_bernoulli":
        return {"feature": rng.standard_normal(arity).tolist(), "label": int(rng.integers(2))}
    if kind == "nonlinear_range":
        params = {"distance": rng.uniform(0.5, 3.0), "variance": rng.uniform(0.1, 1.0)}
        if arity == 2:
            params["landmark"] = rng.standard_normal(2).tolist()
        return params
    return {"coefficients": rng.standard_normal(int(rng.integers(3, 6))).tolist()}


KINDS_BY_ARITY = {
    1: ("gaussian_quadratic", "logistic_bernoulli", "polynomial"),
    2: ("gaussian_quadratic", "logistic_bernoulli", "nonlinear_range"),
    3: ("gaussian_quadratic", "logistic_bernoulli"),
    4: ("gaussian_quadratic", "logistic_bernoulli", "nonlinear_range"),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_assemble_matches_per_factor_marginals(data):
    dim = data.draw(st.integers(2, 8), label="dim")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rules = [RULE5, ExpectationRule("gauss_hermite", 3), ExpectationRule("monte_carlo", 64, seed=3)]
    # 400 extra arity-2 factors make a group larger than one chunk: 400 x 25
    # GH-5 points or 400 x 64 draws, against CHUNK_POINTS = 8192
    rule, extra = data.draw(
        st.sampled_from([(rule, 0) for rule in rules] + [(rules[0], 400), (rules[2], 400)]),
        label="rule, extra arity-2 factors",
    )
    rng = np.random.default_rng(seed)
    factor_list = []
    for k in range(data.draw(st.integers(1, 6), label="factors")):
        arity = data.draw(st.integers(1, min(4, dim)), label="arity")
        kind = data.draw(st.sampled_from(KINDS_BY_ARITY[arity]), label="kind")
        indices = tuple(int(i) for i in rng.choice(dim, arity, replace=False))
        phi = build_phi(kind, random_phi_params(kind, arity, rng), arity, f"f{k}")
        factor_list.append(Factor(f"f{k}", indices, phi))
    for k in range(extra):
        kind = KINDS_BY_ARITY[2][k % 3]
        indices = tuple(int(i) for i in rng.choice(dim, 2, replace=False))
        phi = build_phi(kind, random_phi_params(kind, 2, rng), 2, f"g{k}")
        factor_list.append(Factor(f"g{k}", indices, phi))
    graph = FactorGraph(dim, tuple(factor_list))
    q = MeanPrecision.from_dense(rng.standard_normal(dim), random_spd(dim, rng))
    value, bundle = factors._assemble(graph, q, rule)
    ref_value, ref_grad, ref_hess, ref_grad_prec = reference_assemble(graph, q, rule)

    def close(found, expected):
        return np.max(np.abs(found - expected)) <= 1e-10 * np.max(np.abs(expected))

    assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
    assert close(bundle.grad_mu, ref_grad)
    assert close(bundle.hess_mu.full(), ref_hess)
    assert close(bundle.grad_prec.full(), ref_grad_prec)
    public = assemble(graph, q, rule)
    assert np.array_equal(public.grad_mu, bundle.grad_mu)
    assert np.array_equal(public.hess_mu.half, bundle.hess_mu.half)


def test_assembly_builds_no_per_factor_marginal(monkeypatch):
    spec = load_problem("range_slam_toy")

    def forbidden(*args, **kwargs):
        raise AssertionError("the assembly built a per-factor marginal")

    monkeypatch.setattr(factors, "extract_marginal", forbidden)
    monkeypatch.setattr(MeanCovariance, "__post_init__", forbidden)
    value, bundle = factors._assemble(spec.graph, spec.init, spec.rule)
    assert np.isfinite(value)
    assert np.all(np.isfinite(bundle.hess_mu.half))


def untagged(graph):
    """The same graph with every factor built from its ``local_phi`` alone."""
    return FactorGraph(graph.dim, tuple(Factor(f.id, f.indices, f.local_phi) for f in graph.factors))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_gaussians_match_their_sweep(data):
    dim = data.draw(st.integers(1, 7), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    factor_list = []
    for k in range(data.draw(st.integers(1, 30), label="factors")):
        arity = int(rng.integers(1, min(4, dim) + 1))
        kind = KINDS_BY_ARITY[arity][int(rng.integers(len(KINDS_BY_ARITY[arity])))]
        indices = tuple(int(i) for i in rng.choice(dim, arity, replace=False))
        params = random_phi_params(kind, arity, rng)
        if kind == "gaussian_quadratic":
            factor_list.append(Factor.gaussian(f"f{k}", indices, params["m"], params["P"]))
        else:
            factor_list.append(Factor(f"f{k}", indices, build_phi(kind, params, arity, f"f{k}")))
    graph = FactorGraph(dim, tuple(factor_list))
    q = MeanPrecision.from_dense(rng.standard_normal(dim), random_spd(dim, rng))
    # Gauss-Hermite of order 3 or more sweeps a quadratic exactly: its Stein
    # Hessian integrand (z z^T - I) f has degree 4, and order k is exact to
    # degree 2k - 1
    for rule in (RULE5, ExpectationRule("gauss_hermite", 3)):
        value, bundle = factors._assemble(graph, q, rule)
        ref_value, ref = factors._assemble(untagged(graph), q, rule)
        assert np.array_equal(bundle.hess, bundle.hess.T)

        def close(found, expected):
            return np.max(np.abs(found - expected)) <= 1e-12 * np.max(np.abs(expected))

        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert close(bundle.grad_mu, ref.grad_mu)
        assert close(bundle.hess, ref.hess)


@pytest.mark.parametrize(
    "rule",
    [RULE5, ExpectationRule("gauss_hermite", 3), ExpectationRule("gauss_hermite", 2),
     ExpectationRule("monte_carlo", 64, seed=3)],
    ids=["gh5", "gh3", "gh2", "monte-carlo"],
)
def test_gaussian_local_phi_is_never_called(rule):
    graph = load_problem("range_slam_toy").graph
    counts = {}

    def counted(fid, phi):
        def wrapped(u):
            counts[fid] = counts.get(fid, 0) + 1
            return phi(u)

        return wrapped

    for f in graph.factors:
        object.__setattr__(f, "local_phi", counted(f.id, f.local_phi))
    factors._assemble(graph, load_problem("range_slam_toy").init, rule)
    tagged = [f.id for f in graph.factors if f.quadratic is not None]
    assert tagged and not any(fid in counts for fid in tagged)
    assert all(counts[f.id] == 1 for f in graph.factors if f.quadratic is None)


def test_all_gaussian_graph_sweeps_nothing():
    spec = load_problem("linear_chain")
    assert all(f.quadratic is not None for f in spec.graph.factors)
    assert spec.graph._plan.groups == ()
    value, bundle = factors._assemble(spec.graph, spec.init, RULE5)
    ref_value, ref = factors._assemble(untagged(spec.graph), spec.init, RULE5)
    # the closed form is the exact expectation, whatever the rule
    for rule in (ExpectationRule("gauss_hermite", 1), ExpectationRule("monte_carlo", 8, seed=3)):
        other_value, other = factors._assemble(spec.graph, spec.init, rule)
        assert other_value == value and np.array_equal(other.grad_mu, bundle.grad_mu)
        assert np.array_equal(other.hess, bundle.hess)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(bundle.hess - ref.hess)) <= 1e-12 * np.max(np.abs(ref.hess))
    q, trace = optimize_factored(spec.graph, spec.init, spec.config)
    assert trace.converged and len(trace.records) == 2


@pytest.mark.parametrize("swept", [False, True], ids=["gaussians-only", "block-also-swept"])
def test_indefinite_gaussian_marginal_is_named(swept):
    factor_list = [Factor.gaussian("x1", (1,), [0.0], [[1.0]]), Factor.gaussian("pair", (0, 1), [0.0, 0.0], np.eye(2))]
    if swept:
        factor_list.append(Factor("obs", (1,), build_phi("polynomial", {"coefficients": [0.0, 1.0]}, 1, "obs")))
    graph = FactorGraph(2, tuple(factor_list))
    # the near-singular precision of test_cli: its squared pivot ratio is
    # 5.7e-17, so the iterate is refused before any marginal is sliced
    a, b, c = 3.8873945481944796, 2.5281465849980265, 1.6441668258771829
    q = MeanPrecision(np.zeros(2), SymmetricMatrix(2, np.array([a, b, c])))
    with pytest.raises(NotPositiveDefiniteError, match="^the iterate's precision is singular"):
        factors._assemble(graph, q, RULE5)
    # W^T W cannot make a negative variance, so one is injected: the first
    # factor whose marginal fails its Cholesky is named
    q = MeanPrecision.from_dense(np.zeros(2), np.eye(2))
    vars(q)["covariance"] = np.diag([1.0, -1e-3])
    with pytest.raises(NotPositiveDefiniteError, match="factor 'x1'"):
        factors._assemble(graph, q, RULE5)


def test_overflowing_gaussian_factor_fails_as_its_sweep():
    graph = FactorGraph(2, (Factor.gaussian("far", (1,), [0.0], [[1.0]]), Factor.gaussian("near", (0,), [0.0], [[1.0]])))
    q = MeanPrecision.from_dense([0.0, 1e200], np.eye(2))
    messages = []
    for g in (graph, untagged(graph)):
        with pytest.raises(EvaluationError) as excinfo:
            factors._assemble(g, q, RULE5)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] and "inf" in messages[0]


def random_factor(fid, indices, rng):
    arity = len(indices)
    kind = KINDS_BY_ARITY[arity][int(rng.integers(len(KINDS_BY_ARITY[arity])))]
    return Factor(fid, indices, build_phi(kind, random_phi_params(kind, arity, rng), arity, fid))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_blockwise_assembly_matches_per_factor_marginals(data):
    # Factors share blocks: each arity's index tuple repeats many times, a
    # reordered copy such as (0, 2) next to (2, 0) is a block of its own,
    # and the arity groups are interleaved in graph order.
    dim = data.draw(st.integers(3, 7), label="dim")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rules = [RULE5, ExpectationRule("gauss_hermite", 3), ExpectationRule("monte_carlo", 64, seed=3)]
    rule = data.draw(st.sampled_from(rules), label="rule")
    rng = np.random.default_rng(seed)
    tuples = [(0, 2), (2, 0)]
    for arity in data.draw(st.lists(st.integers(1, min(4, dim)), min_size=1, max_size=3), label="arities"):
        base = tuple(int(i) for i in rng.choice(dim, arity, replace=False))
        tuples += [base, base[::-1]]
    repeats = data.draw(st.integers(1, 60), label="repeats")
    indices = [tuples[int(k)] for k in rng.integers(len(tuples), size=repeats * len(tuples))]
    graph = FactorGraph(dim, tuple(random_factor(f"f{k}", idx, rng) for k, idx in enumerate(indices)))
    assert sum(len(group.blocks) for group in graph._plan.groups) == len(set(indices))
    q = MeanPrecision.from_dense(rng.standard_normal(dim), random_spd(dim, rng))
    value, bundle = factors._assemble(graph, q, rule)
    ref_value, ref_grad, ref_hess, ref_grad_prec = reference_assemble(graph, q, rule)

    def close(found, expected):
        return np.max(np.abs(found - expected)) <= 1e-10 * np.max(np.abs(expected))

    assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
    assert close(bundle.grad_mu, ref_grad)
    assert close(bundle.hess_mu.full(), ref_hess)
    assert close(bundle.grad_prec.full(), ref_grad_prec)


def test_graph_without_factors_assembles_the_entropy_term():
    q = MeanPrecision.from_dense(np.zeros(2), np.diag([2.0, 4.0]))
    value, bundle = factors._assemble(FactorGraph(2, ()), q, RULE5)
    assert value == pytest.approx(0.5 * np.log(8.0), rel=1e-15)
    assert not bundle.grad_mu.any() and not bundle.hess_mu.half.any()
    assert np.allclose(bundle.grad_prec.full(), np.diag([0.25, 0.125]), rtol=1e-15, atol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_factored_predicted_decrease_matches_the_generic_form(data):
    # the one-product form (1/4) sum(D * D^T), D = I - H Sigma, against
    # tr(P G P G) with the bundle's G carried explicitly
    dim = data.draw(st.integers(1, 8), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    factor_list = []
    for k in range(data.draw(st.integers(1, 12), label="factors")):
        arity = int(rng.integers(1, min(4, dim) + 1))
        indices = tuple(int(i) for i in rng.choice(dim, arity, replace=False))
        factor_list.append(random_factor(f"f{k}", indices, rng))
    graph = FactorGraph(dim, tuple(factor_list))
    q = MeanPrecision.from_dense(rng.standard_normal(dim), random_spd(dim, rng))
    bundle = assemble(graph, q, RULE5)
    assert np.array_equal(bundle.hess, bundle.hess.T)
    prod = q.precision @ bundle.grad_prec.full()
    expected = -0.5 * bundle.grad_mu @ q.covariance @ bundle.grad_mu - np.sum(prod * prod.T)
    assert abs(_predicted_decrease(bundle) - expected) <= 1e-12 * abs(expected)


def test_assembly_factors_each_distinct_block_once(monkeypatch):
    # logistic regression: a prior and 300 observations over the same 3 weights
    rng = np.random.default_rng(15)
    kind = "logistic_bernoulli"
    observations = [
        Factor(f"obs{k}", (0, 1, 2), build_phi(kind, random_phi_params(kind, 3, rng), 3, f"obs{k}"))
        for k in range(300)
    ]
    prior = build_phi("gaussian_quadratic", {"m": [0.0] * 3, "P": np.eye(3).tolist()}, 3, "prior")
    graph = FactorGraph(3, (Factor("prior", (0, 1, 2), prior), *observations))
    q = MeanPrecision.from_dense(rng.standard_normal(3), random_spd(3, rng))
    factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    factors._assemble(graph, q, RULE5)
    assert factored == [(1, 3, 3)]


def scalar_phi(kind, params, u):
    """The per-point formula of each ``build_phi`` kind."""
    if kind == "gaussian_quadratic":
        d = u - np.array(params["m"])
        return float(0.5 * d @ np.array(params["P"]) @ d)
    if kind == "logistic_bernoulli":
        t = float(np.array(params["feature"]) @ u)
        return float(np.logaddexp(0.0, t) - params["label"] * t)
    if kind == "nonlinear_range":
        other = params["landmark"] if "landmark" in params else u[2:]
        r = float(np.hypot(u[0] - other[0], u[1] - other[1]))
        return (r - params["distance"]) ** 2 / (2.0 * params["variance"])
    return float(np.polynomial.polynomial.polyval(u[0], params["coefficients"]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_kinds_match_scalar_formulas(data):
    arity = data.draw(st.integers(1, 4), label="arity")
    kind = data.draw(st.sampled_from(KINDS_BY_ARITY[arity]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = random_phi_params(kind, arity, rng)
    scale = data.draw(st.sampled_from([0.1, 1.0, 5.0]), label="scale")
    points = scale * rng.standard_normal((data.draw(st.integers(1, 40), label="points"), arity))
    batched = build_phi(kind, params, arity, "f")(points)
    expected = np.array([scalar_phi(kind, params, u) for u in points])
    assert batched.shape == expected.shape
    assert np.all(np.abs(batched - expected) <= 1e-14 * np.abs(expected))


@pytest.mark.parametrize(
    "bad",
    [lambda u: 0.0, lambda u: u[:, :1], lambda u: u[1:, 0], lambda u: np.zeros(())],
    ids=["python-float", "column", "short", "0-d"],
)
def test_integrand_of_wrong_shape_names_factor(bad):
    odo = build_phi("gaussian_quadratic", {"m": [0.0, 1.0], "P": [[1.0, -1.0], [-1.0, 1.0]]}, 2, "odo")
    graph = FactorGraph(
        3,
        (
            Factor("prior", (0,), build_phi("polynomial", {"coefficients": [0.0, 0.0, 0.5]}, 1, "prior")),
            Factor("odo", (0, 1), odo),
            Factor("scalar", (1, 2), bad),
        ),
    )
    q = MeanPrecision.from_dense(np.zeros(3), np.eye(3))
    for call in (lambda: factors._assemble(graph, q, RULE5), lambda: total_phi(graph)(np.zeros((7, 3)))):
        with pytest.raises(IntegrandShapeError, match="factor 'scalar'.*quadrature.pointwise"):
            call()


def per_point_error(q, f, rule):
    """The message and node of the first non-finite value met by the
    per-point loop that the batched sweep replaced."""
    idx = list(f.indices)
    chol = np.linalg.cholesky(q.covariance[np.ix_(idx, idx)])
    nodes, _ = _gh_grid(rule.order, len(idx))
    for x in q.mean[idx] + nodes @ chol.T:
        value = f.local_phi(x[None])[0]
        if not np.isfinite(value):
            return f"integrand returned {value!r} at node {x.tolist()}", x
    raise AssertionError("the factor returned no non-finite value")


def test_nonfinite_value_reports_first_factor_in_graph_order():
    # The arity-2 group is swept first and meets 'late' before 'early':
    # the error must still be the one the per-point loop met, at 'early'.
    def nan_beyond(threshold, column):
        return lambda u: np.where(u[:, column] > threshold, np.nan, 0.5 * np.sum(u * u, axis=1))

    fine = build_phi("gaussian_quadratic", {"m": [0.0, 0.0], "P": np.eye(2).tolist()}, 2, "fine")
    graph = FactorGraph(
        5,
        (
            Factor("fine", (0, 1), fine),
            Factor("early", (1, 2, 3, 4), nan_beyond(0.4, 2)),
            Factor("late", (3, 4), nan_beyond(0.1, 1)),
        ),
    )
    rng = np.random.default_rng(8)
    q = MeanPrecision.from_dense(rng.standard_normal(5) * 0.1, random_spd(5, rng))
    message, node = per_point_error(q, graph.factors[1], RULE5)
    with pytest.raises(EvaluationError) as excinfo:
        factors._assemble(graph, q, RULE5)
    assert str(excinfo.value) == message
    assert np.array_equal(excinfo.value.node, node)


def test_single_full_factor_matches_unfactored_loss():
    rng = np.random.default_rng(1)
    n = 2
    phi = quadratic_phi(rng.standard_normal(n), random_spd(n, rng))
    graph = FactorGraph(n, (Factor("all", (0, 1), phi),))
    q = convert(random_gaussian(n, rng), "mean_prec")
    factored = assemble(graph, q, RULE5)
    _, dense = value_and_derivatives(LossFunctional(n, phi), q, RULE5)
    assert np.allclose(factored.grad_mu, dense.grad_mu, atol=1e-10)
    assert np.allclose(factored.hess_mu.full(), dense.hess_mu.full(), atol=1e-10)
    assert np.allclose(factored.grad_prec.full(), dense.grad_prec.full(), atol=1e-10)


def test_disjoint_factors_give_block_diagonal_hessian():
    rng = np.random.default_rng(2)
    p0 = random_spd(2, rng)
    p1 = random_spd(2, rng)
    graph = FactorGraph(
        4,
        (
            Factor("a", (0, 1), quadratic_phi(np.zeros(2), p0)),
            Factor("b", (2, 3), quadratic_phi(np.zeros(2), p1)),
        ),
    )
    q = MeanPrecision.from_dense(rng.standard_normal(4), np.eye(4))
    bundle = assemble(graph, q, RULE5)
    hess = bundle.hess_mu.full()
    assert np.allclose(hess[:2, 2:], 0.0, atol=1e-12)
    assert np.allclose(hess[:2, :2], p0, atol=1e-10)
    assert np.allclose(hess[2:, 2:], p1, atol=1e-10)


def test_chain_hessian_matches_normal_equations():
    # sum of scattered local precisions equals J^T W J of the stacked
    # linear system
    q = MeanPrecision.from_dense(np.zeros(4), np.eye(4))
    bundle = assemble(chain_graph(), q, RULE5)
    jac = np.zeros((4, 4))
    jac[0, 0] = 1.0
    for i in range(3):
        jac[i + 1, i] = -1.0
        jac[i + 1, i + 1] = 1.0
    assert np.allclose(bundle.hess_mu.full(), jac.T @ jac, atol=1e-10)


def test_one_step_on_chain_solves_normal_equations():
    q0 = MeanPrecision.from_dense(np.zeros(4), np.eye(4))
    cfg = NgdConfig(rule=RULE5)
    q, trace = optimize_factored(chain_graph(), q0, cfg)
    assert trace.converged
    assert trace.records[-1].iteration == 1
    assert np.allclose(q.mean, [0.0, 1.0, 2.0, 3.0], atol=1e-10)
    expected_prec = (
        np.diag([2.0, 2.0, 2.0, 1.0])
        + np.diag([-1.0] * 3, 1)
        + np.diag([-1.0] * 3, -1)
    )
    assert np.allclose(q.prec.full(), expected_prec, atol=1e-10)


def test_factored_matches_unfactored_optimum():
    graph = chain_graph()
    q0 = MeanPrecision.from_dense(np.zeros(4), np.eye(4))
    cfg = NgdConfig(rule=RULE5)
    q_f, _ = optimize_factored(graph, q0, cfg)
    q_u, _ = optimize(as_loss(graph), q0, cfg)
    assert np.allclose(q_f.mean, q_u.mean, atol=1e-9)
    assert np.allclose(q_f.prec.full(), q_u.prec.full(), atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_factored_equals_unfactored_on_random_convex_graphs(data):
    # a quartic with nonnegative x^2 and x^4 terms on every variable plus
    # 1-5 Gaussian terms of arity 1-3: convex, so every iterate's mean
    # Hessian is positive definite
    dim = data.draw(st.integers(1, 4), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    factor_list = []
    for i in range(dim):
        c1, c2, c4 = rng.standard_normal(), rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0)
        phi = build_phi("polynomial", {"coefficients": [0.0, c1, c2, 0.0, c4]}, 1, f"p{i}")
        factor_list.append(Factor(f"p{i}", (i,), phi))
    for k in range(data.draw(st.integers(1, 5), label="quadratics")):
        arity = int(rng.integers(1, min(3, dim) + 1))
        indices = tuple(int(i) for i in rng.choice(dim, arity, replace=False))
        params = random_phi_params("gaussian_quadratic", arity, rng)
        factor_list.append(Factor(f"q{k}", indices, build_phi("gaussian_quadratic", params, arity, f"q{k}")))
    graph = FactorGraph(dim, tuple(factor_list))
    q0 = MeanPrecision.from_dense(rng.standard_normal(dim), np.diag(rng.uniform(0.5, 2.0, dim)))

    def rel(found, expected):
        return np.max(np.abs(found - expected)) / np.max(np.abs(expected))

    value_f, bundle_f = factors._assemble(graph, q0, RULE5)
    value_u, bundle_u = value_and_derivatives(as_loss(graph), q0, RULE5)
    assert rel(value_f, value_u) <= 1e-12
    assert rel(bundle_f.grad_mu, bundle_u.grad_mu) <= 1e-12
    assert rel(bundle_f.hess, bundle_u.hess) <= 1e-12
    assert rel(_predicted_decrease(bundle_f), _predicted_decrease(bundle_u)) <= 1e-12

    # a tolerance so small that both runs take all five steps
    cfg = NgdConfig(max_iters=5, rel_tol=1e-300, rule=RULE5)
    q_f, _ = optimize_factored(graph, q0, cfg)
    q_u, _ = optimize(as_loss(graph), q0, cfg)
    assert rel(q_f.mean, q_u.mean) <= 1e-10
    assert rel(q_f.prec.full(), q_u.prec.full()) <= 1e-10


def test_total_phi_sums_factors():
    graph = chain_graph()
    x = np.array([0.5, 1.0, 2.5, 3.0])
    expected = 0.5 * 0.5**2
    for i in range(3):
        step = x[i + 1] - x[i] - 1.0
        expected += 0.5 * step**2
    assert np.isclose(total_phi(graph)(x[None])[0], expected, atol=1e-14)


def test_optimizer_preserves_sparsity_pattern():
    q0 = MeanPrecision.from_dense(np.zeros(4), np.eye(4))
    q, _ = optimize_factored(chain_graph(), q0, NgdConfig(rule=RULE5))
    assert pattern_violations(q.prec, sparsity_pattern(chain_graph())) == set()


def test_optimizer_rejects_initial_pattern_violation():
    q0 = MeanPrecision.from_dense(np.zeros(4), np.eye(4) + 0.1)
    with pytest.raises(SparsityError) as excinfo:
        optimize_factored(chain_graph(), q0, NgdConfig(rule=RULE5))
    assert str(excinfo.value) == (
        "precision has nonzeros outside the factor pattern at [(2, 0), (3, 0), (3, 1)]"
    )


def test_optimizer_rejects_dimension_mismatch():
    from ngvi.kronmat import DimensionError

    q0 = MeanPrecision.from_dense(np.zeros(3), np.eye(3))
    with pytest.raises(DimensionError):
        optimize_factored(chain_graph(), q0, NgdConfig(rule=RULE5))


def test_optimizer_refuses_a_graph_without_factors():
    q0 = MeanPrecision.from_dense(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="factor graph has no factors"):
        optimize_factored(FactorGraph(2, ()), q0, NgdConfig())
