"""Paper evidence: acceptance criteria 1-6 and 9, each defined once.

Every criterion is a function that returns ``CheckResult`` records with a
fixed seed and trial count; ``ngvi verify`` prints them and
``tests/test_acceptance.py`` asserts them, so both see the same instances
at the same tolerances.

The module also holds the algebra that only the evidence uses and the
optimizer never calls: ``natural_delta``/``step_generic`` (the inverse-FIM
step in any of the five parameterizations), ``step_canonical``, the
finite-difference validation ``fd_check`` and ``direct_grad_prec``, the
precision derivative from its own moment formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._testing import random_gaussian, random_spd, random_symmetric, random_well_conditioned
from .factors import Factor, FactorGraph, optimize_factored
from .fim import (
    PARAM_TAGS,
    _coords,
    _from_coords,
    central_gradient,
    central_hessian,
    duplication,
    fd_kl_hessian,
    fim,
    fim_inverse,
    kron,
    matf,
    reduce_to_unique,
    shrink_until_pd,
    sym,
    vec,
    vech,
)
from .gaussian import MeanCovariance, MeanPrecision, cov_of, prec_of
from .kronmat import half_len
from .ngd import NgdConfig, step_hybrid
from .quadrature import ExpectationRule, default_rule, expect_weighted, pointwise
from .vloss import DerivativeBundle, LossFunctional, value, value_and_derivatives

__all__ = [
    "CheckResult",
    "FdReport",
    "SCOPES",
    "step_canonical",
    "natural_delta",
    "step_generic",
    "fd_check",
    "direct_grad_prec",
    "kronecker_identities",
    "fim_vs_fd_kl_hessian",
    "fim_inverse_identity",
    "symmetry_equivalence",
    "derivative_relation",
    "one_step_exactness",
    "fd_derivatives",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class FdReport:
    """Relative errors of the analytic derivatives against finite differences."""

    grad_mu_error: float
    hess_mu_error: float
    grad_prec_error: float
    step: float


def _resid(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# natural-gradient steps outside the hybrid iteration


def step_canonical(q: MeanCovariance, d: DerivativeBundle) -> MeanCovariance:
    """One canonical (mean/covariance) natural-gradient step: the theta
    step, with the covariance-side gradient recovered from the bundle's
    precision derivative via dV/dcov = -prec @ (dV/dprec) @ prec. The
    result is revalidated as positive definite; a failed validation is the
    step rejection.
    """
    prec = prec_of(q)
    grad_sigma = -prec @ d.grad_prec.full() @ prec
    return step_generic(q, "theta", np.concatenate([d.grad_mu, vec(grad_sigma)]))


def natural_delta(q, tag: str, grad: np.ndarray) -> np.ndarray:
    """-(inverse FIM) @ grad in the tagged coordinate layout."""
    inverse = fim_inverse(q, tag)
    grad = np.asarray(grad, dtype=float).reshape(-1)
    if grad.shape[0] != inverse.shape[0]:
        raise ValueError(
            f"gradient length {grad.shape[0]} does not match the "
            f"{tag} coordinate count {inverse.shape[0]}"
        )
    return -(inverse @ grad)


def step_generic(q, tag: str, grad: np.ndarray):
    """Apply the natural-gradient step for any parameterization.

    Returns a Gaussian in the form of the matrix the tag holds:
    mean/covariance for theta and gamma, mean/precision for alpha, beta
    and eta.
    """
    c = _coords(q, tag) + natural_delta(q, tag, grad)
    mean, matrix, which = _from_coords(c, tag, q.dim)
    native = MeanCovariance if which == "cov" else MeanPrecision
    return native.from_dense(mean, matrix)


# ---------------------------------------------------------------------------
# finite-difference validation of the derivative bundle


def _rel_err(found: np.ndarray, expected: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(expected)))
    return float(np.linalg.norm(found - expected)) / scale


def fd_check(loss: LossFunctional, q, rule: ExpectationRule, step: float = 1e-5) -> FdReport:
    """Validate the derivative bundle against finite differences of ``value``.

    The precision is differenced in its half-vector coordinates, where
    moving entry (i, j) moves (j, i) with it. Expanded with ``matf``,
    those difference quotients are ``sym`` of the symmetric-matrix
    derivative: its diagonal, and twice each off-diagonal entry.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = q.dim
    mu = q.mean
    half = vech(prec_of(q))
    _, bundle = value_and_derivatives(loss, q, rule)

    def val(mu2: np.ndarray, half2: np.ndarray) -> float:
        return value(loss, MeanPrecision(mu2, matf(half2, n)), rule)

    grad_fd = central_gradient(lambda mu2: val(mu2, half), mu, step)
    # second differences need a larger step to beat roundoff
    hess_fd = central_hessian(lambda mu2: val(mu2, half), mu, max(step, 1e-3))
    prec_fd = shrink_until_pd(
        lambda h: central_gradient(lambda half2: val(mu, half2), half, h), step, "precision difference"
    )
    return FdReport(
        grad_mu_error=_rel_err(grad_fd, bundle.grad_mu),
        hess_mu_error=_rel_err(hess_fd, bundle.hess_mu.full()),
        grad_prec_error=_rel_err(matf(prec_fd, n).full(), sym(bundle.grad_prec.full())),
        step=step,
    )


# ---------------------------------------------------------------------------
# acceptance criteria


def kronecker_identities() -> list[CheckResult]:
    """Criterion 1: duplication-matrix and Kronecker identities, n = 1..5.

    Two bands of singular values: near 1 with a symmetric ``s`` and the
    determinant identity in absolute terms, and the wider [0.5, 2] with an
    SPD ``s`` and the determinant relative to max(1, |det|), whose absolute
    error reaches 5e-7 there. The wider band's names carry ``wide/``.
    """
    rng = np.random.default_rng(101)
    results = []
    for band, lo, hi in (("", 0.8, 1.25), ("wide/", 0.5, 2.0)):
        for n in range(1, 6):
            pair = duplication(n)
            d, dp = pair.dup, pair.pinv
            worst: dict[str, float] = {}
            for _ in range(100):
                a, b, c = (random_well_conditioned(n, rng, lo, hi) for _ in range(3))
                s = random_spd(n, rng) if band else random_symmetric(n, rng)
                u = rng.standard_normal(n)
                w = rng.standard_normal(n)
                det_expected = np.linalg.det(a) ** n * np.linalg.det(b) ** n
                det_scale = max(1.0, abs(det_expected)) if band else 1.0
                residuals = {
                    "dup1": _resid(dp @ d, np.eye(half_len(n))),
                    "dup2": _resid(dp.T @ d.T, d @ dp),
                    "dup3": _resid(d @ dp @ vec(s), vec(s)),
                    "dup4": _resid(d @ dp @ kron(a, a) @ d, kron(a, a) @ d),
                    "sym": _resid(d @ d.T @ vec(a), vec(sym(a))),
                    "mixed": _resid(kron(a, b) @ kron(c, s), kron(a @ c, b @ s)),
                    "inverse": _resid(np.linalg.inv(kron(a, b)), kron(np.linalg.inv(a), np.linalg.inv(b))),
                    "transpose": _resid(kron(a, b).T, kron(a.T, b.T)),
                    "det": abs(np.linalg.det(kron(a, b)) - det_expected) / det_scale,
                    "trace": abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)),
                    "quadform": abs(
                        float(u @ b @ c @ b.T @ w) - float(vec(b) @ kron(c.T, np.outer(w, u)) @ vec(b))
                    ),
                    "vec_abc": _resid(vec(a @ b @ c), kron(c.T, a) @ vec(b)),
                }
                for key, resid in residuals.items():
                    worst[key] = max(worst.get(key, 0.0), resid)
            results += [CheckResult(f"kron/dim{n}/{band}{key}", resid, 1e-12) for key, resid in worst.items()]
    return results


def fim_vs_fd_kl_hessian() -> list[CheckResult]:
    """Criterion 2: each closed-form FIM matches the finite-difference KL
    Hessian on unique coordinates (relative Frobenius error)."""
    rng = np.random.default_rng(102)
    results = []
    for tag in PARAM_TAGS:
        for n in (1, 2, 3):
            g = random_gaussian(n, rng)
            closed = reduce_to_unique(fim(g, tag), tag, n)
            numeric = reduce_to_unique(fd_kl_hessian(g, tag, step=1e-3), tag, n)
            rel = float(np.linalg.norm(numeric - closed) / np.linalg.norm(closed))
            results.append(CheckResult(f"fim/{tag}/n{n}/fd_hessian", rel, 1e-4))
    return results


def fim_inverse_identity() -> list[CheckResult]:
    """Criterion 3: the closed-form inverse FIM times the FIM is the identity."""
    rng = np.random.default_rng(103)
    results = []
    for tag in PARAM_TAGS:
        for n in (1, 2, 3):
            worst = 0.0
            for _ in range(50):
                g = random_gaussian(n, rng)
                product = fim_inverse(g, tag) @ fim(g, tag)
                worst = max(worst, _resid(product, np.eye(product.shape[0])))
            results.append(CheckResult(f"fim/{tag}/n{n}/inverse", worst, 1e-9))
    return results


def symmetry_equivalence() -> list[CheckResult]:
    """Criterion 4: symmetry-blind (vec) and symmetry-aware (vech) natural
    steps agree, in covariance (canonical) and precision (hybrid) coordinates."""
    rng = np.random.default_rng(104)
    worst = {"canonical": 0.0, "hybrid": 0.0}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g = random_gaussian(n, rng)
        grad_mu = rng.standard_normal(n)
        grad_matrix = random_symmetric(n, rng)
        blind = np.concatenate([grad_mu, vec(grad_matrix)])
        aware = np.concatenate([grad_mu, duplication(n).dup.T @ vec(grad_matrix)])
        for name, vec_tag, vech_tag in (("canonical", "theta", "gamma"), ("hybrid", "alpha", "beta")):
            _, delta_blind, _ = _from_coords(natural_delta(g, vec_tag, blind), vec_tag, n)
            _, delta_aware, _ = _from_coords(natural_delta(g, vech_tag, aware), vech_tag, n)
            worst[name] = max(worst[name], _resid(delta_blind, delta_aware))
    return [CheckResult(f"ngd/equivalence/{name}", resid, 1e-10) for name, resid in worst.items()]


def direct_grad_prec(loss: LossFunctional, q, rule: ExpectationRule) -> np.ndarray:
    """The precision derivative from its own moment formula,

        -(1/2) E[((x - mu)(x - mu)^T - cov) phi] + (1/2) cov,

    with the Stein moment as the sweep returns it, which never reads the
    mean Hessian: the side of criterion 5 that the bundle's
    relation-derived ``grad_prec`` is compared against."""
    _, _, matrix = expect_weighted(rule, q, loss.phi)
    return -0.5 * matrix + 0.5 * cov_of(q)


def _relation_residual(phi, g, order: int) -> float:
    """max |direct grad_prec - (cov/2 - cov hess_mu cov/2)| under order-``order`` GH."""
    loss = LossFunctional(g.dim, pointwise(phi))
    rule = ExpectationRule("gauss_hermite", order)
    _, bundle = value_and_derivatives(loss, g, rule)
    return _resid(direct_grad_prec(loss, g, rule), bundle.grad_prec.full())


def derivative_relation() -> list[CheckResult]:
    """Criterion 5: the precision derivative from its direct moment formula
    obeys grad_prec = cov/2 - cov hess_mu cov/2, the relation the bundle
    derives it from."""
    rng = np.random.default_rng(105)
    worst_poly = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        g = random_gaussian(n, rng)
        coeffs4 = rng.standard_normal(n)
        coeffs2 = random_spd(n, rng)
        coeffs1 = rng.standard_normal(n)

        def poly(x):
            return float(0.1 * np.sum(coeffs4 * x**4) + 0.5 * x @ coeffs2 @ x + coeffs1 @ x)

        worst_poly = max(worst_poly, _relation_residual(poly, g, 5))

    worst_cos = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 3))
        worst_cos = max(
            worst_cos,
            _relation_residual(lambda x: float(np.cos(np.sum(x))), random_gaussian(n, rng), 15),
        )

    def quartic(x):
        return float(0.25 * np.sum(x**4) + 0.5 * x @ x + x[0] * x[1])

    return [
        CheckResult("deriv/relation/polynomial", worst_poly, 1e-8),
        CheckResult("deriv/relation/cosine", worst_cos, 1e-6),
        CheckResult("deriv/relation/quartic", _relation_residual(quartic, random_gaussian(2, rng), 7), 1e-8),
    ]


def _one_step_residual(rng: np.random.Generator, n: int, terms: int) -> float:
    """Distance of one hybrid step from the closed-form posterior of a sum
    of ``terms`` quadratic terms, swept by the default rule for ``n``."""
    ms = [rng.standard_normal(n) for _ in range(terms)]
    ps = [random_spd(n, rng) for _ in range(terms)]
    prec_post = sum(ps)
    mean_post = np.linalg.solve(prec_post, sum(p @ m for p, m in zip(ps, ms)))
    quadratics = [Factor.gaussian("q", range(n), m, p).local_phi for m, p in zip(ms, ps)]

    def phi(x):
        return sum(q(x) for q in quadratics)

    q0 = MeanPrecision.from_dense(rng.standard_normal(n), random_spd(n, rng))
    loss = LossFunctional(n, phi)
    _, bundle = value_and_derivatives(loss, q0, default_rule(n))
    q1 = step_hybrid(q0, bundle)
    return max(_resid(q1.mean, mean_post), _resid(q1.prec.full(), prec_post))


def _factored_one_step_residual(rng: np.random.Generator, n: int) -> float:
    """Distance of one factored hybrid step from the closed-form posterior
    (sum S^T P S, solved for the mean) of a random graph of
    ``Factor.gaussian`` factors of arity 1-3 over ``n`` variables, the
    first of which cover every variable."""
    order = [int(i) for i in rng.permutation(n)]
    blocks = [order[i : i + 3] for i in range(0, n, 3)]
    blocks += [[int(i) for i in rng.choice(n, int(rng.integers(1, 4)), replace=False)] for _ in range(n)]
    prec_post = np.zeros((n, n))
    shift = np.zeros(n)
    gaussians = []
    for k, idx in enumerate(blocks):
        m = rng.standard_normal(len(idx))
        p = random_spd(len(idx), rng)
        gaussians.append(Factor.gaussian(f"g{k}", idx, m, p))
        prec_post[np.ix_(idx, idx)] += p
        shift[idx] += p @ m
    mean_post = np.linalg.solve(prec_post, shift)
    q0 = MeanPrecision.from_dense(rng.standard_normal(n), np.diag(rng.uniform(0.5, 2.0, n)))
    cfg = NgdConfig(max_iters=1, rule=ExpectationRule("gauss_hermite", 5))
    q1, _ = optimize_factored(FactorGraph(n, tuple(gaussians)), q0, cfg)
    return max(_resid(q1.mean, mean_post), _resid(q1.prec.full(), prec_post))


def one_step_exactness() -> list[CheckResult]:
    """Criterion 6: one hybrid step from any start lands on the exact
    posterior of a linear-Gaussian problem, dense or factored, and at the
    arities where the default rule is Gauss-Hermite of order 3."""
    rng = np.random.default_rng(106)
    summed = max(_one_step_residual(rng, int(rng.integers(1, 5)), 3) for _ in range(10))
    single = _one_step_residual(rng, 3, 1)
    factored = max(_factored_one_step_residual(rng, int(rng.integers(3, 9))) for _ in range(10))
    return [
        CheckResult("ngd/one_step/summed_quadratic", summed, 1e-10),
        CheckResult("ngd/one_step/quadratic", single, 1e-10),
        CheckResult("ngd/one_step/factored_quadratic", factored, 1e-10),
    ] + [CheckResult(f"ngd/one_step/arity{n}", _one_step_residual(rng, n, 1), 1e-10) for n in (7, 8, 10)]


def _fd_worst(phi, g, order: int) -> float:
    """The largest ``fd_check`` error for the batched integrand ``phi``."""
    report = fd_check(LossFunctional(g.dim, phi), g, ExpectationRule("gauss_hermite", order))
    return max(report.grad_mu_error, report.hess_mu_error, report.grad_prec_error)


def fd_derivatives() -> list[CheckResult]:
    """Criterion 9: the derivative bundle matches finite differences of the
    loss value."""
    rng = np.random.default_rng(109)
    # a random quadratic and a fixed one, each from a random start
    quadratics = [
        Factor.gaussian("q", (0, 1), rng.standard_normal(2), random_spd(2, rng)).local_phi,
        Factor.gaussian("q", (0, 1), [0.3, -0.2], [[2.0, 0.5], [0.5, 1.5]]).local_phi,
    ]
    worst_quadratic = max(
        _fd_worst(q, MeanPrecision.from_dense(rng.standard_normal(2), random_spd(2, rng)), 5)
        for q in quadratics
    )

    def logistic(x):
        t = 1.5 * x[:, 0]
        return np.logaddexp(0.0, t) - t

    worst_logistic = _fd_worst(logistic, MeanPrecision.from_dense([0.3], [[2.0]]), 15)
    worst_cosine = _fd_worst(lambda x: np.cos(x[:, 0]), MeanPrecision.from_dense([0.4], [[1.8]]), 15)
    return [
        CheckResult("deriv/fd/quadratic", worst_quadratic, 1e-5),
        CheckResult("deriv/fd/logistic", worst_logistic, 1e-4),
        CheckResult("deriv/fd/cosine", worst_cosine, 1e-6),
    ]


# criteria grouped by the module whose claims they check; ``ngvi verify --scope``
SCOPES = {
    "kron": (kronecker_identities,),
    "fim": (fim_vs_fd_kl_hessian, fim_inverse_identity),
    "deriv": (derivative_relation, fd_derivatives),
    "ngd": (symmetry_equivalence, one_step_exactness),
}
