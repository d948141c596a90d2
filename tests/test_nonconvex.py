"""The nonconvex reproducer: a chain whose first mean Hessian is indefinite.

The graph is 24 factors (sin x_i + x_i - x_{i+1})^2 over (i, i + 1), 25
variables, started at mu = (0, 1, ..., 24) with prec = I, under the
default rule. These tests pin what the hybrid step does on it today:
with ``jitter`` 0 the first step fails, and ``jitter`` 1 or 10 turns the
failure into a run that uses its whole budget without converging.
ROADMAP item 6 (a step that survives nonconvexity without biasing the
answer) flips these assertions: the run should then converge, with no
``jitter``.
"""

import numpy as np
import pytest

from ngvi.factors import Factor, FactorGraph, optimize_factored
from ngvi.gaussian import MeanPrecision
from ngvi.ngd import IndefiniteHessianError, NgdConfig


def _sine_term(u: np.ndarray) -> np.ndarray:
    r = np.sin(u[:, 0]) + u[:, 0] - u[:, 1]
    return r * r


@pytest.fixture
def sine_chain() -> tuple[FactorGraph, MeanPrecision]:
    n = 25
    graph = FactorGraph(n, tuple(Factor(f"s{i}", (i, i + 1), _sine_term) for i in range(n - 1)))
    return graph, MeanPrecision.from_dense(np.arange(n, dtype=float), np.eye(n))


def test_sine_chain_fails_at_the_first_step(sine_chain):
    graph, q0 = sine_chain
    with pytest.raises(IndefiniteHessianError) as excinfo:
        optimize_factored(graph, q0, NgdConfig())
    assert len(excinfo.value.trace.records) == 0
    assert excinfo.value.min_eigenvalue == pytest.approx(-0.1218, abs=1e-4)


@pytest.mark.parametrize("jitter", [1.0, 10.0])
def test_sine_chain_with_jitter_exhausts_the_budget(sine_chain, jitter):
    graph, q0 = sine_chain
    _, trace = optimize_factored(graph, q0, NgdConfig(jitter=jitter))
    assert len(trace.records) == 101
    assert not trace.converged
