"""End-to-end acceptance criteria.

Each test exercises one shipping criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import hashlib

from ngvi import verify
from ngvi.cli import main
from ngvi.factors import optimize_factored, pattern_violations, sparsity_pattern


def report(number: int, name: str, worst: float, tol: float) -> None:
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} (worst residual {worst:.3e}, tolerance {tol:.1e})")
    assert worst <= tol, f"criterion {number} ({name}): {worst:.3e} > {tol:.1e}"


def report_checks(number: int, name: str, results: list[verify.CheckResult]) -> None:
    """One ACCEPTANCE line for a criterion defined in ``ngvi.verify``."""
    failed = [f"{r.name} {r.residual:.3e} > {r.tol:.1e}" for r in results if not r.ok]
    closest = max(results, key=lambda r: r.residual / r.tol)
    print(
        f"ACCEPTANCE {number} {name}: {'FAIL' if failed else 'PASS'} ({len(results)} checks; "
        f"closest to its tolerance: {closest.name} {closest.residual:.3e} <= {closest.tol:.1e})"
    )
    assert not failed, f"criterion {number} ({name}): " + "; ".join(failed)


def test_criterion_1_duplication_and_kronecker_identities():
    report_checks(1, "duplication and Kronecker identities", verify.kronecker_identities())


def test_criterion_2_fim_matches_fd_kl_hessian():
    report_checks(2, "FIM vs finite-difference KL Hessian", verify.fim_vs_fd_kl_hessian())


def test_criterion_3_closed_form_inverse_fims():
    report_checks(3, "inverse FIM times FIM is identity", verify.fim_inverse_identity())


def test_criterion_4_symmetry_equivalence():
    report_checks(4, "symmetry-aware and blind steps agree", verify.symmetry_equivalence())


def test_criterion_5_derivative_relation():
    report_checks(5, "derivative relation", verify.derivative_relation())


def test_criterion_6_one_step_exactness():
    report_checks(6, "one-step exactness on linear-Gaussian problems", verify.one_step_exactness())


def test_criterion_7_sparsity_preservation():
    from ngvi.cli import load_problem

    worst_violations = 0
    for name in ("linear_chain", "range_slam_toy"):
        spec = load_problem(name)
        # optimize_factored raises SparsityError on any iterate that
        # leaves the pattern; reaching the end means exact containment held
        q, trace = optimize_factored(spec.graph, spec.init, spec.config)
        assert trace.converged, name
        worst_violations += len(
            pattern_violations(q.prec, sparsity_pattern(spec.graph))
        )
    report(7, "precision support stays in the factor pattern", float(worst_violations), 0.0)


def test_criterion_8_loss_non_increasing(tmp_path):
    worst = 0.0
    for name in ("logistic_1d", "range_slam_toy"):
        out = tmp_path / name
        assert main(["run", name, "-o", str(out)]) == 0
        values = []
        for line in (out / "trace.txt").read_text().splitlines():
            if not line.startswith("#"):
                values.append(float(line.split("\t")[1]))
        for earlier, later in zip(values, values[1:]):
            worst = max(worst, (later - earlier) / max(1.0, abs(earlier)))
    report(8, "loss is non-increasing across iterations", worst, 1e-9)


def test_criterion_9_fd_derivative_validation():
    report_checks(9, "finite-difference derivative validation", verify.fd_derivatives())


def test_criterion_10_determinism(tmp_path):
    digests = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        assert main(["run", "range_slam_toy", "-o", str(out)]) == 0
        sha = hashlib.sha256()
        sha.update((out / "trace.txt").read_bytes())
        sha.update((out / "estimate.txt").read_bytes())
        digests.append(sha.hexdigest())
    worst = 0.0 if digests[0] == digests[1] else 1.0
    report(10, "repeated runs are byte-identical", worst, 0.0)
