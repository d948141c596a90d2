"""Command-line interface: runs, outputs, determinism, verification."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngvi import cli
from ngvi._testing import random_spd
from ngvi.cli import (
    ProblemError,
    build_phi,
    bundled_problem_names,
    load_problem,
    main,
    parse_estimate,
    parse_problem,
    write_estimate,
)
from ngvi.gaussian import MeanPrecision
from ngvi.kronmat import SymmetricMatrix


def file_hash(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_trace_rows(path):
    rows = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            it, value, grad, accepted, converged = line.split("\t")
            rows.append((int(it), float(value), float(grad), int(accepted), int(converged)))
    return rows


def test_bundled_problems_exist():
    names = bundled_problem_names()
    assert {"scalar_gaussian", "linear_chain", "logistic_1d", "range_slam_toy"} <= set(names)


def test_load_problem_unknown_name():
    with pytest.raises(ProblemError):
        load_problem("no_such_problem")


def test_build_phi_unknown_kind():
    with pytest.raises(ProblemError) as excinfo:
        build_phi("mystery", {}, 1, "f7")
    assert "f7" in str(excinfo.value)


def test_build_phi_logistic():
    phi = build_phi("logistic_bernoulli", {"feature": [2.0], "label": 1}, 1, "obs")
    t = 0.7
    expected = np.logaddexp(0.0, 2.0 * t) - 2.0 * t
    assert np.isclose(phi(np.array([[t]]))[0], expected, atol=1e-14)


def test_build_phi_polynomial():
    phi = build_phi("polynomial", {"coefficients": [1.0, 0.0, 2.0]}, 1, "p")
    assert np.isclose(phi(np.array([[3.0]]))[0], 1.0 + 2.0 * 9.0, atol=1e-14)


def test_run_scalar_gaussian(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "scalar_gaussian", "-o", str(out)]) == 0
    q = parse_estimate(str(out / "estimate.txt"))
    assert np.isclose(q.mean[0], 1.0, atol=1e-10)
    assert np.isclose(q.prec.full()[0, 0], 4.0, atol=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True


def test_run_linear_chain_converges_at_iteration_one(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "linear_chain", "-o", str(out)]) == 0
    rows = read_trace_rows(str(out / "trace.txt"))
    assert rows[-1][0] == 1  # iteration counter
    assert rows[-1][4] == 1  # converged flag on the last row
    q = parse_estimate(str(out / "estimate.txt"))
    assert np.allclose(q.mean, [0.0, 1.0, 2.0, 3.0], atol=1e-10)
    expected_prec = (
        np.diag([2.0, 2.0, 2.0, 1.0])
        + np.diag([-1.0] * 3, 1)
        + np.diag([-1.0] * 3, -1)
    )
    assert np.allclose(q.prec.full(), expected_prec, atol=1e-10)


def test_run_is_byte_deterministic(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "logistic_1d", "-o", str(out)]) == 0
        hashes.append(
            (file_hash(str(out / "trace.txt")), file_hash(str(out / "estimate.txt")))
        )
    assert hashes[0] == hashes[1]


def test_estimate_round_trip_converges_without_stepping(tmp_path):
    out1 = tmp_path / "first"
    assert main(["run", "logistic_1d", "-o", str(out1)]) == 0
    q = parse_estimate(str(out1 / "estimate.txt"))

    raw = json.loads(open(_bundled_path("logistic_1d")).read())
    raw["init"] = {
        "form": "mean_precision",
        "mean": [float(x) for x in q.mean],
        "matrix_vech": [float(x) for x in q.prec.half],
    }
    restarted = tmp_path / "problem.json"
    restarted.write_text(json.dumps(raw))
    out2 = tmp_path / "second"
    assert main(["run", str(restarted), "-o", str(out2)]) == 0
    rows = read_trace_rows(str(out2 / "trace.txt"))
    assert rows[-1][0] == 0  # converged with zero steps
    q2 = parse_estimate(str(out2 / "estimate.txt"))
    assert np.array_equal(q2.mean, q.mean)
    assert np.array_equal(q2.prec.half, q.prec.half)


def test_estimate_text_is_the_per_value_format(tmp_path):
    # signed zeros, subnormals, the extremes of the exponent range and
    # values that need all 17 digits, against format(float(x), ".17g")
    mean = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1e300, 1e22, 1 / 3, 0.1, -123456789.12345679, 3 * 2.0**-1074])
    prec = np.diag([1e300, 5e-324, 4e-320, 2.0, 1e-300, 3.0, 1 / 7, 1e22, 0.1, 1.5, 2.5e-310, 7.0])
    prec[1, 0] = prec[0, 1] = -0.0
    q = MeanPrecision(mean, SymmetricMatrix.from_full(prec))
    path = tmp_path / "estimate.txt"
    write_estimate(str(path), q)
    expected = [
        "# ngvi-estimate/1",
        "# dimension 12",
        "mean " + " ".join(format(float(x), ".17g") for x in q.mean),
        "prec_vech " + " ".join(format(float(x), ".17g") for x in q.prec.half),
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert "-0 0 4.9406564584124654e-324" in expected[2] and " -0 " in expected[3]


def _bundled_path(name):
    from importlib import resources

    return str(resources.files("ngvi") / "problems" / f"{name}.json")


def test_malformed_index_names_factor(tmp_path, capsys):
    raw = json.loads(open(_bundled_path("linear_chain")).read())
    raw["factors"][2]["indices"] = [1, 9]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert raw["factors"][2]["id"] in err


def test_unknown_phi_kind_exits_one(tmp_path, capsys):
    raw = json.loads(open(_bundled_path("scalar_gaussian")).read())
    raw["factors"][0]["phi"]["kind"] = "mystery"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    assert "mystery" in capsys.readouterr().err


def test_wrong_schema_exits_one(tmp_path, capsys):
    raw = json.loads(open(_bundled_path("scalar_gaussian")).read())
    raw["schema"] = "ngvi-problem/99"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    assert "schema" in capsys.readouterr().err


def test_invalid_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    assert "JSON" in capsys.readouterr().err


def test_indefinite_marginal_names_factor(tmp_path, capsys, monkeypatch):
    # The initial precision passes its Cholesky, but its squared pivot
    # ratio is 5.7e-17, below eps: it is numerically singular, and the
    # parser refuses it by field.
    a, b, c = 3.8873945481944796, 2.5281465849980265, 1.6441668258771829
    quad = {"kind": "gaussian_quadratic", "m": [0.0], "P": [[1.0]]}
    raw = {
        "schema": "ngvi-problem/1",
        "name": "near_singular",
        "dimension": 2,
        "init": {"form": "mean_precision", "mean": [0.0, 0.0], "matrix_vech": [a, b, c]},
        "factors": [
            {"id": "x1", "indices": [1], "phi": quad},
            {"id": "pair", "indices": [0, 1],
             "phi": {"kind": "gaussian_quadratic", "m": [0.0, 0.0], "P": [[1.0, 0.0], [0.0, 1.0]]}},
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: field 'init.matrix_vech': the matrix is numerically singular\n"
    # W^T W cannot make a negative variance, so one is injected into every
    # iterate: the run names the first factor whose marginal fails
    monkeypatch.setattr(MeanPrecision, "covariance", property(lambda q: np.diag([1.0, -1e-3])))
    raw["init"]["matrix_vech"] = [1.0, 0.0, 1.0]
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: marginal covariance of factor 'x1' is not positive definite\n", err


def test_indefinite_mean_hessian_names_the_iteration(tmp_path, capsys):
    # -2 x^2 + 0.01 x^4 under N(0, 1) has E[phi''] = -4 + 0.12 < 0
    poly = {"kind": "polynomial", "coefficients": [0.0, 0.0, -2.0, 0.0, 0.01]}
    n = 5
    raw = {
        "schema": "ngvi-problem/1",
        "dimension": n,
        "init": {"form": "mean_precision", "mean": [0.0] * n,
                 "matrix_vech": SymmetricMatrix.from_full(np.eye(n)).half.tolist()},
        "factors": [{"id": f"p{i}", "indices": [i], "phi": poly} for i in range(n)],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error at iteration 0: mean Hessian is indefinite (smallest eigenvalue "), err


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_init_forms_parse_to_the_same_start(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(n)
    prec = random_spd(n, rng)
    forms = {
        "mean_precision": (mu, prec),
        "mean_covariance": (mu, np.linalg.inv(prec)),
        "natural": (prec @ mu, prec),
    }
    poly = {"kind": "polynomial", "coefficients": [0.0, 0.0, 0.5]}
    raw = {
        "schema": "ngvi-problem/1",
        "dimension": n,
        "factors": [{"id": f"p{i}", "indices": [i], "phi": poly} for i in range(n)],
    }
    starts = {}
    for form, (vector, matrix) in forms.items():
        raw["init"] = {"form": form, "mean": vector.tolist(),
                       "matrix_vech": SymmetricMatrix.from_full(matrix).half.tolist()}
        q = starts[form] = parse_problem(raw).init
        assert np.max(np.abs(q.mean - mu)) <= 1e-12, form
        assert np.max(np.abs(q.prec.full() - prec)) <= 1e-12, form
    assert starts["natural"].prec.half.tobytes() == starts["mean_precision"].prec.half.tobytes()


def test_unknown_init_form_names_the_field():
    raw = json.loads(open(_bundled_path("linear_chain")).read())
    for form in ("cholesky", ["mean_precision"]):
        raw["init"]["form"] = form
        with pytest.raises(ProblemError, match="field 'init.form'"):
            parse_problem(raw)


def test_parse_estimate_requires_the_precision(tmp_path):
    path = tmp_path / "estimate.txt"
    path.write_text("# ngvi-estimate/1\n# dimension 2\nmean 0.5 -0.25\n")
    with pytest.raises(ProblemError, match="missing mean or prec_vech"):
        parse_estimate(str(path))


@pytest.mark.parametrize("form", ["mean_precision", "mean_covariance", "natural"])
def test_init_matrix_not_positive_definite_names_the_field(tmp_path, capsys, form):
    raw = json.loads(open(_bundled_path("linear_chain")).read())
    raw["init"] = {"form": form, "mean": [0.0] * 4, "matrix_vech": [1, 2, 0, 0, 1, 0, 0, 1, 0, 1]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'init.matrix_vech': ") and "not positive definite" in err, err


def test_init_covariance_without_inverse_names_the_field():
    # [[2, 1], [1, 0.5]] passes its Cholesky factorization, but as a
    # covariance it has no precision to convert to
    raw = json.loads(open(_bundled_path("linear_chain")).read())
    raw["init"] = {"form": "mean_covariance", "mean": [0.0] * 4,
                   "matrix_vech": [2.0, 1.0, 0, 0, 0.5, 0, 0, 1, 0, 1]}
    with pytest.raises(ProblemError, match="^field 'init.matrix_vech': the matrix is numerically singular$"):
        parse_problem(raw)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("mean 0.5 x\nprec_vech 1 0 1\n", "key 'mean': could not convert string to float: 'x'"),
        ("mean 0.5 -0.25\nprec_vech 1 0\n", "key 'prec_vech' has 2 values, expected 3 for a mean of length 2"),
        ("mean 0.5 -0.25\nprec_vech 1 2 1\n", "key 'prec_vech': precision is not positive definite"),
        ("mean 0.5 nan\nprec_vech 1 0 1\n", "key 'mean' contains non-finite entries"),
        ("mean 0.5 -0.25\nprec_vech 1 inf 1\n", "key 'prec_vech': half vector contains non-finite entries"),
        ("mean 0.5 -0.25\nprec_vech 1 0 1e-17\n", "key 'prec_vech': the matrix is numerically singular"),
        ("mean 0.5 -0.25\nprec_vec 1 0 1\n", "key 'prec_vec' is unknown; expected 'mean' or 'prec_vech'"),
        ("# note\nmean 0.5 -0.25\nprec_vech 1 0 1\n", "key '#' is unknown; expected 'mean' or 'prec_vech'"),
        ("mean 0.5 -0.25\nprec_vech 1 0 1\nmean 1 2\n", "key 'mean' is repeated"),
    ],
    ids=[
        "non-numeric-token",
        "short-prec-vech",
        "indefinite-prec-vech",
        "nan-mean",
        "inf-prec-vech",
        "singular-prec-vech",
        "unknown-key",
        "stray-comment",
        "repeated-key",
    ],
)
def test_parse_estimate_names_the_file_and_key(tmp_path, lines, message):
    path = tmp_path / "estimate.txt"
    path.write_text("# ngvi-estimate/1\n# dimension 2\n" + lines)
    with pytest.raises(ProblemError) as excinfo:
        parse_estimate(str(path))
    assert str(excinfo.value) == f"estimate file {str(path)!r}: {message}"


@pytest.mark.parametrize(
    "header, message",
    [
        ("# dimension 2\n", "key 'schema': expected '# ngvi-estimate/1' as the first line, found '# dimension 2'"),
        ("# ngvi-estimate/9\n# dimension 2\n",
         "key 'schema': expected '# ngvi-estimate/1' as the first line, found '# ngvi-estimate/9'"),
        ("# ngvi-estimate/1\n", "key 'dimension': expected '# dimension n' as the second line, found 'mean 0.5 -0.25'"),
        ("# ngvi-estimate/1\n# dimension 7\n", "key 'dimension': '# dimension 7' disagrees with the mean's length 2"),
    ],
    ids=["missing-schema", "other-schema", "missing-dimension", "wrong-dimension"],
)
def test_parse_estimate_checks_the_header(tmp_path, header, message):
    path = tmp_path / "estimate.txt"
    path.write_text(header + "mean 0.5 -0.25\nprec_vech 1 0 1\n")
    with pytest.raises(ProblemError) as excinfo:
        parse_estimate(str(path))
    assert str(excinfo.value) == f"estimate file {str(path)!r}: {message}"


def test_output_path_that_is_a_file_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert main(["run", "scalar_gaussian", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {str(out)!r}: ") and err.count("\n") == 1, err


def test_output_write_failure_exits_one(tmp_path, capsys, monkeypatch):
    def unwritable(path, q):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "write_estimate", unwritable)
    out = tmp_path / "out"
    assert main(["run", "scalar_gaussian", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {str(out)!r}: ") and "Permission denied" in err, err


def test_singular_iterate_precision_is_named(tmp_path, capsys):
    # [[2, 1], [1, 0.5]] is singular. Its Cholesky factorization passes:
    # fl(1 / fl(sqrt 2))^2 < 0.5 leaves a positive pivot, with or without
    # FMA, but its squared pivot ratio, 5.6e-17, is below eps, and the
    # parser refuses it by field.
    quad = {"kind": "gaussian_quadratic", "m": [0.0, 0.0], "P": [[1.0, 0.0], [0.0, 1.0]]}
    raw = {
        "schema": "ngvi-problem/1",
        "name": "singular_iterate",
        "dimension": 3,
        "init": {
            "form": "mean_precision",
            "mean": [0.0, 0.0, 0.0],
            "matrix_vech": [2.0, 1.0, 0.0, 0.5, 0.0, 0.5],
        },
        "factors": [
            {"id": "pair", "indices": [0, 1], "phi": quad},
            {"id": "x2", "indices": [2], "phi": {"kind": "gaussian_quadratic", "m": [0.0], "P": [[1.0]]}},
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: field 'init.matrix_vech': the matrix is numerically singular\n"


def test_zero_max_iters_override_exits_one(capsys, tmp_path):
    assert main(["run", "scalar_gaussian", "-o", str(tmp_path), "--max-iters", "0"]) == 1
    assert "max_iters" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["gauss_hermite", "monte_carlo"])
def test_negative_seed_override_exits_one(capsys, tmp_path, rule):
    out = tmp_path / "out"
    assert main(["run", "scalar_gaussian", "-o", str(out), "--rule", rule, "--seed", "-3"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_rule_kind_override_without_order_exits_one(capsys, tmp_path):
    # the problem's Gauss-Hermite order 5 is no Monte Carlo sample count
    out = tmp_path / "out"
    assert main(["run", "logistic_1d", "-o", str(out), "--rule", "monte_carlo"]) == 1
    assert "--order" in capsys.readouterr().err
    assert not out.exists()


def test_rule_kind_override_with_order_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "logistic_1d", "-o", str(out), "--rule", "monte_carlo", "--order", "10000"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rule"]["kind"] == "monte_carlo"
    assert manifest["rule"]["order"] == 10000


def test_max_iters_exhaustion_exits_two(tmp_path):
    # logistic_1d needs ~11 iterations; 2 is not enough
    out = tmp_path / "out"
    assert main(["run", "logistic_1d", "-o", str(out), "--max-iters", "2"]) == 2
    rows = read_trace_rows(str(out / "trace.txt"))
    assert rows[-1][4] == 0


def test_overrides_recorded_in_manifest(tmp_path):
    out = tmp_path / "out"
    assert main(
        ["run", "scalar_gaussian", "-o", str(out), "--step-scale", "0.5", "--order", "7"]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["step_scale"] == 0.5
    assert manifest["rule"]["order"] == 7


def test_run_range_slam(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "range_slam_toy", "-o", str(out)]) == 0
    rows = read_trace_rows(str(out / "trace.txt"))
    values = [r[1] for r in rows]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-9 * max(1.0, abs(earlier))
    q = parse_estimate(str(out / "estimate.txt"))
    # the robot estimate moves toward the true position (1, 1)
    assert np.linalg.norm(q.mean[:2] - np.array([1.0, 1.0])) < 0.1


def test_verify_scopes(capsys):
    for scope in ("kron", "fim", "deriv", "ngd"):
        assert main(["verify", "--scope", scope]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


# ---------------------------------------------------------------------------
# malformed input fails early, naming the field

PHI_CASES = [
    ("gaussian_quadratic", {"m": [0.5, -1.0], "P": [[2.0, 0.3], [0.3, 1.0]]}, 2),
    ("logistic_bernoulli", {"feature": [1.0, -2.0], "label": 1}, 2),
    ("nonlinear_range", {"distance": 1.5, "variance": 0.1, "landmark": [0.0, 1.0]}, 2),
    ("nonlinear_range", {"distance": 1.5, "variance": 0.1}, 4),
    ("polynomial", {"coefficients": [1.0, 0.0, 2.0]}, 1),
]
NAN, INF = float("nan"), float("inf")
# values no parameter accepts; None stands for JSON null
INVALID = [NAN, INF, -INF, "1.0", None, True, {}, []]
# parameters that must reject a negative value
POSITIVE = {"distance", "variance", "label"}


def assert_names(message, factor_id, key):
    assert f"factor {factor_id!r}" in message, message
    assert f"field {key!r}" in message, message


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(PHI_CASES), data=st.data())
def test_build_phi_fuzz_rejects_malformed_parameters(case, data):
    kind, valid, n_indices = case
    params = json.loads(json.dumps(valid))
    key = data.draw(st.sampled_from(sorted(params)), label="key")
    mutation = data.draw(st.sampled_from(["missing", "negative", "invalid"]), label="mutation")
    if mutation == "missing":
        del params[key]
    else:
        if mutation == "negative":
            replacement = data.draw(st.floats(-1e3, -1e-3), label="negative")
        else:
            replacement = data.draw(st.sampled_from(INVALID), label="invalid")
        target, slot = params, key
        # optionally replace one entry of an array parameter, not the whole field
        while isinstance(target[slot], list) and target[slot] and data.draw(st.booleans(), label="inside"):
            target, slot = target[slot], data.draw(st.integers(0, len(target[slot]) - 1), label="entry")
        target[slot] = replacement

    try:
        build_phi(kind, params, n_indices, "fz")
    except ProblemError as exc:
        assert_names(str(exc), "fz", key)
    except Exception as exc:  # any other type is the failure under test
        pytest.fail(f"{type(exc).__name__} for {params}: {exc}")
    else:
        assert mutation == "negative" and key not in POSITIVE, params


@pytest.mark.parametrize(
    "kind, params, n_indices, key",
    [
        pytest.param("polynomial", {}, 1, "coefficients", id="missing-coefficients"),
        pytest.param("gaussian_quadratic", {"m": [NAN], "P": [[1.0]]}, 1, "m", id="nan-m"),
        pytest.param("gaussian_quadratic", {"m": [0.0], "P": [[INF]]}, 1, "P", id="inf-P"),
        pytest.param(
            "gaussian_quadratic", {"m": [0.0, 0.0], "P": [[1.0, 0.5], [0.4, 1.0]]}, 2, "P", id="asymmetric-P"
        ),
        pytest.param("logistic_bernoulli", {"feature": [NAN], "label": 1}, 1, "feature", id="nan-feature"),
        pytest.param("logistic_bernoulli", {"feature": [1.0], "label": 0.7}, 1, "label", id="fractional-label"),
        pytest.param("polynomial", {"coefficients": [1.0, -INF]}, 1, "coefficients", id="inf-coefficient"),
        pytest.param("nonlinear_range", {"distance": NAN, "variance": 0.1}, 4, "distance", id="nan-distance"),
        pytest.param("nonlinear_range", {"distance": -1.0, "variance": 0.1}, 4, "distance", id="negative-distance"),
        pytest.param("nonlinear_range", {"distance": 1.0, "variance": INF}, 4, "variance", id="inf-variance"),
    ],
)
def test_build_phi_rejects_malformed_parameter(kind, params, n_indices, key):
    with pytest.raises(ProblemError) as excinfo:
        build_phi(kind, params, n_indices, "f3")
    assert_names(str(excinfo.value), "f3", key)


def _set(path, value):
    def edit(raw):
        target = raw
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return raw

    return edit


def _drop(path):
    def edit(raw):
        target = raw
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
        return raw

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(lambda raw: [raw], "'<root>'", id="top-level-array"),
        pytest.param(_set(["init"], [1.0]), "'init'", id="init-array"),
        pytest.param(_set(["rule"], [5]), "'rule'", id="rule-array"),
        pytest.param(_set(["config"], [50]), "'config'", id="config-array"),
        pytest.param(_set(["factors", 1], ["odom_01"]), "'factors[1]'", id="factor-array"),
        pytest.param(_set(["factors", 1, "phi"], 3), "'phi'", id="phi-number"),
        pytest.param(_set(["dimension"], 2.7), "'dimension'", id="fractional-dimension"),
        pytest.param(_set(["factors", 1, "indices"], [0.9, 1.2]), "'indices'", id="fractional-indices"),
        pytest.param(_set(["config", "max_iters"], 2.5), "'config.max_iters'", id="fractional-max-iters"),
        pytest.param(_set(["rule", "order"], 5.5), "'rule.order'", id="fractional-order"),
        pytest.param(_set(["rule", "seed"], 0.5), "'rule.seed'", id="fractional-seed"),
        pytest.param(_set(["rule", "seed"], -3), "'rule'", id="negative-seed"),
        pytest.param(_set(["rule"], {"kind": "monte_carlo", "order": 64, "seed": -3}), "'rule'", id="negative-mc-seed"),
        pytest.param(_set(["rule", "points"], 9), "'rule.points'", id="unknown-rule-key"),
        pytest.param(_set(["rule"], {"kind": "monte_carlo", "seed": 0}), "'rule.order'", id="monte-carlo-without-order"),
        pytest.param(_set(["config", "tolerance"], 3), "'config.tolerance'", id="unknown-config-key"),
        pytest.param(_set(["confg"], {"max_iters": 2}), "'confg'", id="unknown-root-key"),
        pytest.param(_set(["init", "extra"], 1), "'init.extra'", id="unknown-init-key"),
        pytest.param(_set(["factors", 1, "colour"], "red"), "'factors[1].colour'", id="unknown-factor-key"),
        pytest.param(_set(["factors", 1, "phi", "stray"], 0), "'factors[1].phi.stray'", id="unknown-phi-key"),
        pytest.param(
            _set(["factors", 1, "phi", "landmark"], [0.0, 0.0]), "'factors[1].phi.landmark'", id="landmark-on-quadratic"
        ),
        pytest.param(_set(["init", "mean", 0], NAN), "'init.mean'", id="nan-init-mean"),
        pytest.param(_set(["init", "matrix_vech", 0], "1.5"), "'init.matrix_vech'", id="string-init-vech"),
        pytest.param(_set(["config", "rel_tol"], "1e-9"), "'config.rel_tol'", id="string-rel-tol"),
        pytest.param(_set(["config", "rel_tol"], NAN), "'config'", id="nan-rel-tol"),
        pytest.param(_set(["config", "jitter"], INF), "'config'", id="inf-jitter"),
        pytest.param(_set(["factors", 1, "id"], ""), "'factors[1].id'", id="empty-id"),
        pytest.param(_drop(["factors", 1, "id"]), "'factors[1].id'", id="missing-id"),
        pytest.param(_set(["factors", 1, "id"], 7), "'factors[1].id'", id="number-id"),
        pytest.param(
            _set(["factors", 1, "id"], "prior_x0"), "'factors[1].id': 'prior_x0' repeats factors[0]", id="repeated-id"
        ),
        pytest.param(_set(["factors", 3, "id"], "odom_12"), "'factors[3].id': 'odom_12' repeats factors[2]",
                     id="repeated-later-id"),
        pytest.param(_set(["name"], 5), "'name' must be a nonempty string, found 5", id="number-name"),
        pytest.param(_set(["name"], ["x"]), "'name' must be a nonempty string, found ['x']", id="array-name"),
        pytest.param(_set(["name"], None), "'name' must be a nonempty string, found None", id="null-name"),
        pytest.param(_set(["name"], ""), "'name' must be a nonempty string, found ''", id="empty-name"),
        pytest.param(_set(["factors", 1, "indices"], [1, 1]), "'indices': factor 'odom_01'", id="repeated-indices"),
        pytest.param(_set(["factors", 1, "indices"], [-1, 1]), "'indices': factor 'odom_01'", id="negative-index"),
        pytest.param(_set(["factors", 1, "indices"], [0, 99]), "'indices': factor 'odom_01'", id="out-of-range-index"),
        pytest.param(_drop(["dimension"]), "'dimension'", id="missing-dimension"),
        pytest.param(_set(["dimension"], 0), "'dimension'", id="zero-dimension"),
        pytest.param(_set(["factors"], {}), "'factors'", id="factors-object"),
        pytest.param(_set(["factors"], []), "'factors'", id="no-factors"),
    ],
)
def test_malformed_structure_exits_one_naming_field(tmp_path, capsys, edit, field):
    raw = edit(json.loads(open(_bundled_path("linear_chain")).read()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert f"field {field}" in err, err


def test_phi_fields_are_per_kind():
    # a fixed-landmark range factor may carry the 'landmark' that a
    # Gaussian factor may not (see landmark-on-quadratic above)
    raw = {
        "schema": "ngvi-problem/1",
        "dimension": 2,
        "init": {"form": "mean_precision", "mean": [0.0, 0.0], "matrix_vech": [1.0, 0.0, 1.0]},
        "factors": [
            {"id": "prior", "indices": [0, 1], "phi": {"kind": "gaussian_quadratic", "m": [0.0, 0.0], "P": [[1.0, 0.0], [0.0, 1.0]]}},
            {"id": "range", "indices": [0, 1],
             "phi": {"kind": "nonlinear_range", "distance": 1.0, "variance": 0.1, "landmark": [2.0, 0.0]}},
        ],
    }
    spec = parse_problem(raw)
    assert [f.quadratic is not None for f in spec.graph.factors] == [True, False]


def test_directory_problem_path_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path), "-o", str(tmp_path / "out")]) == 1
    assert "field 'problem'" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_problem_reads_a_pipe():
    text = open(_bundled_path("linear_chain"), "rb").read()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text)  # a few kB, within any pipe buffer
        os.close(write_end)
        spec = load_problem(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert spec.dimension == load_problem("linear_chain").dimension


@pytest.mark.parametrize("flag, value", [("--rel-tol", "nan"), ("--rel-tol", "inf"), ("--jitter", "nan")])
def test_non_finite_override_exits_one(tmp_path, capsys, flag, value):
    assert main(["run", "linear_chain", "-o", str(tmp_path), flag, value]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
