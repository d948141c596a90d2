"""Command-line front end: problem ingestion, runs, and the paper checks.

``ngvi verify`` prints the acceptance criteria defined in ``ngvi.verify``.

Problem files are versioned JSON (schema tag ``ngvi-problem/1``). A
malformed file raises ProblemError naming the field before any work starts.
A run writes three files into the output directory, each atomically
(write-then-rename):

* ``trace.txt``    -- per-iteration rows: iter, value, grad norm, accepted, converged
* ``estimate.txt`` -- final mean and vech(precision), 17 significant digits
* ``manifest.json``-- resolved configuration, seed, wall time, exit status

Exit codes: 0 converged, 2 iteration budget exhausted, 1 any error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import verify
from .factors import Factor, FactorGraph, SparsityError, _quadratic_phi, optimize_factored
from .gaussian import (
    MeanCovariance,
    MeanPrecision,
    NotPositiveDefiniteError,
    _singular,
    convert,
)
from .kronmat import AsymmetricMatrixError, SymmetricMatrix, check_symmetric, half_len
from .ngd import ConfigError, IndefiniteHessianError, NgdConfig
from .quadrature import EvaluationError, ExpectationRule

__all__ = ["main", "load_problem", "parse_estimate", "build_phi", "ProblemSpec"]

SCHEMA = "ngvi-problem/1"
ESTIMATE_SCHEMA = "ngvi-estimate/1"

# the keys a problem file may use: at the root, in a factor entry, and in
# a ``phi`` object, per kind
ROOT_FIELDS = frozenset({"schema", "name", "dimension", "init", "factors", "rule", "config"})
FACTOR_FIELDS = frozenset({"id", "indices", "phi"})
PHI_FIELDS = {
    "gaussian_quadratic": frozenset({"kind", "m", "P"}),
    "logistic_bernoulli": frozenset({"kind", "feature", "label"}),
    "nonlinear_range": frozenset({"kind", "distance", "variance", "landmark"}),
    "polynomial": frozenset({"kind", "coefficients"}),
}
# the form each ``init.form`` is read into; ``natural`` holds (prec @ mean, prec)
_INIT_FORMS = {"mean_covariance": MeanCovariance, "mean_precision": MeanPrecision, "natural": MeanPrecision}


class ProblemError(ValueError):
    """A problem file is malformed or internally inconsistent."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    name: str
    dimension: int
    init: MeanPrecision
    graph: FactorGraph
    rule: ExpectationRule
    config: NgdConfig


def _fmt(values) -> str:
    """The values, 17 significant digits each, space-separated. One
    ``%`` over the Python floats of ``tolist`` gives the text of
    ``format(float(v), ".17g")`` per value at half its cost."""
    values = np.asarray(values, dtype=float).reshape(-1).tolist()
    return " ".join(["%.17g"] * len(values)) % tuple(values)


# ---------------------------------------------------------------------------
# typed field access; ``where`` names the field in every error


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemError(f"{where} must be a JSON object, found {type(value).__name__}")
    return value


def _refuse_unknown(fields: dict, where: str, known) -> None:
    """Refuse the first key of the JSON object at ``where`` (the root if
    empty) that is not in ``known``, with its field named."""
    for key in fields:
        if key not in known:
            path = f"{where}.{key}" if where else key
            raise ProblemError(f"field '{path}' is unknown; expected one of {sorted(known)}")


def _known_fields(value, where: str, defaults: dict) -> dict:
    """The JSON object at ``where`` over the keys of ``defaults``, which
    fill the absent ones; an unknown key is refused with its field named."""
    fields = _object(value, f"field {where!r}")
    _refuse_unknown(fields, where, defaults)
    return {**defaults, **fields}


def _integer(value, where: str) -> int:
    if type(value) is not int:
        raise ProblemError(f"{where} must be an integer, found {value!r}")
    return value


_NUMBER_TYPES = {int, float}


def _number(value, where: str) -> float:
    """A JSON number (booleans excluded) as a float."""
    try:
        if type(value) in _NUMBER_TYPES:
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ProblemError(f"{where} must be a number, found {value!r}")


def _finite_numbers(value) -> bool:
    """True for a finite JSON number or nested lists of them (booleans excluded)."""
    if type(value) is not list:
        return type(value) in _NUMBER_TYPES and math.isfinite(value)
    kinds = set(map(type, value))
    if kinds <= _NUMBER_TYPES:
        return all(map(math.isfinite, value))
    return kinds == {list} and all(map(_finite_numbers, value))


def _numbers(value, where: str) -> np.ndarray:
    """A finite JSON number or a rectangular array of them, as floats."""
    try:
        if _finite_numbers(value):
            return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged nesting, or an integer beyond float range
        pass
    raise ProblemError(f"{where} must be a finite number or a rectangular array of them, found {value!r}")


# ---------------------------------------------------------------------------
# phi construction


def build_phi(kind: str, params: dict, n_indices: int, factor_id: str):
    """Build the loss term of one factor from its serialized form, as a
    batched integrand: (P, n_indices) points to their P values.

    Every parameter must be present, numeric and finite; a malformed one
    raises ProblemError naming the factor and the field. A problem file's
    ``gaussian_quadratic`` factors are built by ``Factor.gaussian`` from the
    same checked (m, P), which gives them this integrand and also the
    closed form the assembly takes in its place.
    """
    owner = f"factor {factor_id!r}: "

    def field(key: str) -> str:
        return f"{owner}field {key!r}"

    if kind == "gaussian_quadratic":
        return _quadratic_phi(*_quadratic_params(params, n_indices, factor_id))
    if kind == "logistic_bernoulli":
        a = _numbers(params.get("feature"), field("feature")).reshape(-1)
        label = _number(params.get("label"), field("label"))
        if label not in (0.0, 1.0):
            raise ProblemError(f"{field('label')} must be 0 or 1, found {params['label']!r}")
        y = int(label)
        if a.shape[0] != n_indices:
            raise ProblemError(f"{field('feature')} must have one entry per index ({n_indices})")

        def phi(u: np.ndarray) -> np.ndarray:
            t = u @ a
            return np.logaddexp(0.0, t) - y * t

        return phi
    if kind == "nonlinear_range":
        distance = _number(params.get("distance"), field("distance"))
        variance = _number(params.get("variance"), field("variance"))
        if not 0.0 <= distance < math.inf:
            raise ProblemError(f"{field('distance')} must be finite and nonnegative, found {distance!r}")
        if not 0.0 < variance < math.inf:
            raise ProblemError(f"{field('variance')} must be finite and positive, found {variance!r}")
        if params.get("landmark") is not None:
            point = _numbers(params["landmark"], field("landmark")).reshape(-1)
            if point.shape[0] != 2 or n_indices != 2:
                raise ProblemError(
                    f"{field('landmark')}: fixed-landmark range factors take "
                    f"2 indices and a 2-vector landmark"
                )

            def phi(u: np.ndarray) -> np.ndarray:
                r = np.hypot(u[:, 0] - point[0], u[:, 1] - point[1])
                return (r - distance) ** 2 / (2.0 * variance)

            return phi
        if n_indices != 4:
            raise ProblemError(
                f"{field('landmark')} is missing: range factors take 2 indices "
                f"and a landmark, or 4 indices (position pair, landmark pair)"
            )

        def phi(u: np.ndarray) -> np.ndarray:
            r = np.hypot(u[:, 0] - u[:, 2], u[:, 1] - u[:, 3])
            return (r - distance) ** 2 / (2.0 * variance)

        return phi
    if kind == "polynomial":
        coeffs = _numbers(params.get("coefficients"), field("coefficients")).reshape(-1)
        if coeffs.shape[0] == 0:
            raise ProblemError(f"{field('coefficients')} must hold at least one coefficient")
        if n_indices != 1:
            raise ProblemError(f"{owner}polynomial factors take 1 index")

        def phi(u: np.ndarray) -> np.ndarray:
            # Horner's rule as np.polynomial.polynomial.polyval does it,
            # without its per-call argument handling
            x = u[:, 0]
            value = coeffs[-1] + x * 0
            for c in coeffs[-2::-1]:
                value = c + value * x
            return value

        return phi
    raise ProblemError(f"{field('kind')}: unknown phi kind {kind!r}")


def _quadratic_params(params: dict, n_indices: int, factor_id: str) -> tuple[np.ndarray, np.ndarray]:
    """The checked (m, P) of a ``gaussian_quadratic`` factor."""

    def field(key: str) -> str:
        return f"factor {factor_id!r}: field {key!r}"

    m = _numbers(params.get("m"), field("m")).reshape(-1)
    p = _numbers(params.get("P"), field("P"))
    if m.shape[0] != n_indices:
        raise ProblemError(f"{field('m')} must have one entry per index ({n_indices})")
    if p.shape != (n_indices, n_indices):
        raise ProblemError(f"{field('P')} must be a {n_indices}x{n_indices} matrix")
    try:
        check_symmetric(p)
    except AsymmetricMatrixError as exc:
        raise ProblemError(f"{field('P')}: {exc}") from None
    return m, p


# ---------------------------------------------------------------------------
# problem parsing


def _parse_init(raw: dict, dimension: int) -> MeanPrecision:
    form = raw.get("form")
    mean = _numbers(raw.get("mean"), "field 'init.mean'").reshape(-1)
    half = _numbers(raw.get("matrix_vech"), "field 'init.matrix_vech'").reshape(-1)
    if mean.shape[0] != dimension:
        raise ProblemError(
            f"field 'init.mean': length {mean.shape[0]} != dimension {dimension}"
        )
    if half.shape[0] != half_len(dimension):
        raise ProblemError(
            f"field 'init.matrix_vech': length {half.shape[0]} != "
            f"{half_len(dimension)} for dimension {dimension}"
        )
    if not isinstance(form, str) or form not in _INIT_FORMS:
        raise ProblemError(f"field 'init.form': unknown form {form!r}")
    try:
        g = _INIT_FORMS[form](mean, SymmetricMatrix(dimension, half))
        # a matrix that passes its Cholesky factorization can still have
        # no inverse to convert with or to take marginals from
        if _singular(g.chol):
            raise ProblemError("field 'init.matrix_vech': the matrix is numerically singular")
        if form == "natural":
            return MeanPrecision(np.linalg.solve(g.precision, g.mean), g.prec)
        return convert(g, "mean_prec")
    except NotPositiveDefiniteError as exc:
        raise ProblemError(f"field 'init.matrix_vech': {exc}") from None


def parse_problem(raw: dict, name: str = "<unnamed>") -> ProblemSpec:
    raw = _object(raw, "field '<root>'")
    _refuse_unknown(raw, "", ROOT_FIELDS)
    if raw.get("schema") != SCHEMA:
        raise ProblemError(
            f"field 'schema': expected {SCHEMA!r}, found {raw.get('schema')!r}"
        )
    name = raw.get("name", name)
    if type(name) is not str or not name:
        raise ProblemError(f"field 'name' must be a nonempty string, found {name!r}")
    if "dimension" not in raw:
        raise ProblemError("field 'dimension' is missing")
    dimension = _integer(raw["dimension"], "field 'dimension'")
    if dimension < 1:
        raise ProblemError("field 'dimension' must be a positive integer")
    init_raw = _known_fields(raw.get("init", {}), "init", dict.fromkeys(("form", "mean", "matrix_vech")))
    init = _parse_init(init_raw, dimension)

    entries = raw.get("factors", [])
    if not isinstance(entries, list):
        raise ProblemError(f"field 'factors' must be a JSON array, found {type(entries).__name__}")
    factors = []
    positions = {}  # factor id -> its position in 'factors'
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ProblemError(f"field 'factors[{position}]' must be a JSON object")
        _refuse_unknown(entry, f"factors[{position}]", FACTOR_FIELDS)
        factor_id = entry.get("id")
        if type(factor_id) is not str or not factor_id:
            raise ProblemError(
                f"field 'factors[{position}].id' must be a nonempty string, found {factor_id!r}"
            )
        if factor_id in positions:
            raise ProblemError(
                f"field 'factors[{position}].id': {factor_id!r} repeats factors[{positions[factor_id]}]"
            )
        positions[factor_id] = position
        indices = entry.get("indices", [])
        if type(indices) is not list or not set(map(type, indices)) <= {int}:
            raise ProblemError(
                f"factor {factor_id!r}: field 'indices' must be an array of integers, found {indices!r}"
            )
        phi_raw = entry.get("phi", {})
        if not isinstance(phi_raw, dict):
            raise ProblemError(f"factor {factor_id!r}: field 'phi' must be a JSON object")
        kind = phi_raw.get("kind")
        if isinstance(kind, str) and kind in PHI_FIELDS:
            _refuse_unknown(phi_raw, f"factors[{position}].phi", PHI_FIELDS[kind])
        try:
            if kind == "gaussian_quadratic":
                m, p = _quadratic_params(phi_raw, len(indices), factor_id)
                factors.append(Factor.gaussian(factor_id, indices, m, p))
            else:
                phi = build_phi(kind, phi_raw, len(indices), factor_id)
                factors.append(Factor(factor_id, tuple(indices), phi))
        except ProblemError:
            raise
        except ValueError as exc:  # from Factor's index checks, which name the factor
            raise ProblemError(f"field 'indices': {exc}") from None
    if not factors:
        raise ProblemError("field 'factors': at least one factor is required")
    try:
        graph = FactorGraph(dimension, tuple(factors))
    except ValueError as exc:  # an index beyond the dimension, with the factor named
        raise ProblemError(f"field 'indices': {exc}") from None

    rule_raw = _known_fields(raw.get("rule", {}), "rule", {"kind": "gauss_hermite", "order": 5, "seed": 0})
    if rule_raw["kind"] == "monte_carlo" and "order" not in raw["rule"]:
        raise ProblemError("field 'rule.order' is required for a monte_carlo rule: it is the sample count")
    order = _integer(rule_raw["order"], "field 'rule.order'")
    seed = _integer(rule_raw["seed"], "field 'rule.seed'")
    try:
        rule = ExpectationRule(kind=rule_raw["kind"], order=order, seed=seed)
    except ValueError as exc:
        raise ProblemError(f"field 'rule': {exc}") from None

    cfg_raw = _known_fields(
        raw.get("config", {}),
        "config",
        {"max_iters": 100, "rel_tol": 1e-9, "step_scale": 1.0, "jitter": 0.0},
    )
    max_iters = _integer(cfg_raw["max_iters"], "field 'config.max_iters'")
    try:
        config = NgdConfig(
            max_iters=max_iters,
            rel_tol=_number(cfg_raw["rel_tol"], "field 'config.rel_tol'"),
            step_scale=_number(cfg_raw["step_scale"], "field 'config.step_scale'"),
            jitter=_number(cfg_raw["jitter"], "field 'config.jitter'"),
            rule=rule,
        )
    except ConfigError as exc:
        raise ProblemError(f"field 'config': {exc}") from None

    return ProblemSpec(
        name=name,
        dimension=dimension,
        init=init,
        graph=graph,
        rule=rule,
        config=config,
    )


def bundled_problem_names() -> list[str]:
    root = resources.files("ngvi") / "problems"
    return sorted(path.name[: -len(".json")] for path in root.iterdir() if path.name.endswith(".json"))


def load_problem(spec_arg: str) -> ProblemSpec:
    """Load a problem from a file path or a bundled problem name."""
    if os.path.isdir(spec_arg):
        raise ProblemError(f"field 'problem': {spec_arg!r} is a directory, not a problem file")
    if os.path.exists(spec_arg):
        with open(spec_arg, encoding="utf-8") as handle:
            raw = json.load(handle)
        return parse_problem(raw, name=os.path.basename(spec_arg))
    bundled = resources.files("ngvi") / "problems" / f"{spec_arg}.json"
    if bundled.is_file():
        return parse_problem(json.loads(bundled.read_text(encoding="utf-8")), name=spec_arg)
    raise ProblemError(
        f"field 'problem': {spec_arg!r} is neither a problem file nor a bundled "
        f"problem; bundled problems: {bundled_problem_names()}"
    )


# ---------------------------------------------------------------------------
# output files


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def write_trace(path: str, trace) -> None:
    lines = ["# iter\tvalue\tgrad_norm\taccepted\tconverged"]
    last = len(trace.records) - 1
    for i, rec in enumerate(trace.records):
        converged = 1 if (trace.converged and i == last) else 0
        lines.append(
            f"{rec.iteration}\t{_fmt(rec.value)}\t{_fmt(rec.grad_norm)}"
            f"\t{int(rec.accepted)}\t{converged}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_estimate(path: str, q: MeanPrecision) -> None:
    lines = [
        f"# {ESTIMATE_SCHEMA}",
        f"# dimension {q.dim}",
        "mean " + _fmt(q.mean),
        "prec_vech " + _fmt(q.prec.half),
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_estimate(path: str) -> MeanPrecision:
    """The estimate ``write_estimate`` wrote: the schema line, the
    dimension line, then ``mean`` and ``prec_vech`` once each. Blank lines
    are skipped; anything else is refused with the file and key named."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if not line.isspace()]
    schema, dimension = (lines + ["", ""])[:2]
    if schema != f"# {ESTIMATE_SCHEMA}":
        raise ProblemError(
            f"estimate file {path!r}: key 'schema': expected '# {ESTIMATE_SCHEMA}' "
            f"as the first line, found {schema!r}"
        )
    if not dimension.startswith("# dimension "):
        raise ProblemError(
            f"estimate file {path!r}: key 'dimension': expected '# dimension n' "
            f"as the second line, found {dimension!r}"
        )
    values = {}
    for line in lines[2:]:
        key, _, rest = line.partition(" ")
        if key not in ("mean", "prec_vech"):
            raise ProblemError(
                f"estimate file {path!r}: key {key!r} is unknown; expected 'mean' or 'prec_vech'"
            )
        if key in values:
            raise ProblemError(f"estimate file {path!r}: key {key!r} is repeated")
        try:
            values[key] = np.array([float(tok) for tok in rest.split()])
        except ValueError as exc:
            raise ProblemError(f"estimate file {path!r}: key {key!r}: {exc}") from None
    if len(values) < 2:
        raise ProblemError(f"estimate file {path!r} is missing mean or prec_vech")
    mean, half = values["mean"], values["prec_vech"]
    n = mean.shape[0]
    if dimension != f"# dimension {n}":
        raise ProblemError(
            f"estimate file {path!r}: key 'dimension': {dimension!r} disagrees with the mean's length {n}"
        )
    if half.shape[0] != half_len(n):
        raise ProblemError(
            f"estimate file {path!r}: key 'prec_vech' has {half.shape[0]} values, "
            f"expected {half_len(n)} for a mean of length {n}"
        )
    if not np.isfinite(mean).all():
        raise ProblemError(f"estimate file {path!r}: key 'mean' contains non-finite entries")
    try:
        q = MeanPrecision(mean, SymmetricMatrix(n, half))
    except ValueError as exc:
        raise ProblemError(f"estimate file {path!r}: key 'prec_vech': {exc}") from None
    if _singular(q.chol):
        raise ProblemError(f"estimate file {path!r}: key 'prec_vech': the matrix is numerically singular")
    return q


# ---------------------------------------------------------------------------
# run command


def _apply_overrides(spec: ProblemSpec, args) -> ProblemSpec:
    """The spec with each field whose flag was given set to the flag's
    value; ``--rule`` sets the rule's ``kind``, and a new kind needs
    ``--order``, whose meaning changes with it."""

    def given(**flags):
        return {key: getattr(args, flag) for key, flag in flags.items() if getattr(args, flag) is not None}

    rule = replace(spec.rule, **given(kind="rule", order="order", seed="seed"))
    if rule.kind != spec.rule.kind and args.order is None:
        raise ProblemError(
            f"--rule {rule.kind} needs --order: the problem's order {spec.rule.order} is a {spec.rule.kind} order"
        )
    overrides = given(max_iters="max_iters", rel_tol="rel_tol", step_scale="step_scale", jitter="jitter")
    return replace(spec, rule=rule, config=replace(spec.config, rule=rule, **overrides))


def run_command(args) -> int:
    try:
        spec = load_problem(args.problem)
        spec = _apply_overrides(spec, args)
    except json.JSONDecodeError as exc:
        print(f"error: problem file is not valid JSON (line {exc.lineno}): {exc.msg}", file=sys.stderr)
        return 1
    except (ProblemError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        print(f"error: --output {args.output!r}: {exc}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        q_final, trace = optimize_factored(spec.graph, spec.init, spec.config)
    except IndefiniteHessianError as exc:
        iteration = len(exc.trace.records) if exc.trace is not None else 0
        print(f"error at iteration {iteration}: {exc}", file=sys.stderr)
        return 1
    except (SparsityError, NotPositiveDefiniteError, EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    manifest = {
        "schema": "ngvi-manifest/1",
        "problem": spec.name,
        "dimension": spec.dimension,
        "rule": {"kind": spec.rule.kind, "order": spec.rule.order, "seed": spec.rule.seed},
        "config": {
            "max_iters": spec.config.max_iters,
            "rel_tol": spec.config.rel_tol,
            "step_scale": spec.config.step_scale,
            "jitter": spec.config.jitter,
        },
        "iterations": len(trace.records),
        "converged": trace.converged,
        "wall_time_s": wall,
    }
    try:
        write_trace(os.path.join(args.output, "trace.txt"), trace)
        write_estimate(os.path.join(args.output, "estimate.txt"), q_final)
        manifest_path = os.path.join(args.output, "manifest.json")
        _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: --output {args.output!r}: {exc}", file=sys.stderr)
        return 1
    if not trace.converged:
        print(
            f"did not converge within {spec.config.max_iters} iterations", file=sys.stderr
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify command


def verify_command(args) -> int:
    scopes = list(verify.SCOPES) if args.scope == "all" else [args.scope]
    all_ok = True
    for scope in scopes:
        for criterion in verify.SCOPES[scope]:
            for result in criterion():
                status = "PASS" if result.ok else "FAIL"
                print(f"{status} {result.name}: residual={result.residual:.3e} tol={result.tol:.1e}")
                all_ok = all_ok and result.ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngvi",
        description="Natural-gradient Gaussian variational inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="optimize a problem file")
    run.add_argument("problem", help="problem file path or bundled problem name")
    run.add_argument("--output", "-o", default=".", help="output directory")
    run.add_argument("--rule", choices=("gauss_hermite", "monte_carlo"))
    run.add_argument("--order", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--max-iters", type=int, dest="max_iters")
    run.add_argument("--rel-tol", type=float, dest="rel_tol")
    run.add_argument("--step-scale", type=float, dest="step_scale")
    run.add_argument("--jitter", type=float)
    run.set_defaults(func=run_command)

    check = sub.add_parser("verify", help="run the paper's acceptance criteria 1-6 and 9")
    check.add_argument("--scope", choices=("all", *verify.SCOPES), default="all")
    check.set_defaults(func=verify_command)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
