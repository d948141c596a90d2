"""ngvi benchmark: time to solution on generated problems, end to end and
per module.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run writes the workload's seeded ``ngvi-problem/1`` files
(``generate.py``), then, for ``--seconds``, repeats what ``ngvi run`` does
on each from one process: ``cli.load_problem``,
``factors.optimize_factored``, and the writing of ``trace.txt``,
``estimate.txt`` and ``manifest.json``. Every answer is checked after the
timed part. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the machine, the workload's properties, the sample counts, the
wall-time medians and the reference times (see ``measure``).

``--trace 0`` reports the end-to-end metrics, with no wrapper installed.
``--trace 1`` alternates untraced solves with solves traced through
``tracing.py`` and reports the per-module metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

# BLAS threads are fixed before numpy loads; one thread on every host keeps
# runs comparable and leaves the other cores to the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import generate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A fixed scale, not a measurement: a reported time is the wall time the
# run would have taken on a host on which reference_time() takes this long.
# On a 2-vCPU Xeon VM the reference took 0.063 to 0.094 s (run medians).
REFERENCE_S = 0.1
# Extra loads of the problem after each solve, on top of the solve's own,
# so that set-up is sampled across the whole run like the solves are.
SETUP_LOADS = 3
# Every run solves each instance at least this many times, however short
# --seconds is.
MIN_ROUNDS = 2
# Fixed-point check on the written estimate, re-evaluated with
# factors.assemble: ||grad_mu|| / ||prec|| and ||hess_mu - prec|| / ||prec||
# (Frobenius norms) must both stay below this. The generated problems stop
# at rel_tol = 1e-9 on the step, which bounds both by about
# 1e-9 * max(1, ||mu||); converged estimates measure below 1e-9.
FIXED_POINT_TOL = 1e-7
# Layer self times must add up to the traced solve time measured outside
# the spans, within this share of it.
LAYER_SUM_TOL = 0.01


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "ngvi", "__init__.py")):
        sys.exit(f"perfbench: no ngvi sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import ngvi

    if not os.path.abspath(ngvi.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ngvi from {ngvi.__file__}, not from {SRC}")
    return ngvi


ngvi = _import_package()
from ngvi import cli, factors  # noqa: E402

import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# machine and workload description


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "ngvi": ngvi.__version__,
        "commit": _git_commit(),
    }


def workload_properties(raw: dict) -> dict:
    """Input properties an optimization may depend on, measured on the file."""
    n = raw["dimension"]
    order = raw["rule"]["order"]
    index_sets = [tuple(sorted(f["indices"])) for f in raw["factors"]]
    uses = Counter(index_sets)
    pattern = {(i, i) for i in range(n)}
    for idx in uses:
        pattern.update((a, b) for a in idx for b in idx if a >= b)
    return {
        "n": n,
        "factors": len(index_sets),
        "arity": {str(k): v for k, v in sorted(Counter(map(len, index_sets)).items())},
        "gh_points_per_iter": sum(order ** len(idx) for idx in index_sets),
        "pattern_density": len(pattern) / (n * (n + 1) // 2),
        "repeated_index_set_share": sum(1 for idx in index_sets if uses[idx] > 1) / len(index_sets),
        "phi_kinds": dict(sorted(Counter(f["phi"]["kind"] for f in raw["factors"]).items())),
    }


# ---------------------------------------------------------------------------
# one solve, as `ngvi run` makes it


def write_outputs(out: str, spec, q, trace, wall: float) -> None:
    """The three files `ngvi run` writes, with its manifest fields."""
    cli.write_trace(os.path.join(out, "trace.txt"), trace)
    cli.write_estimate(os.path.join(out, "estimate.txt"), q)
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
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def solve_once(problem: str, out: str, tracer=None) -> dict:
    """Load, solve and write once; timings of each part, or the error."""
    t0 = perf_counter()
    spec = cli.load_problem(problem)
    if tracer is not None:
        tracing.wrap_phis(tracer, spec.graph)
        solve = tracer.wrap("factors.optimize_factored", factors.optimize_factored)
        write = tracer.wrap("cli.write_outputs", write_outputs)
    else:
        solve, write = factors.optimize_factored, write_outputs
    t1 = perf_counter()
    try:
        q, trace = solve(spec.graph, spec.init, spec.config)
    except Exception as exc:  # a failed solve is a result: count it and go on
        return {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    t2 = perf_counter()
    write(out, spec, q, trace, t2 - t1)
    t3 = perf_counter()
    files = {}
    for name in ("trace.txt", "estimate.txt"):
        with open(os.path.join(out, name), "rb") as handle:
            files[name] = hashlib.sha256(handle.read()).hexdigest()
    return {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "run_s": t3 - t0,
        "iterations": len(trace.records),
        "accepted": sum(1 for r in trace.records if r.accepted),
        "converged": trace.converged,
        "files": files,
    }


def fixed_point_residuals(problem: str, out: str) -> tuple[float, float]:
    """Re-evaluate at the written estimate with the public assemble."""
    spec = cli.load_problem(problem)
    q = cli.parse_estimate(os.path.join(out, "estimate.txt"))
    bundle = factors.assemble(spec.graph, q, spec.rule)
    prec = q.prec.full()
    scale = float(np.linalg.norm(prec))
    grad = float(np.linalg.norm(bundle.grad_mu)) / scale
    hess = float(np.linalg.norm(bundle.hess_mu.full() - prec)) / scale
    return grad, hess


def check(solves: list[dict], instances: list[tuple[str, str]]) -> None:
    """Mark each solve whose answer is wrong with an ``error``."""
    for k, (problem, out) in enumerate(instances):
        reference = None
        for s in solves:
            if s["instance"] != k or "error" in s:
                continue
            if not s["converged"]:
                s["error"] = f"did not converge in {s['iterations']} iterations"
            elif reference is None:
                reference = s
            elif s["files"] != reference["files"]:
                s["error"] = "wrote other trace.txt/estimate.txt bytes than the first solve"
        if reference is None:
            continue
        grad, hess = fixed_point_residuals(problem, out)
        if grad > FIXED_POINT_TOL or hess > FIXED_POINT_TOL:
            for s in solves:
                if s["instance"] == k:
                    s.setdefault(
                        "error",
                        f"estimate is not a fixed point: |grad|/|prec| = {grad:.3e}, "
                        f"|hess - prec|/|prec| = {hess:.3e}, tolerance {FIXED_POINT_TOL:.0e}",
                    )


# ---------------------------------------------------------------------------
# runs


def _median(values) -> float:
    return float(statistics.median(values))


class Rounds:
    """Rounds of a run: at least MIN_ROUNDS, then another only while the
    last round's length says it ends before ``seconds`` are up."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds
        self.done = 0
        self.started = None

    def another(self) -> bool:
        now = perf_counter()
        if self.started is not None:
            self.done += 1
            if self.done >= MIN_ROUNDS and now + (now - self.started) > self.deadline:
                return False
        self.started = now
        return True


def reference_time() -> float:
    """Wall time of a fixed computation that shares no code with ngvi and
    mixes what ngvi spends its time on: Python float arithmetic, small numpy
    linear algebra and a 200 x 200 factorization."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(80000):
        x = i * 1e-4
        acc += (x - 0.5) ** 2 * 0.25 + x * 0.125
    rng = np.random.default_rng(0)
    small = rng.normal(size=(4, 4))
    small = small @ small.T + 4.0 * np.eye(4)
    v = rng.normal(size=4)
    for _ in range(3000):
        np.linalg.cholesky(small)
        acc += float(v @ np.linalg.solve(small, v))
    big = rng.normal(size=(200, 200))
    big = big @ big.T + 200.0 * np.eye(200)
    for _ in range(12):
        np.linalg.cholesky(big)
        np.linalg.inv(big)
    if not np.isfinite(acc):
        raise RuntimeError("reference computation went wrong")
    return perf_counter() - t0


def measure(instances: list[tuple[str, str]], seconds: float) -> tuple[list[dict], dict, dict]:
    """End-to-end metrics, with no wrapper installed.

    Each round solves every instance once. On a shared host the speed of
    any code swings by up to 1.5x for seconds to minutes at a time, more
    than a run can average out, so ``reference_time`` runs after every
    solve and each timing is reported at the reference speed: wall time x
    REFERENCE_S / (mean of the reference times just before and after it).
    Times are medians over the repeats of an instance, averaged over the
    instances; set-up is the median of every load. The raw wall-time
    medians and the reference times go to the info line.
    """
    loads = []
    solves = []
    refs = [reference_time()]
    rounds = Rounds(seconds)
    while rounds.another():
        for k, (problem, out) in enumerate(instances):
            solve = dict(solve_once(problem, out), instance=k)
            refs.append(reference_time())
            solve["scale"] = REFERENCE_S / statistics.fmean(refs[-2:])
            solves.append(solve)
            for _ in range(SETUP_LOADS):
                t0 = perf_counter()
                cli.load_problem(problem)
                loads.append((perf_counter() - t0) * REFERENCE_S / refs[-1])
    ok = [s for s in solves if "error" not in s]
    loads += [s["setup_s"] * s["scale"] for s in ok]
    metrics = {"setup_s": (_median(loads), "s")}
    wall = {}
    # An instance whose every solve failed drops out of the averages; the
    # failures still make the run incorrect.
    per = [p for p in ([s for s in ok if s["instance"] == k] for k in range(len(instances))) if p]
    if per:
        for key in ("solve_s", "run_s"):
            metrics[key] = (statistics.fmean(_median(s[key] * s["scale"] for s in p) for p in per), "s")
            wall[key] = statistics.fmean(_median(s[key] for s in p) for p in per)
        metrics["iter_ms"] = (_median(1e3 * s["solve_s"] * s["scale"] / s["iterations"] for s in ok), "ms")
        wall["iter_ms"] = _median(1e3 * s["solve_s"] / s["iterations"] for s in ok)
        metrics["iterations"] = (statistics.fmean(_median(s["iterations"] for s in p) for p in per), "count")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples = {
        "instances": len(instances),
        "rounds": rounds.done,
        "setup_loads": len(loads),
        "wall_medians": wall,
        "reference_s": {"median": _median(refs), "min": min(refs), "max": max(refs), "count": len(refs)},
    }
    return solves, metrics, samples


def measure_traced(instances: list[tuple[str, str]], seconds: float) -> tuple[list[dict], dict, dict]:
    """Per-module metrics on one instance: medians over traced solves,
    which alternate with untraced ones so that the overhead, the fastest
    traced solve minus the fastest untraced one, compares solves made at
    the same time."""
    problem, out = instances[0]
    plain, traced = [], []
    rounds = Rounds(seconds)
    while rounds.another():
        plain.append(dict(solve_once(problem, out), instance=0))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append(dict(solve_once(problem, out, tracer), instance=0, tracer=tracer))
    ok = [s for s in traced if "error" not in s]
    metrics = {}
    plain_ok = [s for s in plain if "error" not in s]
    if ok and plain_ok:
        rows = [_layer_row(s) for s in ok]
        for key, unit in LAYER_UNITS.items():
            metrics[key] = (_median(r[key] for r in rows), unit)
        metrics["trace.overhead_s"] = (
            min(r["trace.solve_s"] for r in rows) - min(s["solve_s"] for s in plain_ok),
            "s",
        )
        for s, r in zip(ok, rows):
            if r["layer_sum_error"] > LAYER_SUM_TOL:
                s["error"] = f"layer self times miss the traced solve time by {r['layer_sum_error']:.2%}"
    samples = {"untraced_solves": len(plain), "traced_solves": len(traced)}
    return plain + traced, metrics, samples


# per-layer metric -> unit; all per iteration unless the unit says otherwise
LAYER_UNITS = {
    "cli.load_problem.s": "s",
    "cli.write_outputs.s": "s",
    "factors.assemble.self_s": "s/iter",
    "factors.extract_marginal.calls": "count/iter",
    "factors.extract_marginal.s": "s/iter",
    "factors.pattern_violations.s": "s/iter",
    "quadrature.expect_weighted.calls": "count/iter",
    "quadrature.expect_weighted.self_s": "s/iter",
    "quadrature.phi_evals": "count/iter",
    "quadrature.phi.s": "s/iter",
    "ngd.iterate.self_s": "s/iter",
    "ngd.accepted_ratio": "ratio",
    "gaussian.constructions": "count/iter",
    "kronmat.from_full.calls": "count/iter",
}


def _layer_row(solve: dict) -> dict:
    tracer = solve["tracer"]
    iters = solve["iterations"]
    own = tracer.self_times()
    marginal_calls, marginal_s = tracer.totals("factors.extract_marginal")
    solve_own = sum(v for k, v in own.items() if k not in ("cli.load_problem", "cli.write_outputs"))
    return {
        "cli.load_problem.s": tracer.totals("cli.load_problem")[1],
        "cli.write_outputs.s": tracer.totals("cli.write_outputs")[1],
        "factors.assemble.self_s": own["factors.assemble"] / iters,
        "factors.extract_marginal.calls": marginal_calls / iters,
        "factors.extract_marginal.s": marginal_s / iters,
        "factors.pattern_violations.s": own["factors.pattern_violations"] / iters,
        "quadrature.expect_weighted.calls": tracer.totals("quadrature.expect_weighted")[0] / iters,
        "quadrature.expect_weighted.self_s": own["quadrature.expect_weighted"] / iters,
        "quadrature.phi_evals": tracer.phi_evals() / iters,
        "quadrature.phi.s": own["quadrature.phi"] / iters,
        "ngd.iterate.self_s": own["factors.optimize_factored"] / iters,
        "ngd.accepted_ratio": solve["accepted"] / iters,
        "gaussian.constructions": tracer.counts["gaussian.constructions"] / iters,
        "kronmat.from_full.calls": tracer.counts["kronmat.from_full"] / iters,
        "trace.solve_s": solve["solve_s"],
        "layer_sum_error": abs(solve_own - solve["solve_s"]) / solve["solve_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        instances = []
        for k in range(1 if args.trace else generate.WORKLOADS[args.workload][1]):
            problem, out = os.path.join(work, f"problem{k}.json"), os.path.join(work, f"out{k}")
            os.makedirs(out)
            with open(problem, "w", encoding="utf-8") as handle:
                json.dump(generate.generate(args.workload, args.seed, k), handle)
            instances.append((problem, out))
        run = measure_traced if args.trace else measure
        solves, metrics, samples = run(instances, args.seconds)
        check(solves, instances)
        with open(instances[0][0], encoding="utf-8") as handle:
            properties = workload_properties(json.load(handle))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "properties": properties,
        "samples": samples,
    }
    print(json.dumps(info, sort_keys=True))
    failed = sum(1 for s in solves if "error" in s)
    for i, s in enumerate(solves):
        if "error" in s:
            print(f"solve {i} failed: {s['error']}")
            print(s.get("traceback", "").rstrip())
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} fail_rate = {failed}/{len(solves)}")
    result = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
