"""Wall time of ``ngvi run``'s problem loading and estimate writing on
chain problems of growing size.

    python3 tools/io_scaling.py [--sizes 200 400 800 1600 3200] [--repeats 3]

Run from the root of a source checkout; the package is imported from
``src/``. For each size n the script writes the problem
``perfbench/generate.py``'s ``chain(rng, n)`` gives for seed 1, instance
0, to a temporary directory, then times ``cli.load_problem`` of that file
and ``cli.write_estimate`` of its start iterate, the identity precision,
whose half vector is all zeros off the diagonal. It prints one JSON line
per size: n, the file and estimate sizes in MB, and the median and
minimum wall seconds of each call over the repeats. BLAS runs on one
thread, as in perfbench.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from ngvi import cli  # noqa: E402


def _generate_module():
    """perfbench/generate.py, loaded from its file; nothing else of
    perfbench is imported."""
    spec = importlib.util.spec_from_file_location("generate", os.path.join(ROOT, "perfbench", "generate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(call, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 400, 800, 1600, 3200])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    generate = _generate_module()
    chain_index = list(generate.WORKLOADS).index("chain")
    with tempfile.TemporaryDirectory() as work:
        problem, estimate = os.path.join(work, "chain.json"), os.path.join(work, "estimate.txt")
        for n in args.sizes:
            raw = generate.chain(np.random.default_rng([1, 0, chain_index]), n)
            with open(problem, "w", encoding="utf-8") as handle:
                json.dump(raw, handle)
            del raw
            spec = cli.load_problem(problem)
            row = {
                "n": n,
                "problem_mb": os.path.getsize(problem) / 1e6,
                "load_problem": _timed(lambda: cli.load_problem(problem), args.repeats),
                "write_estimate": _timed(lambda: cli.write_estimate(estimate, spec.init), args.repeats),
                "estimate_mb": os.path.getsize(estimate) / 1e6,
            }
            print(json.dumps(row), flush=True)
            del spec
    return 0


if __name__ == "__main__":
    sys.exit(main())
