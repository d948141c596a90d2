"""The benchmark runs against this tree: its tracer finds every span it
looks up, and short untraced and traced runs of every workload declared in
``BENCHMARK.json`` report correct answers."""

import ast
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "perfbench", "run.py")


def layer_units() -> dict:
    """``LAYER_UNITS`` as written in the runner, read without importing it."""
    with open(RUNNER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_UNITS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_UNITS")


def benchmark() -> dict:
    """The benchmark declaration, ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def short_run(workload: str, trace: int) -> None:
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run(
        [sys.executable, RUNNER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, (workload, done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, (workload, done.stdout)
    expected = layer_units() if trace else {m["name"] for m in benchmark()["end_to_end"]}
    assert set(expected) <= set(result["metrics"]), workload


@pytest.mark.parametrize("trace", [0, 1])
def test_short_benchmark_run_is_correct(trace):
    # every declared workload but the chain, which has its own test below:
    # the nonconvex range-slam and logreg's one shared block
    workloads = [w["name"] for w in benchmark()["workloads"] if w["name"] != "chain"]
    assert workloads
    for workload in workloads:
        short_run(workload, trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_chain_benchmark_run_is_correct(trace):
    # the tracer patches _assemble, from_full and __post_init__ by name;
    # this covers those paths on the dense chain
    assert "chain" in [w["name"] for w in benchmark()["workloads"]]
    short_run("chain", trace)
