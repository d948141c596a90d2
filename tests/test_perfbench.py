"""The benchmark runs against this tree: its tracer finds every span it
looks up, and short untraced and traced runs report correct answers."""

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


END_TO_END = ("setup_s", "solve_s", "run_s", "iter_ms", "iterations", "peak_rss_mb")


def short_run(workload: str, trace: int) -> None:
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run(
        [sys.executable, RUNNER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    expected = layer_units() if trace else dict.fromkeys(END_TO_END)
    assert set(expected) <= set(result["metrics"])


@pytest.mark.parametrize("trace", [0, 1])
def test_short_benchmark_run_is_correct(trace):
    short_run("range-slam", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_short_chain_benchmark_run_is_correct(trace):
    # the tracer patches _assemble, from_full and __post_init__ by name;
    # this covers those paths on the dense chain
    short_run("chain", trace)
