"""The scripts under ``tools/`` run against this tree and print what their
docstrings promise."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_io_scaling_prints_one_json_line_per_size():
    # a subprocess, since the script sets the BLAS thread variables at import
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "io_scaling.py"), "--sizes", "50", "--repeats", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1, done.stdout
    row = json.loads(lines[0])
    assert set(row) == {"n", "problem_mb", "estimate_mb", "load_problem", "write_estimate"}
    assert row["n"] == 50
    assert row["problem_mb"] > 0 and row["estimate_mb"] > 0
    for call in ("load_problem", "write_estimate"):
        assert set(row[call]) == {"median_s", "min_s"}
        assert 0 < row[call]["min_s"] <= row[call]["median_s"]
