"""README's minimal example runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_minimal_example_prints_its_comment():
    text = README.read_text()
    code = re.search(r"Minimal example:\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "True [ 1. -2.]\n"
