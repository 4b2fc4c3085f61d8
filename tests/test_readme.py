"""The README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_documented_results():
    fences = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(fences) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(fences[0], str(README), "exec"), {})
    branch_line, deviation, holds = out.getvalue().splitlines()
    assert branch_line == "2 1/4"
    assert float(deviation) < 1e-12
    assert holds == "True"
