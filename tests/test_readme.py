"""The README's example session runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_session_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    verdict, prob = out.getvalue().split()
    assert verdict == "PASS"
    assert abs(float(prob) - 0.5) < 1e-12
