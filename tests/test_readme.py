"""The README's example session runs as printed, and its report paragraph
names the report's keys."""

import contextlib
import io
import json
import re
from pathlib import Path

from qpn.cli import main
from qpn.demo import branching_demo
from qpn.netfile import save_net

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_session_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    verdict, prob = out.getvalue().split()
    assert verdict == "PASS"
    assert abs(float(prob) - 0.5) < 1e-12


def test_report_paragraph_names_every_key(tmp_path):
    """Each top-level key of an `--oracle --report` file, and each key of
    its `drop` report, is named in backticks in the README's paragraph on
    the report file."""
    bd = branching_demo()
    path, report = tmp_path / "demo.json", tmp_path / "report.json"
    save_net(path, bd.net, bd.ann)
    assert main(["check", str(path), "--oracle", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    paragraph = re.search(r"\* \*\*The `--report` file\*\*(.*?)\n\* ", README.read_text(),
                          re.S).group(1)
    named = set(re.findall(r"`([^`]+)`", paragraph))
    assert list(doc) == ["stages", "drop", "oracle"]
    assert set(doc) | set(doc["drop"]) <= named
