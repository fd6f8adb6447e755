"""The README's example session runs as printed, its report paragraph
names the report's keys, its sentence on counts names every numeric
option, its tolerance table lists every tolerance constant, and it names
every export of `qpn`."""

import argparse
import ast
import contextlib
import io
import json
import re
from pathlib import Path

from qpn.cli import build_parser, main, non_negative_int
from qpn.demo import branching_demo
from qpn.netfile import save_net

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "qpn"


def test_minimal_session_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    verdict, prob = out.getvalue().split()
    assert verdict == "PASS"
    assert abs(float(prob) - 0.5) < 1e-12


def test_report_paragraph_names_every_key(tmp_path):
    """Each top-level key of an `--oracle --report` file, each key of its
    `drop` report, and the `error` a raising stage adds with its keys, are
    named in backticks in the README's paragraph on the report file."""
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
    assert main(["check", str(path), "--cluster-cap", "0", "--report", str(report)]) == 3
    doc = json.loads(report.read_text())
    assert set(doc) | set(doc["error"]) <= named


def test_counts_sentence_names_every_numeric_option():
    """Every option of every subcommand that takes a number is parsed by
    `non_negative_int`, never a bare `int` or `float`, and is named in
    backticks in the README's sentence on counts."""
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    numbers = (int, float, non_negative_int)
    numeric = {(command, action.option_strings[0]): action.type
               for command, parser in sub.choices.items() for action in parser._actions
               if action.type in numbers or type(action.default) in (int, float)}
    sentence = re.search(r"The counts (.*?) is a usage error", README.read_text(),
                         re.S).group(1)
    named = set(re.findall(r"`([^`]+)`", sentence))
    assert ("sample", "--seed") in numeric and ("check", "--cluster-cap") in numeric
    assert {option for _, option in numeric} <= named
    assert set(numeric.values()) == {non_negative_int}


def test_tolerance_table_lists_every_tolerance_constant():
    """The `Name` column of the README's tolerance table is exactly the
    module-level `TOL_*` constants of the package, each with its value in
    the `Value` column."""
    constants = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith("TOL_"):
                        constants[f"{path.stem}.{target.id}"] = ast.literal_eval(node.value)
    table = re.search(r"\* \*\*Tolerances\.\*\*\n\n(.*?)\n\n", README.read_text(),
                      re.S).group(1)
    rows = [re.split(r"\s*\|\s*", line.strip("| ")) for line in table.splitlines()[2:]]
    assert sorted((name.strip("`"), float(value)) for name, value, *_ in rows) \
        == sorted(constants.items())


def test_every_export_is_named():
    """Every name that `qpn/__init__.py` imports, and so exports, is named
    in backticks in the README, alone or in a dotted name
    (`algebra.MAX_TOTAL_DIM`); fenced code blocks do not count."""
    exported = {alias.name for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    named = {word for span in re.findall(r"`([^`]+)`", text)
             for word in re.findall(r"\w+", span)}
    assert {"is_qpn", "load_net"} <= exported
    assert sorted(exported - named) == []
