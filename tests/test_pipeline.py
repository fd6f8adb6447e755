"""One staged verdict: `is_qpn`, `qpn check` and `qpn validate` run the
same stages in the same order and stop at the same first failure."""

import importlib.util
import pathlib
import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gen
from gen import clique_net, racy_net, random_occurrence_annotated, random_state_machine
from qpn.algebra import Channel
from qpn.annotation import LocalAnnotation
from qpn.checker import STAGES, is_local_qon, is_qpn
from qpn.cli import main
from qpn.compose import AnnotatedNet
from qpn.demo import branching_demo, two_phase_cycle
from qpn.netfile import save_net
from qpn.nets import Net, OccurrenceNet, fire, reachable_markings

STAGE_NAMES = [name for name, _ in STAGES]
STAGE_LINE = re.compile(r"^(PASS|FAIL) ([a-z-]+)(?::|$| \()")


def _load_perfbench(name):
    """A module of the benchmark (perfbench sits outside testpaths, so it
    is loaded from its file)."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def perfbench_workloads():
    """The benchmark's workloads module, with its own parsers of `qpn`
    output."""
    return _load_perfbench("workloads")


@pytest.fixture(scope="module")
def perfbench_check_output(perfbench_workloads):
    return perfbench_workloads._check_output


def _check(tmp_path, an, *flags, name="net.json", command="check"):
    path = tmp_path / name
    save_net(path, an.net, an.ann)
    return main([command, str(path), *flags])


def _stage_lines(text):
    return [(m[1], m[2]) for m in map(STAGE_LINE.match, text.splitlines()) if m]


def _differential_cases():
    rng = np.random.default_rng(2024)
    out = [("branching-demo-unscaled", branching_demo(scaled=False)),
           ("racy", racy_net()),
           ("clique", clique_net(rng, 3, weights=[0.5] * 3))]
    out += [(f"occurrence-{i}", random_occurrence_annotated(rng)) for i in range(8)]
    out += [(f"state-machine-{i}", random_state_machine(rng)) for i in range(4)]
    return out


def test_racy_net_fails_race_free_in_is_qpn_and_check(tmp_path, capsys):
    an = racy_net()
    out = is_qpn(an.net, an.ann)
    assert not out and out.data["stage"] == "race-free"
    assert _check(tmp_path, an) == 1
    racy = STAGE_NAMES.index("race-free")
    assert _stage_lines(capsys.readouterr().out) == (
        [("PASS", s) for s in STAGE_NAMES[:racy]] + [("FAIL", "race-free")])


def test_is_qpn_agrees_with_check(tmp_path, capsys):
    stages = set()
    for i, (name, an) in enumerate(_differential_cases()):
        verdict = is_qpn(an.net, an.ann)
        code = _check(tmp_path, an, name=f"{i}.json")
        failed = [s for status, s in _stage_lines(capsys.readouterr().out)
                  if status == "FAIL"]
        assert code == (0 if verdict else 1), name
        assert failed[:1] == ([] if verdict else [verdict.data["stage"]]), name
        stages.add(verdict.data["stage"])
    assert {"all", "drop", "race-free"} <= stages


@pytest.mark.parametrize("scaled", [True, False])
def test_drop_line_parses_for_the_benchmark(tmp_path, capsys, perfbench_check_output,
                                            scaled):
    bd = branching_demo(scaled)
    code = _check(tmp_path, bd)
    worst = is_qpn(bd.net, bd.ann).data["report"].worst
    assert perfbench_check_output((code, capsys.readouterr().out), (code, worst))
    assert code == (0 if scaled else 1)


@pytest.mark.parametrize("depth", [3, 12])
def test_unfold_prefix_passes_the_benchmark_gate(tmp_path, capsys, perfbench_workloads,
                                                 depth):
    wl = perfbench_workloads
    an = wl.ring(gen, np.random.default_rng(depth))
    path, prefix = tmp_path / "ring.json", tmp_path / "prefix.json"
    save_net(path, an.net, an.ann)
    code = main(["unfold", str(path), "--depth", str(depth), "--out", str(prefix)])
    out = (code, capsys.readouterr().out, str(prefix))
    events, conds = wl.expected_prefix(an.net, depth)
    assert wl._unfold_output(out, (events, conds))
    assert not wl._unfold_output(out, (events | {"ra[not-unfolded]"}, conds))


def test_sampled_runs_pass_the_benchmark_gate(tmp_path, perfbench_workloads):
    wl = perfbench_workloads
    ops = {op.label: op for op in wl.build_sample(gen, 501, str(tmp_path)).ops}
    op = ops["bd+K3d2+K2d2"]  # branching_demo beside two cliques
    weights, classes, fixed = op.expected
    off = ({e: w + 0.01 for e, w in weights.items()}, classes, fixed)
    records = []
    for i in range(200):
        out = op.run(i)  # sample_execution with seed 501 + i
        assert wl._sample_output(out, op.expected)
        assert not wl._sample_output(out, off)
        records.append(SimpleNamespace(op=op, out=wl._fired(out)))
    assert wl._sample_frequencies(records) == set()
    first = min(classes, key=sorted)
    skewed = replace(op, expected=(weights, {c: float(c == first) for c in classes}, fixed))
    assert wl._sample_frequencies([SimpleNamespace(op=skewed, out=r.out) for r in records])


def test_check_prints_every_stage_in_order(tmp_path, capsys):
    assert _check(tmp_path, branching_demo()) == 0
    assert _stage_lines(capsys.readouterr().out) == [("PASS", s) for s in STAGE_NAMES]


def test_check_stops_at_the_first_failing_stage(tmp_path, capsys):
    assert _check(tmp_path, branching_demo(scaled=False)) == 1
    assert _stage_lines(capsys.readouterr().out) == (
        [("PASS", s) for s in STAGE_NAMES[:-1]] + [("FAIL", "drop")])


def test_validate_is_the_prefix_up_to_cptni(tmp_path, capsys):
    assert _check(tmp_path, racy_net(), command="validate") == 0
    assert _stage_lines(capsys.readouterr().out) == [
        ("PASS", s) for s in ("safety", "signatures", "cptni")]
    # t puts a second token on the marked place b
    unsafe = Net({"a", "b"}, {"t"}, {("a", "t"), ("t", "b")}, {"a", "b"}, {"t": "0"})
    ann = LocalAnnotation({"a": 1, "b": 1}, {"t": Channel.identity(1)})
    assert _check(tmp_path, AnnotatedNet(unsafe, ann), command="validate") == 1
    assert _stage_lines(capsys.readouterr().out) == [("FAIL", "safety")]


def test_oracle_cross_checks_a_failing_net(tmp_path, capsys):
    assert _check(tmp_path, branching_demo(scaled=False), "--oracle") == 1
    out = capsys.readouterr().out
    assert "FAIL drop" in out
    assert "PASS oracle agreement: yes (brute=False, local=False)" in out


@pytest.fixture
def occurrence_net_builds(monkeypatch):
    calls = []
    init = OccurrenceNet.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OccurrenceNet, "__init__", counting)
    return calls


def test_unfold_builds_one_occurrence_net(tmp_path, occurrence_net_builds):
    tc = two_phase_cycle()
    path = tmp_path / "cycle.json"
    save_net(path, tc.net, tc.ann)
    assert main(["unfold", str(path), "--depth", "3",
                 "--out", str(tmp_path / "unf.json")]) == 0
    assert len(occurrence_net_builds) == 1


def test_is_local_qon_builds_one_occurrence_net(occurrence_net_builds):
    bd = branching_demo()
    assert is_local_qon(bd.net, bd.ann)
    assert len(occurrence_net_builds) == 1


def test_check_explores_the_reachable_markings_once(tmp_path, monkeypatch):
    bd = branching_demo()
    firings = []

    def counting(net, m, t):
        firings.append(t)
        return fire(net, m, t)

    monkeypatch.setattr("qpn.nets.fire", counting)
    reachable_markings(Net(bd.net.places, bd.net.transitions, bd.net.flow,
                           bd.net.initial_marking, bd.net.polarity))
    one_exploration = len(firings)
    assert one_exploration > 0
    firings.clear()
    assert _check(tmp_path, bd) == 0  # a net loaded afresh from its file
    assert len(firings) == one_exploration


def test_benchmark_tracer_resolves_every_traced_name():
    """Every callable the benchmark's tracer wraps still exists in `qpn`,
    is replaced by `install` and put back by `uninstall`."""
    tracing = _load_perfbench("tracing")

    def current():
        out = {}
        for mod_name, attr in tracing.TRACED:
            mod = sys.modules[f"qpn.{mod_name}"]
            if "." in attr or attr == "OccurrenceNet":
                cls_name, meth = attr.split(".") if "." in attr else (attr, "__init__")
                out[mod_name, attr] = vars(getattr(mod, cls_name))[meth]
            else:
                out[mod_name, attr] = getattr(mod, attr)
        return out

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = current()
    finally:
        tracer.uninstall()
    assert [k for k in before if wrapped[k] is before[k]] == []
    assert current() == before
