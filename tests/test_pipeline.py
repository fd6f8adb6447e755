"""One staged verdict: `is_qpn`, `qpn check` and `qpn validate` run the
same stages in the same order and stop at the same first failure."""

import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gen
import oracles
import qpn
from gen import (
    clique_net,
    load_perfbench,
    product_markings,
    racy_net,
    random_occurrence_annotated,
    random_state_machine,
)
from qpn import netfile, semantics
from qpn.algebra import Channel
from qpn.annotation import LocalAnnotation, validate_signatures
from qpn.checker import STAGES, is_local_qon, is_qpn, run_stages
from qpn.cli import main
from qpn.compose import AnnotatedNet, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.netfile import save_net
from qpn.nets import Net, OccurrenceNet, fire

STAGE_NAMES = [name for name, _ in STAGES]
STAGE_LINE = re.compile(r"^(PASS|FAIL) ([a-z-]+)(?::|$| \()")


@pytest.fixture(scope="module")
def perfbench_workloads():
    """The benchmark's workloads module, with its own parsers of `qpn`
    output."""
    return load_perfbench("workloads")


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


def test_every_stage_that_ran_has_its_time():
    """run_stages puts each stage's wall time in its outcome as `seconds`,
    passing or failing; is_qpn's data carries the deciding stage's."""
    for an in (branching_demo(), racy_net()):
        ran = list(run_stages(STAGES, an.net, an.ann, 10_000, 12))
        assert all(isinstance(out.data["seconds"], float) and out.data["seconds"] >= 0
                   for _, out in ran)
        verdict = is_qpn(an.net, an.ann)
        assert verdict.data["seconds"] >= 0 and len(ran) == (
            len(STAGES) if verdict else STAGE_NAMES.index(verdict.data["stage"]) + 1)


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


def test_benchmark_prefixes_are_the_reference_text(tmp_path, perfbench_workloads):
    """Every prefix the `unfold` workload writes is the text the reference
    writer (`_write_json` of `to_document`) makes of the net it holds."""
    reference = tmp_path / "reference.json"
    ops = perfbench_workloads.build_unfold(gen, 501, str(tmp_path)).ops
    for op in ops:
        out = op.run(0)
        assert op.check(out, op.expected), op.label
        prefix = pathlib.Path(out[2])
        netfile._write_json(reference, oracles.to_document(*netfile.load_net(prefix)))
        assert prefix.read_bytes() == reference.read_bytes(), op.label


def test_rewrites_are_the_fresh_files(tmp_path, capsys, perfbench_workloads):
    """Each file `unfold --out/--dot`, `compose par/join --out` and a failing
    `check --report` write over a longer, then a shorter, stale file at the
    same path is byte for byte the file they write to a fresh path."""
    rng = np.random.default_rng(7)
    inputs = {"ring": perfbench_workloads.ring(gen, rng),
              "pair": parallel(random_state_machine(rng), random_state_machine(rng))[0],
              "joinable": gen.joinable_net(np.random.default_rng(0), True, True),
              "racy": racy_net(), "unscaled": branching_demo(scaled=False)}
    i = {name: str(tmp_path / f"{name}.json") for name in inputs}
    for name, an in inputs.items():
        save_net(i[name], an.net, an.ann)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"pairs": [["p1", "n1"], ["p2", "n2"]]}))

    def write_all(out):
        for argv, code in [
            (["unfold", i["ring"], "--depth", "12", "--out", f"{out}/ring.json",
              "--dot", f"{out}/ring.dot"], 0),
            (["unfold", i["pair"], "--depth", "8", "--out", f"{out}/pair.json",
              "--dot", f"{out}/pair.dot"], 0),
            (["compose", "par", i["ring"], i["pair"], "--out", f"{out}/par.json"], 0),
            (["compose", "join", i["joinable"], str(spec), "--out", f"{out}/join.json"], 0),
            (["check", i["racy"], "--report", f"{out}/racy.json"], 1),
            (["check", i["unscaled"], "--report", f"{out}/unscaled.json"], 1),
        ]:
            assert main(argv) == code, argv
        capsys.readouterr()
        return {path.name: path.read_bytes() for path in pathlib.Path(out).iterdir()}

    (tmp_path / "fresh").mkdir()
    (tmp_path / "stale").mkdir()
    fresh = write_all(tmp_path / "fresh")
    assert len(fresh) == 8
    for stale in (lambda text: b"#" * (len(text) + 4096), lambda text: b"{}\n"):
        for name, text in fresh.items():
            (tmp_path / "stale" / name).write_bytes(stale(text))
        assert write_all(tmp_path / "stale") == fresh


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


def test_exact_probabilities_pass_the_benchmark_gate(tmp_path, perfbench_workloads,
                                                    monkeypatch):
    """Every `prob` op matches the closed-form product of its weights; a
    second pass plans every firing again and agrees bit for bit."""
    ops = perfbench_workloads.build_prob(gen, 501, str(tmp_path)).ops
    planned, firing = [], semantics._firing
    monkeypatch.setattr(semantics, "_firing", lambda *a: planned.append(a) or firing(*a))
    sizes = [map(int, op.label.rstrip("s").split("x")) for op in ops]  # wires x events
    events = sum(w * k for w, k in sizes)
    first = [op.run(i) for i, op in enumerate(ops)]
    assert len(planned) == events  # each firing planned once
    second = [op.run(i) for i, op in enumerate(ops)]
    assert len(planned) == 2 * events and second == first
    for op, out in zip(ops, first):
        assert op.check(out, op.expected), op.label
        assert not op.check(out, op.expected * 1.001), op.label


def test_check_verdicts_pass_the_benchmark_gate(tmp_path, perfbench_workloads):
    """Every `check` op's exit code and printed worst eigenvalue match the
    references computed without `qpn`; a flipped verdict or a worst value
    off by 1e-6 fails the gate."""
    ops = perfbench_workloads.build_check(gen, 501, str(tmp_path)).ops
    codes = set()
    for i, op in enumerate(ops):
        out = op.run(i)
        code, want_min = op.expected
        assert op.check(out, op.expected), op.label
        assert not op.check(out, (1 - code, want_min)), op.label
        assert not op.check(out, (code, want_min + 1e-6)), op.label
        assert not op.check(out, (code, want_min - 1e-6)), op.label
        codes.add(code)
    assert codes == {0, 1}


def test_check_validates_signatures_once(tmp_path, capsys, monkeypatch):
    """The loader's check stands for the signatures stage of `qpn check`;
    `is_qpn` still runs the stage, and a misfit file exits 2."""
    calls = []

    def counting(net, ann):
        calls.append(1)
        return validate_signatures(net, ann)

    monkeypatch.setattr("qpn.netfile.validate_signatures", counting)
    monkeypatch.setattr("qpn.checker.validate_signatures", counting)
    bd = branching_demo()
    assert _check(tmp_path, bd) == 0
    assert ("PASS", "signatures") in _stage_lines(capsys.readouterr().out)
    assert len(calls) == 1
    misfit = LocalAnnotation(bd.ann.dims | {"p4": 3}, bd.ann.channels, bd.ann.h)
    out = is_qpn(bd.net, misfit)
    assert not out and out.data["stage"] == "signatures"
    assert len(calls) == 2
    assert _check(tmp_path, AnnotatedNet(bd.net, misfit)) == 2
    assert capsys.readouterr().err.startswith(
        "error: $: annotation does not fit the net: channel on b")


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
    """The builds of occurrence nets, each as the sorted names of the
    private parts it was handed: () from flat sets alone, ('_adjacency',)
    from a net's pre- and post-sets, ('_adjacency', '_order') from the
    unfolder."""
    calls = []
    init = OccurrenceNet.__init__

    def counting(self, *args, **kwargs):
        calls.append(tuple(sorted(kwargs)))
        init(self, *args, **kwargs)

    monkeypatch.setattr(OccurrenceNet, "__init__", counting)
    return calls


def test_unfold_builds_one_occurrence_net(tmp_path, occurrence_net_builds):
    tc = two_phase_cycle()
    path = tmp_path / "cycle.json"
    save_net(path, tc.net, tc.ann)
    assert main(["unfold", str(path), "--depth", "3",
                 "--out", str(tmp_path / "unf.json")]) == 0
    assert occurrence_net_builds == [("_adjacency", "_order")]


def test_is_local_qon_builds_one_occurrence_net(occurrence_net_builds):
    bd = branching_demo()
    assert is_local_qon(bd.net, bd.ann)
    assert occurrence_net_builds == [("_adjacency",)]


def _explores_once(tmp_path, monkeypatch, an):
    firings = []

    def counting(net, m, t):
        firings.append(t)
        return fire(net, m, t)

    monkeypatch.setattr("qpn.nets.fire", counting)
    product_markings(Net(an.net.places, an.net.transitions, an.net.flow,
                         an.net.initial_marking, an.net.polarity))
    one_exploration = len(firings)
    assert one_exploration > 0
    firings.clear()
    assert _check(tmp_path, an) == 0  # a net loaded afresh from its file
    assert len(firings) == one_exploration


def test_check_explores_the_reachable_markings_once(tmp_path, monkeypatch):
    _explores_once(tmp_path, monkeypatch, branching_demo())


def test_check_explores_a_three_part_composition_once(tmp_path, monkeypatch):
    both, _ = parallel(clique_net(None, 3), branching_demo())
    three, _ = parallel(both, two_phase_cycle())
    _explores_once(tmp_path, monkeypatch, three)


def _traced_callables(tracing):
    """{(module, name): the callable} for every name the benchmark's tracer
    wraps, as `qpn` holds it now."""
    out = {}
    for mod_name, attr in tracing.TRACED:
        mod = sys.modules[f"qpn.{mod_name}"]
        if "." in attr or attr == "OccurrenceNet":
            cls_name, meth = attr.split(".") if "." in attr else (attr, "__init__")
            out[mod_name, attr] = vars(getattr(mod, cls_name))[meth]
        else:
            out[mod_name, attr] = getattr(mod, attr)
    return out


def test_benchmark_tracer_resolves_every_traced_name():
    """Every callable the benchmark's tracer wraps still exists in `qpn`,
    is replaced by `install` and put back by `uninstall`."""
    tracing = load_perfbench("tracing")
    before = _traced_callables(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _traced_callables(tracing)
    finally:
        tracer.uninstall()
    assert [k for k in before if wrapped[k] is before[k]] == []
    assert _traced_callables(tracing) == before


def test_benchmark_traced_mode_counts_the_commands(tmp_path, capsys):
    """The benchmark's traced mode (`perfbench/run.py --trace 1`) runs on
    this checkout: under its `Tracer`, `qpn check` and `qpn unfold` on the
    demo net count one `cli.main` each and one drop stage, and `uninstall`
    puts back every wrapped callable."""
    tracing = load_perfbench("tracing")
    before = _traced_callables(tracing)
    path = tmp_path / "demo.json"
    bd = branching_demo()
    save_net(path, bd.net, bd.ann)
    tracer = tracing.Tracer()
    tracer.install()
    try:  # through the module, whose main the tracer replaced
        assert sys.modules["qpn.cli"].main(["check", str(path)]) == 0
        assert sys.modules["qpn.cli"].main(["unfold", str(path), "--depth", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 2
    assert metrics["checker.check_local_drop.calls"] == 1
    assert _traced_callables(tracing) == before


def test_the_library_loads_no_test_oracle():
    """The references in `tests/oracles.py` are the tests' own: every
    `qpn` module loads without that module, and none defines a name that
    moved there."""
    code = ("import importlib, pkgutil, sys, qpn\n"
            "for m in pkgutil.iter_modules(qpn.__path__):\n"
            "    importlib.import_module('qpn.' + m.name)\n"
            "print('oracles' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qpn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
    moved = {"checker": ["_compose_effect", "drop_inductive", "recursive_sum_check",
                         "expand_drop"],
             "algebra": ["kraus_compose", "kraus_tensor"], "netfile": ["to_document"],
             "semantics": ["_fire_state"]}
    assert [(mod, name) for mod, names in moved.items() for name in names
            if hasattr(sys.modules[f"qpn.{mod}"], name)] == []
    assert all(callable(getattr(oracles, name)) for names in moved.values() for name in names)


def test_benchmark_selftest_passes():
    """The benchmark's correctness gates hold on this checkout: each
    workload's smallest op meets its reference and fails a corrupted one."""
    selftest = pathlib.Path(__file__).parents[1] / "perfbench" / "selftest.py"
    done = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
