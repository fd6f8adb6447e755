import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qpn
from gen import (
    clique_net,
    joinable_net,
    random_occurrence_annotated,
    random_state_machine,
)
from qpn import cli, netfile
from qpn.algebra import Channel, channels_close
from qpn.annotation import LocalAnnotation
from qpn.cli import main
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import NetFileError
from qpn.nets import Net, verify_safety
from qpn.unfolding import UnfoldBudget, transfer_annotation, unfold
from qpn.netfile import (
    from_document,
    load_net,
    matrix_from_json,
    matrix_to_json,
    save_net,
    to_document,
)


@pytest.fixture
def demo_path(tmp_path):
    bd = branching_demo()
    path = tmp_path / "demo.json"
    save_net(path, bd.net, bd.ann, {"name": "demo"})
    return path


class TestMatrices:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = matrix_from_json(matrix_to_json(m), "m")
        assert np.allclose(back, m)

    def test_matches_the_entrywise_conversion(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m[0, 0], m[1, 2] = complex(-0.0, 0.0), complex(0.5, -0.0)
        entrywise = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        assert json.dumps(matrix_to_json(m)) == json.dumps(entrywise)

    def test_bad_entry_is_located(self):
        with pytest.raises(NetFileError) as exc:
            matrix_from_json([[[0.0, 0.0], [1.0]]], "k")
        assert exc.value.location == "k[0][1]"

    def test_ragged_rows_rejected(self):
        with pytest.raises(NetFileError) as exc:
            matrix_from_json([[[0, 0], [0, 0]], [[0, 0]]], "k")
        assert exc.value.location == "k[1]"


class TestRoundTrip:
    def test_load_reproduces_the_net(self, demo_path):
        bd = branching_demo()
        net, ann, meta, labels = load_net(demo_path)
        assert net.places == bd.net.places
        assert net.flow == bd.net.flow
        assert net.initial_marking == bd.net.initial_marking
        assert meta == {"name": "demo"}
        assert ann.dims == dict(bd.ann.dims)
        assert ann.h == dict(bd.ann.h)
        for t in net.transitions:
            assert net.pol(t) == bd.net.pol(t)
            assert channels_close(ann.channel(t), bd.ann.channel(t))

    def test_serialization_is_canonical(self, demo_path, tmp_path):
        prefix, par = tmp_path / "prefix.json", tmp_path / "par.json"
        assert main(["unfold", str(demo_path), "--out", str(prefix)]) == 0
        assert main(["compose", "par", str(demo_path), str(prefix),
                     "--out", str(par)]) == 0
        for path in (demo_path, prefix, par):
            net, ann, meta, labels = load_net(path)
            again = tmp_path / "again.json"
            save_net(again, net, ann, meta, labels)
            assert path.read_bytes() == again.read_bytes(), path.name
        _, _, meta, labels = load_net(prefix)
        assert meta["depth"] == 4 and set(labels.values()) >= {"p0", "a"}

    def test_labels_round_trip(self, tmp_path):
        bd = branching_demo()
        path = tmp_path / "lab.json"
        save_net(path, bd.net, bd.ann, None, {"p0": "input", "a": "split"})
        _, _, _, labels = load_net(path)
        assert labels == {"p0": "input", "a": "split"}


def _signed_zero_net():
    """Two places and one event whose two Kraus operators have complex
    entries and signed zeros in both parts."""
    k0 = np.array([[complex(-0.0, 0.5), complex(0.25, -0.0)],
                   [complex(0.0, -0.0), complex(-0.5, 1e-300)]])
    k1 = np.array([[complex(-0.0, -0.0), 0.5], [0.125j, complex(0.5, -0.25)]])
    net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}, {"p"}, {"t": "0"})
    return net, LocalAnnotation({"p": 2, "q": 2}, {"t": Channel(2, 2, (k0, k1))})


def _writer_cases():
    """(name, net, annotation, metadata, labels): tests/gen.py nets, their
    depth-4 prefixes, and the signed-zero net."""
    rng = np.random.default_rng(11)
    generated = [(f"occurrence-{i}", random_occurrence_annotated(rng)) for i in range(4)]
    generated += [(f"state-machine-{i}", random_state_machine(rng)) for i in range(4)]
    generated += [("clique", clique_net(rng, 3)),
                  ("joinable", joinable_net(rng, True, True))]
    nets = [("signed-zero", *_signed_zero_net())]
    nets += [(name, an.net, an.ann) for name, an in generated]
    out = []
    for name, net, ann in nets:
        out.append((name, net, ann, {"name": name, "zero": -0.0}, {}))
        verify_safety(net)
        bp = unfold(net, UnfoldBudget(4, 10_000))
        out.append((f"{name}-prefix", bp.occ, transfer_annotation(bp, ann),
                    {"unfolded_from": name, "depth": 4},
                    dict(bp.label_place) | dict(bp.label_event)))
    return out


class TestWriter:
    def test_file_parses_to_the_document(self, tmp_path):
        path = tmp_path / "net.json"
        for name, net, ann, meta, labels in _writer_cases():
            save_net(path, net, ann, meta, labels)
            text = path.read_text()
            written = json.loads(text)
            doc = json.loads(json.dumps(to_document(net, ann, meta, labels)))
            assert written == doc, name
            # signs of zeros and key order
            assert json.dumps(written) == json.dumps(doc), name
            # one line per top-level key and per entry of each nonempty list
            lists = [v for v in doc.values() if isinstance(v, list) and v]
            assert len(text.splitlines()) == (
                2 + len(doc) + sum(len(v) + 1 for v in lists)), name

    def test_each_channel_is_converted_once(self, tmp_path, monkeypatch):
        an = random_state_machine(np.random.default_rng(3))
        bp = unfold(an.net, UnfoldBudget(6, 10_000))
        ann = transfer_annotation(bp, an.ann)
        used = set(bp.label_event.values())
        assert len(bp.occ.transitions) > len(used)
        calls = []
        convert = netfile.matrix_to_json

        def counting(m):
            calls.append(1)
            return convert(m)

        monkeypatch.setattr(netfile, "matrix_to_json", counting)
        save_net(tmp_path / "prefix.json", bp.occ, ann)
        assert len(calls) == sum(len(an.ann.channel(t).kraus) for t in used)


class TestSchemaDiagnostics:
    def _doc(self):
        bd = branching_demo()
        return to_document(bd.net, bd.ann)

    def test_wrong_format_marker(self):
        doc = self._doc()
        doc["format"] = "other"
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert exc.value.location == "format"

    def test_duplicate_place_id(self):
        doc = self._doc()
        doc["places"].append(dict(doc["places"][0]))
        with pytest.raises(NetFileError, match="duplicate"):
            from_document(doc)

    def test_bad_polarity(self):
        doc = self._doc()
        doc["transitions"][0]["polarity"] = "?"
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert exc.value.location == "transitions[0].polarity"

    def test_bad_dimension(self):
        doc = self._doc()
        doc["places"][0]["dim"] = 0
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert exc.value.location.endswith(".dim")

    def test_unknown_id_in_arc(self):
        doc = self._doc()
        doc["flow"].append(["ghost", "a"])
        with pytest.raises(NetFileError, match="unknown id"):
            from_document(doc)

    def test_inconsistent_kraus_shapes(self):
        doc = self._doc()
        entry = doc["transitions"][0]
        entry["kraus"] = [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]
        with pytest.raises(NetFileError, match="shapes"):
            from_document(doc)

    def test_signature_mismatch_caught_at_load(self):
        doc = self._doc()
        for entry in doc["transitions"]:
            if entry["id"] == "b":
                entry["kraus"] = [matrix_to_json(np.eye(3))]
        with pytest.raises(NetFileError, match="annotation does not fit"):
            from_document(doc)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(NetFileError, match="invalid JSON"):
            load_net(bad)


class TestCli:
    def test_validate_and_check_pass(self, demo_path, capsys):
        assert main(["validate", str(demo_path)]) == 0
        assert main(["check", str(demo_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS safety" in out and "PASS drop" in out

    def test_check_fails_on_unscaled_demo(self, tmp_path, capsys):
        bd = branching_demo(scaled=False)
        path = tmp_path / "bad.json"
        save_net(path, bd.net, bd.ann)
        assert main(["check", str(path)]) == 1
        assert "FAIL drop" in capsys.readouterr().out

    def test_missing_file_is_a_parse_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_tiny_marking_bound_exits_three(self, tmp_path):
        tc = two_phase_cycle()
        path = tmp_path / "cycle.json"
        save_net(path, tc.net, tc.ann)
        assert main(["check", str(path), "--marking-bound", "1"]) == 3
        assert main(["check", str(path)]) == 0

    def test_marking_bound_exits_three_from_every_subcommand(self, tmp_path, capsys):
        tc = two_phase_cycle()
        path = str(tmp_path / "cycle.json")
        save_net(path, tc.net, tc.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": []}))
        out = str(tmp_path / "out.json")
        for argv in (["validate", path], ["check", path], ["unfold", path],
                     ["prob", path, "--from", "s0", "--to", "s0"],
                     ["sample", path, "--runs", "1"],
                     ["compose", "par", path, path, "--out", out],
                     ["compose", "join", path, str(spec), "--out", out]):
            assert main(argv + ["--marking-bound", "1"]) == 3, argv
            assert "FAIL safety: more than 1 reachable markings" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["unfold", "x.json"], ["prob", "x.json", "--from", "p", "--to", "q"],
        ["sample", "x.json"], ["compose", "par", "a.json", "b.json", "--out", "c.json"]])
    @pytest.mark.parametrize("option", ["--tol-psd", "--cluster-cap"])
    def test_verdict_limits_belong_to_validate_and_check(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + [option, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_operator_cap_exits_three(self, tmp_path, capsys):
        # the 64 -> 128 channel's Choi matrix is 8192-dimensional
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}, {"p"}, {"t": "0"})
        ann = LocalAnnotation({"p": 64, "q": 128},
                              {"t": Channel(64, 128, (np.eye(128, 64),))})
        path = tmp_path / "wide.json"
        save_net(path, net, ann)
        assert main(["validate", str(path)]) == 3
        assert "exceeds the supported maximum" in capsys.readouterr().err

    def test_marking_past_the_operator_cap_gets_a_verdict(self, tmp_path, capsys):
        # one 2-dim event beside two idle marked 64-dim places: the marking
        # space is 8192-dimensional, the event's pre-place 2-dimensional
        net = Net({"p", "q", "i1", "i2"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p", "i1", "i2"}, {"t": "0"})
        ann = LocalAnnotation({"p": 2, "q": 2, "i1": 64, "i2": 64},
                              {"t": Channel.identity(2).scaled(0.5)})
        path = tmp_path / "idle.json"
        save_net(path, net, ann)
        assert main(["check", str(path)]) == 0
        drop = capsys.readouterr().out.splitlines()[-1]
        assert drop.startswith("PASS drop (instances=1, min_eig=")
        assert float(drop.split("min_eig=")[1].rstrip(")")) == pytest.approx(0.5)

    def test_default_state_past_the_operator_cap_exits_three(self, tmp_path, capsys):
        # the default state on p, i1, i2 would be an 8192-dim identity (1 GiB)
        net = Net({"p", "q", "i1", "i2"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p", "i1", "i2"}, {"t": "0"})
        ann = LocalAnnotation({"p": 2, "q": 2, "i1": 64, "i2": 64},
                              {"t": Channel.identity(2).scaled(0.5)})
        path = str(tmp_path / "idle.json")
        save_net(path, net, ann)
        for argv in (["prob", path, "--from", "p,i1,i2", "--to", "q,i1,i2"],
                     ["sample", path, "--runs", "1"]):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 3, argv
            assert peak < 1 << 20, argv
            assert capsys.readouterr().err == (
                "error: operator dimension 8192 exceeds the supported maximum 4096\n")

    def test_one_parser_per_process(self, demo_path, tmp_path, capsys, monkeypatch):
        src = str(pathlib.Path(qpn.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        out = str(tmp_path / "prefix.json")
        for argv in (["check", str(demo_path)],
                     ["unfold", "x.json", "--tol-psd", "1"],
                     ["unfold", str(demo_path), "--out", out],
                     ["validate", str(demo_path)]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            fresh = subprocess.run([sys.executable, "-m", "qpn.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
        assert code == 0 and fresh.returncode == 0
        assert len(builds) == 1

    def test_check_report_written(self, demo_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["check", str(demo_path), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert doc["stats"]["markings"] >= 1
        assert all("min_eig" in inst for inst in doc["instances"])

    def test_report_counts_the_clusters_evaluated(self, demo_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["check", str(demo_path), "--report", str(report)]) == 0
        stats = json.loads(report.read_text())["stats"]
        assert list(stats)[:3] == ["markings", "clusters", "clusters_evaluated"]
        assert stats["clusters_evaluated"] == 1  # the clique {b, c}

    def test_check_oracle_on_occurrence_net(self, demo_path, capsys):
        assert main(["check", str(demo_path), "--oracle"]) == 0
        assert "PASS oracle" in capsys.readouterr().out

    def test_oracle_rejects_cyclic_net(self, tmp_path, capsys):
        tc = two_phase_cycle()
        path = tmp_path / "cycle.json"
        save_net(path, tc.net, tc.ann)
        assert main(["check", str(path), "--oracle"]) == 1
        assert "not an occurrence net" in capsys.readouterr().out

    def test_unfold_writes_net_and_dot(self, tmp_path, capsys):
        tc = two_phase_cycle()
        path = tmp_path / "cycle.json"
        save_net(path, tc.net, tc.ann)
        out, dot = tmp_path / "unf.json", tmp_path / "unf.dot"
        code = main(["unfold", str(path), "--depth", "3",
                     "--out", str(out), "--dot", str(dot)])
        assert code == 0
        assert "budget exhausted" in capsys.readouterr().out
        net, _, meta, labels = load_net(out)
        assert len(net.transitions) == 3
        assert meta["depth"] == 3
        assert set(labels.values()) <= {"s0", "s1", "fwd", "bwd"}
        assert dot.read_text().startswith("digraph")

    def test_compose_par(self, demo_path, tmp_path):
        tc = two_phase_cycle()
        other = tmp_path / "cycle.json"
        save_net(other, tc.net, tc.ann)
        out = tmp_path / "par.json"
        assert main(["compose", "par", str(demo_path), str(other),
                     "--out", str(out)]) == 0
        net, _, meta, _ = load_net(out)
        assert len(net.places) == 7
        assert meta["provenance"]["s0"] == ["R", "s0"]
        assert list(meta["provenance"]) == sorted(meta["provenance"])
        assert main(["check", str(out)]) == 0

    def test_compose_join(self, tmp_path):
        x = joinable_net(np.random.default_rng(0), True, True)
        path = tmp_path / "pre.json"
        save_net(path, x.net, x.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": [["p1", "n1"], ["p2", "n2"]]}))
        out = tmp_path / "joined.json"
        assert main(["compose", "join", str(path), str(spec),
                     "--out", str(out)]) == 0
        net, _, _, _ = load_net(out)
        assert "p1*n1" in net.transitions and "p2*n2" in net.transitions
        assert main(["check", str(out)]) == 0

    def test_compose_join_rejects_bad_spec(self, tmp_path, capsys):
        x = joinable_net(np.random.default_rng(0), True, True)
        path = tmp_path / "pre.json"
        save_net(path, x.net, x.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": [["p1", "n1"]]}))
        assert main(["compose", "join", str(path), str(spec),
                     "--out", str(tmp_path / "j.json")]) == 1
        assert "FAIL join-spec" in capsys.readouterr().out

    def test_prob_command(self, demo_path, capsys):
        assert main(["prob", str(demo_path), "--from", "p0",
                     "--to", "p2,p4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("probability 0.5000")

    def test_sample_command(self, demo_path, capsys):
        assert main(["sample", str(demo_path), "--runs", "40",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "a b" in out and "/40" in out

    def test_sample_zero_runs(self, demo_path, capsys):
        assert main(["sample", str(demo_path), "--runs", "0"]) == 0
        assert capsys.readouterr().out == ""
