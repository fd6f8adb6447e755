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
    racy_net,
    random_occurrence_annotated,
    random_state_machine,
    unsafe_path,
)
from qpn import checker, cli, netfile
from qpn.algebra import Channel, channels_close
from qpn.annotation import LocalAnnotation
from qpn.cli import main
from qpn.compose import AnnotatedNet, JoinSpec, drop_preserving_join, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import BoundExceeded, NetFileError, QpnError
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


# An output path that is an existing directory.
DIRECTORY = object()


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


def _gate_cases():
    """(name, net, annotation, metadata, labels) beyond `_writer_cases`:
    depth-6 prefixes of state machines, a parallel composition, non-ASCII
    ids and labels, label and metadata values that are not strings, and
    empty sections."""
    out = []
    for seed in range(20):
        an = random_state_machine(np.random.default_rng(seed))
        bp = unfold(an.net, UnfoldBudget(6, 10_000))
        out.append((f"state-machine-{seed}-d6", bp.occ, transfer_annotation(bp, an.ann),
                    {"unfolded_from": f"sm{seed}.json", "depth": 6},
                    dict(bp.label_place) | dict(bp.label_event)))
    composite, provenance = parallel(branching_demo(), two_phase_cycle())
    out.append(("compose-par", composite.net, composite.ann,
                {"composition": "parallel",
                 "provenance": {k: list(v) for k, v in sorted(provenance.items())}}, {}))
    net = Net({"ψ0", "ψ→1"}, {"τ"}, {("ψ0", "τ"), ("τ", "ψ→1")}, {"ψ0"}, {"τ": "+"})
    ann = LocalAnnotation({"ψ0": 2, "ψ→1": 1}, {"τ": Channel.identity(2)}, {"τ": 2})
    out.append(("non-ascii", net, ann, {"název": "síť ✓"},
                {"ψ0": "вход", "τ": "\U0001d70f\x00\"\\"}))
    odd = {"int": 3, "float": -0.0, "inf": float("inf"), "nan": float("nan"),
           "none": None, "bool": True, "list": [1, "a", [2.5]], "nested": {"k": [{}]}}
    bd = branching_demo()
    out.append(("odd-values", bd.net, bd.ann, odd,
                {"p0": 1, "p1": [1.5, None], "p2": {"x": [True]}, "a": 2.0,
                 "b": ["b", "β"], "c": None}))
    out.append(("empty", Net({"p"}, set(), set(), set(), {}),
                LocalAnnotation({"p": 3}, {}), None, None))
    return out


def _reference_bytes(tmp_path, net, ann, meta, labels):
    """The file the reference writer makes: `_write_json` of `to_document`."""
    path = tmp_path / "reference.json"
    netfile._write_json(path, to_document(net, ann, meta, labels))
    return path.read_bytes()


class TestWriter:
    @pytest.mark.parametrize("cases", [_writer_cases, _gate_cases])
    def test_file_is_the_reference_text(self, tmp_path, cases):
        path = tmp_path / "net.json"
        for name, net, ann, meta, labels in cases():
            save_net(path, net, ann, meta, labels)
            assert path.read_bytes() == _reference_bytes(tmp_path, net, ann, meta,
                                                         labels), name

    def test_empty_sections_stay_on_their_key_line(self, tmp_path):
        path = tmp_path / "net.json"
        save_net(path, Net({"p"}, set(), set(), set(), {}), LocalAnnotation({"p": 3}, {}))
        assert path.read_text() == (
            '{\n"format": "qpn-net",\n"version": 1,\n"metadata": {},\n'
            '"places": [\n{"id": "p", "dim": 3}\n],\n"transitions": [],\n"flow": [],\n'
            '"initial_marking": []\n}\n')

    def test_layout_bytes(self, tmp_path):
        """A str body, a list body of several entries and of one entry,
        and an empty list, through `_layout` and both writers."""
        assert netfile._layout([('"a"', "1"), ('"b"', ["x", "y", "z"]), ('"c"', ["w"]),
                                ('"d"', []), ('"e"', '"s"')]) == (
            '{\n"a": 1,\n"b": [\nx,\ny,\nz\n],\n"c": [\nw\n],\n"d": [],\n"e": "s"\n}\n')
        assert netfile._layout([('"d"', [])]) == '{\n"d": []\n}\n'
        assert netfile._layout([]) == "{\n\n}\n"
        report = tmp_path / "report.json"
        netfile.save_report(report, {"passed": True, "instances": [{"min_eig": np.float64(0.5)},
                                                                   {"min_eig": -0.0}],
                                     "oracle": [], "tol": 1e-9})
        assert report.read_text() == (
            '{\n"passed": true,\n"instances": [\n{"min_eig": 0.5},\n{"min_eig": -0.0}\n],\n'
            '"oracle": [],\n"tol": 1e-09\n}\n')
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}, {"p"}, {"t": "+"})
        ann = LocalAnnotation({"p": 1, "q": 2}, {"t": Channel(1, 2, (np.array([[1], [0]]),))},
                              {"t": 2})
        path = tmp_path / "net.json"
        save_net(path, net, ann, {"k": [1]}, {"q": "out", "t": "out"})
        assert path.read_text() == (
            '{\n"format": "qpn-net",\n"version": 1,\n"metadata": {"k": [1]},\n'
            '"places": [\n{"id": "p", "dim": 1},\n{"id": "q", "dim": 2, "label": "out"}\n],\n'
            '"transitions": [\n{"id": "t", "polarity": "+", "h": 2, '
            '"kraus": [[[[1.0, 0.0]], [[0.0, 0.0]]]], "label": "out"}\n],\n'
            '"flow": [\n["p", "t"],\n["t", "q"]\n],\n"initial_marking": [\n"p"\n]\n}\n')

    def test_writes_without_the_document(self, tmp_path, monkeypatch):
        def no_document(*_):
            raise AssertionError("save_net built the document")

        name, net, ann, meta, labels = _writer_cases()[1]
        expected = _reference_bytes(tmp_path, net, ann, meta, labels)
        monkeypatch.setattr(netfile, "to_document", no_document)
        save_net(tmp_path / "net.json", net, ann, meta, labels)
        assert (tmp_path / "net.json").read_bytes() == expected, name

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

    def test_rewrite_is_in_place_and_trimmed(self, tmp_path):
        """A shorter text over a longer file leaves exactly the new bytes,
        in the same inode with the same mode."""
        path = tmp_path / "out.txt"
        path.write_text("x" * 5000)
        path.chmod(0o640)
        before = path.stat()
        netfile.write_text(path, "short\n")
        after = path.stat()
        assert path.read_bytes() == b"short\n"
        assert (after.st_ino, after.st_dev, after.st_mode) == (
            before.st_ino, before.st_dev, before.st_mode)
        netfile.write_text(path, "longer text\n")
        assert path.read_bytes() == b"longer text\n"
        assert path.stat().st_ino == before.st_ino

    def test_rewrite_follows_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("stale " * 100)
        link.symlink_to(target)
        netfile.write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    def test_no_write_truncates_on_open(self, demo_path, tmp_path, monkeypatch):
        """Every output file is opened without O_TRUNC: on ext4 a truncate
        to zero makes the next rewrite of the file wait for writeback."""
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        out, dot, report = tmp_path / "prefix.json", tmp_path / "prefix.dot", tmp_path / "r.json"
        for _ in range(2):
            assert main(["unfold", str(demo_path), "--out", str(out), "--dot", str(dot)]) == 0
            assert main(["check", str(demo_path), "--report", str(report)]) == 0
            save_net(out, *load_net(demo_path))
        assert len(flags) == 8
        assert all(flag & os.O_TRUNC == 0 for flag in flags)


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

    @pytest.mark.parametrize("section, field, name", [("places", "dim", "dimension"),
                                                      ("transitions", "h", "signal dimension")])
    def test_boolean_dimension_rejected(self, section, field, name):
        """JSON true is not a dimension: loaded as one, it would be
        written back as Python's True, which is not JSON."""
        doc = self._doc()
        doc[section][0][field] = True
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert str(exc.value) == (f"{section}[0].{field}: {name} must be a positive "
                                  f"integer, got True")

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

    @pytest.mark.parametrize("path, value, location, message", [
        ((), [], "$", "document must be an object"),
        (("flow",), None, "flow", "missing or not a list"),
        (("places", 0), {"dim": 2}, "places[0]", "place entry needs an id"),
        (("transitions", 0), {}, "transitions[0]", "transition entry needs an id"),
        (("transitions", 0, "id"), "p0", "transitions[0]", "duplicate id 'p0'"),
        (("transitions", 0, "kraus"), [], "transitions[0].kraus",
         "needs a nonempty list of matrices"),
        (("transitions", 0, "kraus"), [[]], "transitions[0].kraus[0]",
         "matrix must be a nonempty list of rows"),
        (("transitions", 0, "kraus"), [[[]]], "transitions[0].kraus[0][0]",
         "row must be a nonempty list"),
        (("flow", 0), ["p0"], "flow[0]", "arc must be a [from, to] pair"),
        (("initial_marking",), ["zz"], "initial_marking[0]", "unknown place 'zz'"),
        (("flow",), [["p0", "p1"]], "flow[0]", "flow arc (p0, p1) is not bipartite"),
    ])
    def test_each_diagnostic_is_located(self, path, value, location, message):
        """The document with the entry at ``path`` replaced by ``value``
        fails at ``location`` with ``message``."""
        doc = self._doc()
        if path:
            *head, last = path
            entry = doc
            for key in head:
                entry = entry[key]
            entry[last] = value
        else:
            doc = value
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert exc.value.location == location
        assert str(exc.value) == f"{location}: {message}"

    @pytest.mark.parametrize("section, message", [
        ("initial_marking", "duplicate place 'p0'"),
        ("flow", "duplicate arc ['a', 'p1']"),
    ])
    def test_repeated_entries_are_located(self, tmp_path, capsys, section, message):
        """A place marked twice or an arc listed twice is a located parse
        error, as a repeated id is: a second token would make the net
        unsafe, and a doubled arc is no arc of a safe net."""
        doc = self._doc()
        doc[section].append(doc[section][0])
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {section}[{len(doc[section]) - 1}]: {message}\n")

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

    @pytest.mark.parametrize("section, index, field, value, message", [
        ("places", 1, "id", 1, "places[1].id: id must be a string, got 1"),
        ("places", 1, "id", ["q"], "places[1].id: id must be a string, got ['q']"),
        ("transitions", 0, "id", 7, "transitions[0].id: id must be a string, got 7"),
        ("transitions", 2, "id", None, "transitions[2].id: id must be a string, got None"),
        ("flow", 0, 0, 1, "flow[0]: arc ends must be strings, got [1, 'p1']"),
        ("flow", 3, 1, ["p3"], "flow[3]: arc ends must be strings, got ['c', ['p3']]"),
        ("initial_marking", 0, None, ["p0"],
         "initial_marking[0]: place id must be a string, got ['p0']"),
        ("metadata", None, None, [1], "metadata: must be an object"),
        ("metadata", None, None, [], "metadata: must be an object"),
        ("metadata", None, None, 0, "metadata: must be an object"),
        ("metadata", None, None, False, "metadata: must be an object"),
        ("metadata", None, None, "", "metadata: must be an object"),
    ], ids=["place-int", "place-list", "transition-int", "transition-null",
            "arc-int", "arc-list", "marking-list", "metadata-list", "metadata-empty-list",
            "metadata-zero", "metadata-false", "metadata-empty-string"])
    @pytest.mark.parametrize("command", ["check", "validate", "unfold"])
    def test_malformed_entries_are_located_parse_errors(self, demo_path, capsys, command,
                                                        section, index, field, value,
                                                        message):
        doc = json.loads(demo_path.read_text())
        if index is None:
            doc[section] = value
        elif field is None:
            doc[section][index] = value
        else:
            doc[section][index][field] = value
        demo_path.write_text(json.dumps(doc))
        assert main([command, str(demo_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "null"])
    def test_absent_metadata_loads_as_empty(self, demo_path, missing):
        doc = json.loads(demo_path.read_text())
        if missing:
            del doc["metadata"]
        else:
            doc["metadata"] = None
        demo_path.write_text(json.dumps(doc))
        assert load_net(demo_path)[2] == {}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400,
                                     -10**400],
                             ids=["nan", "inf", "-inf", "huge-int", "-huge-int"])
    @pytest.mark.parametrize("command", ["check", "unfold"])
    def test_kraus_entries_must_be_finite(self, demo_path, capsys, command, bad):
        """NaN and Infinity (which Python's json reads) and integers past
        the float range: the least such entry of the Kraus stack is named."""
        doc = json.loads(demo_path.read_text())
        kraus = doc["transitions"][1]["kraus"]
        kraus.append(json.loads(json.dumps(kraus[0])))
        kraus[1][0][0][0] = bad
        kraus[0][1][1][1] = bad
        demo_path.write_text(json.dumps(doc))
        assert main([command, str(demo_path)]) == 2
        assert capsys.readouterr() == (
            "", "error: transitions[1].kraus[0][1][1]: entry must be a finite float\n")

    def test_unfold_refuses_a_transition_without_pre_places(self, tmp_path, capsys):
        net = Net({"p", "q"}, {"a", "u", "t"}, {("p", "a"), ("a", "q")}, {"p"},
                  dict.fromkeys("aut", "0"))
        ann = LocalAnnotation({"p": 2, "q": 2}, {"a": Channel.identity(2),
                                                 "u": Channel.identity(1),
                                                 "t": Channel.identity(1)})
        path = tmp_path / "lonely.json"
        save_net(path, net, ann)
        assert main(["unfold", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: cannot unfold: transition t has an empty pre-set\n")

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
        ["validate", "x.json"],
        ["unfold", "x.json"], ["prob", "x.json", "--from", "p", "--to", "q"],
        ["sample", "x.json"], ["compose", "par", "a.json", "b.json", "--out", "c.json"]])
    @pytest.mark.parametrize("option", ["--tol-psd", "--cluster-cap"])
    def test_drop_limits_belong_to_check(self, command, option, capsys):
        """Only `check` takes the drop stage's `--cluster-cap`; no command
        takes `--tol-psd`, since the positivity tolerance is a constant."""
        for argv in (command + [option, "0"], ["check", "x.json", "--tol-psd", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_neutral_transition_with_a_signal_is_a_parse_error(self, tmp_path, capsys):
        tc = two_phase_cycle()
        path = tmp_path / "cycle.json"
        save_net(path, tc.net, tc.ann)
        doc = json.loads(path.read_text())
        doc["transitions"][0]["h"] = 2
        assert doc["transitions"][0]["id"] == "bwd"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: $: annotation does not fit the net: "
                                           "neutral transition bwd has signal dimension 2 != 1\n")

    def test_trace_increasing_channel_fails_cptni(self, tmp_path, capsys):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}, {"p"}, {"t": "0"})
        ann = LocalAnnotation({"p": 2, "q": 2}, {"t": Channel.identity(2).scaled(2.0)})
        verify_safety(net)
        out = checker.is_qpn(net, ann)
        assert out.data["stage"] == "cptni"
        assert out.reason == "cptni: channel on t: trace increasing"
        assert out.data["tni_min_eig"] == pytest.approx(-1.0)
        path = str(tmp_path / "loud.json")
        save_net(path, net, ann)
        for command in ("validate", "check"):
            assert main([command, path]) == 1
            assert (capsys.readouterr().out.splitlines()[-1]
                    == "FAIL cptni: channel on t: trace increasing")

    def test_channel_past_the_operator_cap_gets_a_verdict(self, tmp_path, capsys):
        # dim_in * dim_out of the 64 -> 128 isometry is 8192, but its
        # verdict needs only the 64-dim effect
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")}, {"p"}, {"t": "0"})
        ann = LocalAnnotation({"p": 64, "q": 128},
                              {"t": Channel(64, 128, (np.eye(128, 64),))})
        path = str(tmp_path / "wide.json")
        save_net(path, net, ann)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS cptni"
        assert main(["check", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("PASS drop (instances=1,")

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

    @pytest.mark.parametrize("argv, option, name, content", [
        (["prob", "--from", "p0", "--to", "p2,p4"], "--rho", "missing.json", None),
        (["prob", "--from", "p0", "--to", "p2,p4"], "--rho", "bad.json", "{not json"),
        (["prob", "--from", "p0", "--to", "p2,p4"], "--env", "bad.json", "{not json"),
        (["prob", "--from", "p0", "--to", "p2,p4"], "--env", "list.json", "[]"),
        (["sample", "--runs", "1"], "--rho", "missing.json", None),
        (["unfold"], "--out", "no-dir/prefix.json", None),
        (["unfold"], "--dot", "no-dir/prefix.dot", None),
        (["check"], "--report", "no-dir/report.json", None),
        (["unfold"], "--out", "a-dir", DIRECTORY),
        (["unfold"], "--dot", "a-dir", DIRECTORY),
        (["check"], "--report", "a-dir", DIRECTORY),
    ], ids=["prob-rho-missing", "prob-rho-invalid", "prob-env-invalid", "prob-env-list",
            "sample-rho-missing", "unfold-out-no-dir", "unfold-dot-no-dir",
            "check-report-no-dir", "unfold-out-is-dir", "unfold-dot-is-dir",
            "check-report-is-dir"])
    def test_side_file_errors_exit_two(self, demo_path, tmp_path, capsys,
                                       argv, option, name, content):
        """Input side files and output paths are files too: an unreadable
        or malformed one gets a located error line and exit code 2."""
        side = tmp_path / name
        if content is DIRECTORY:
            side.mkdir()
        elif content is not None:
            side.write_text(content)
        assert main([argv[0], str(demo_path), *argv[1:], option, str(side)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side}") and err.count("\n") == 1
        if content is DIRECTORY:
            assert err == f"error: {side}: [Errno 21] Is a directory: '{side}'\n"

    def test_outputs_to_dev_null(self, demo_path):
        """A non-regular output file is written but not trimmed."""
        assert main(["unfold", str(demo_path), "--out", os.devnull, "--dot", os.devnull]) == 0
        assert main(["check", str(demo_path), "--report", os.devnull]) == 0

    @pytest.mark.parametrize("env, message", [
        ({"a": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "zz": [[[1, 0]]]},
         '["zz"]: not a negative event of the interval'),
        ({"a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, '["a"]: trace 2, expected 1'),
        ({"a": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}, '["a"]: not a Hermitian matrix'),
        ({"a": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
         '["a"]: not positive semidefinite (min eigenvalue -5.000e-01)'),
        ({"a": [[1]]}, '["a"][0][0]: entry must be an [re, im] pair'),
        ({"a": [[[1, 0], [0, float("nan")]], [[0, float("inf")], [0, 0]]]},
         '["a"][0][1]: entry must be a finite float'),
        ({"a": [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]},
         '["a"][1][1]: entry must be a finite float'),
    ], ids=["unknown-event", "trace-two", "not-hermitian", "not-psd", "bad-entry",
            "not-finite", "huge-int"])
    def test_env_states_are_checked(self, demo_path, tmp_path, capsys, env, message):
        """Each --env key names a negative event of the interval and each
        value is a state; an error line starts with the file's path."""
        side = tmp_path / "env.json"
        side.write_text(json.dumps(env))
        assert main(["prob", str(demo_path), "--from", "p0", "--to", "p2,p4",
                     "--env", str(side)]) == 2
        assert capsys.readouterr().err == f"error: {side}{message}\n"

    def test_env_state_is_accepted(self, demo_path, tmp_path, capsys):
        side = tmp_path / "env.json"
        side.write_text(json.dumps({"a": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}))
        assert main(["prob", str(demo_path), "--from", "p0", "--to", "p2,p4",
                     "--env", str(side)]) == 0
        assert capsys.readouterr().out == "probability 0.500000000000\n"

    @pytest.mark.parametrize("argv", [
        ["prob", "--from", "p0", "--to", "p2,p4"],
        ["sample", "--runs", "1"],
    ], ids=["prob", "sample"])
    def test_rho_must_be_a_state(self, demo_path, tmp_path, capsys, argv):
        """--rho holds a state: a trace-4 identity on the dim-4 marking p0
        is a located error, not a probability of 2, and so is a state with
        an entry that is not finite."""
        side = tmp_path / "rho.json"
        side.write_text(json.dumps(matrix_to_json(np.eye(4))))
        assert main([argv[0], str(demo_path), *argv[1:], "--rho", str(side)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {side}: trace 4, expected 1\n"
        assert captured.out == ""
        rho = matrix_to_json(np.eye(4) / 4)
        rho[1][0][1] = -float("inf")
        side.write_text(json.dumps(rho))
        assert main([argv[0], str(demo_path), *argv[1:], "--rho", str(side)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {side}[1][0]: entry must be a finite float\n")

    @pytest.mark.parametrize("argv, option, content, message", [
        (["prob", "--from", "p0", "--to", "p2,p4"], "--rho", matrix_to_json(np.eye(2) / 2),
         ": shape (2, 2), expected (4, 4)"),
        (["sample", "--runs", "1"], "--rho", matrix_to_json(np.eye(2) / 2),
         ": shape (2, 2), expected (4, 4)"),
        (["prob", "--from", "p0", "--to", "p2,p4"], "--env", {"a": matrix_to_json(np.eye(4) / 4)},
         '["a"]: shape (4, 4), expected (2, 2)'),
    ], ids=["prob-rho", "sample-rho", "prob-env"])
    def test_wrong_size_states_are_located(self, demo_path, tmp_path, capsys,
                                           argv, option, content, message):
        """A state of the wrong size for its marking or signal space is a
        located error with exit code 2, like any other malformed state."""
        side = tmp_path / "side.json"
        side.write_text(json.dumps(content))
        assert main([argv[0], str(demo_path), *argv[1:], option, str(side)]) == 2
        assert capsys.readouterr() == ("", f"error: {side}{message}\n")

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
        assert list(doc) == ["stages", "drop"]
        assert doc["stages"] == [{"name": name, "passed": True, "reason": ""}
                                 for name, _ in checker.STAGES]
        assert doc["drop"]["passed"] is True
        assert doc["drop"]["stats"]["markings"] >= 1
        assert all("min_eig" in fam for entry in doc["drop"]["table"]
                   for fam in entry["families"])

    @pytest.mark.parametrize("net, argv, code, stages", [
        ("racy", [], 1, [{"name": name, "passed": True, "reason": ""} for name in
                         ("safety", "signatures", "cptni", "obliviousness")]
         + [{"name": "race-free", "passed": False, "reason": "race: a(0) ~ n(-)"}]),
        ("demo", ["--marking-bound", "1"], 3,
         [{"name": "safety", "passed": False, "reason": "more than 1 reachable markings"}]),
    ], ids=["race", "bound"])
    def test_report_is_written_when_a_stage_before_drop_fails(self, demo_path, tmp_path,
                                                               capsys, net, argv, code,
                                                               stages):
        """Every stage that ran, the failing one last, and no drop or oracle."""
        path, report = demo_path, tmp_path / "report.json"
        if net == "racy":
            path, racy = tmp_path / "racy.json", racy_net()
            save_net(path, racy.net, racy.ann)
        assert main(["check", str(path), "--oracle", "--report", str(report), *argv]) == code
        assert capsys.readouterr().out.endswith(
            f"FAIL {stages[-1]['name']}: {stages[-1]['reason']}\n")
        assert json.loads(report.read_text()) == {"stages": stages}

    @pytest.mark.parametrize("net, argv, at, reason", [
        ("demo", ["--cluster-cap", "0"], "drop",
         "cluster of 2 events at marking ['p1', 'p2'] exceeds cap 0"),
        ("cliques", ["--oracle"], "oracle", "more than 64 configurations"),
    ], ids=["cluster-cap", "oracle-configurations"])
    def test_report_is_written_when_a_stage_or_the_oracle_raises(
            self, demo_path, tmp_path, capsys, net, argv, at, reason):
        """The stages that returned, the drop report if the drop stage
        ran, and the error with where it was raised; stdout, stderr and
        exit 3 are those of the run without --report."""
        path, report = demo_path, tmp_path / "report.json"
        if net == "cliques":  # four 2-cliques side by side: 81 configurations
            path, cliques = tmp_path / "cliques.json", clique_net(None, 2)
            for _ in range(3):
                cliques, _ = parallel(cliques, clique_net(None, 2))
            save_net(path, cliques.net, cliques.ann)
        assert main(["check", str(path), *argv]) == 3
        plain = capsys.readouterr()
        assert plain.err == f"error: {reason}\n"
        assert main(["check", str(path), *argv, "--report", str(report)]) == 3
        assert capsys.readouterr() == plain
        doc = json.loads(report.read_text())
        names = [name for name, _ in checker.STAGES]
        returned = names if at == "oracle" else names[:names.index(at)]
        assert doc["stages"] == [{"name": name, "passed": True, "reason": ""}
                                 for name in returned]
        assert list(doc) == ["stages", *(["drop"] if at == "oracle" else []), "error"]
        assert doc["error"] == {"at": at, "reason": reason}

    def test_report_counts_the_clusters_evaluated(self, demo_path, tmp_path):
        report = tmp_path / "report.json"
        assert main(["check", str(demo_path), "--report", str(report)]) == 0
        stats = json.loads(report.read_text())["drop"]["stats"]
        assert list(stats)[:3] == ["markings", "clusters", "clusters_evaluated"]
        assert stats["clusters_evaluated"] == 1  # the clique {b, c}

    def test_report_document_is_built_only_for_a_report(self, demo_path, tmp_path,
                                                         monkeypatch):
        built = []
        to_dict = checker.DropReport.to_dict
        monkeypatch.setattr(checker.DropReport, "to_dict",
                            lambda self: built.append(self) or to_dict(self))
        assert main(["check", str(demo_path)]) == 0
        assert main(["check", str(demo_path), "--oracle"]) == 0
        assert built == []
        report = tmp_path / "report.json"
        assert main(["check", str(demo_path), "--oracle", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert list(doc) == ["stages", "drop", "oracle"] and len(built) == 2
        assert doc["oracle"]["stats"]["configurations"] == len(doc["oracle"]["table"]) > 0

    def test_check_oracle_on_occurrence_net(self, demo_path, capsys):
        assert main(["check", str(demo_path), "--oracle"]) == 0
        assert "PASS oracle" in capsys.readouterr().out

    def test_oracle_disagreement_fails_the_check(self, demo_path, capsys, monkeypatch):
        """An oracle whose verdict differs from the drop stage's fails
        `check` with both verdicts named."""
        failing = checker.DropReport({("p0",): ("general", {("b",): -1.0})},
                                     [{("p0",): [("p0",)]}], {})
        monkeypatch.setattr(checker, "brute_force_global_drop", lambda *_, **__: failing)
        assert main(["check", str(demo_path), "--oracle"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2].startswith("PASS drop")
        assert out[-1] == "FAIL oracle agreement: no (brute=False, local=True)"

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

    @pytest.mark.parametrize("pairs, line", [
        ([["b", "a"]], "FAIL join-spec: b is not positive"),
        ([["c", "b"]], "FAIL join-spec: b is not negative"),
    ])
    def test_compose_join_rejects_a_wrong_polarity(self, demo_path, tmp_path, capsys,
                                                   pairs, line):
        spec, out = tmp_path / "spec.json", tmp_path / "j.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        assert main(["compose", "join", str(demo_path), str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().out == line + "\n"
        assert not out.exists()

    def test_compose_join_rejects_bad_spec(self, tmp_path, capsys):
        x = joinable_net(np.random.default_rng(0), True, True)
        path = tmp_path / "pre.json"
        save_net(path, x.net, x.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": [["p1", "n1"]]}))
        assert main(["compose", "join", str(path), str(spec),
                     "--out", str(tmp_path / "j.json")]) == 1
        assert "FAIL join-spec" in capsys.readouterr().out

    @staticmethod
    def _two_paths(m0):
        """x0 -p-> x1 -q-> x2 and y0 -r-> y1 -n-> y2 on 1-dim places, p
        positive and n negative, marked at ``m0``."""
        arcs = {"p": ("x0", "x1"), "q": ("x1", "x2"), "r": ("y0", "y1"), "n": ("y1", "y2")}
        flow = {arc for t, (u, v) in arcs.items() for arc in ((u, t), (t, v))}
        net = Net({p for ps in arcs.values() for p in ps}, arcs, flow, m0,
                  {"p": "+", "q": "0", "r": "0", "n": "-"})
        return AnnotatedNet(net, LocalAnnotation(dict.fromkeys(net.places, 1),
                                                 {t: Channel.identity(1) for t in arcs}))

    def test_join_is_rechecked_at_the_marking_bound(self, tmp_path, capsys):
        """Each path has 3 markings and the joined component 4: the join
        exits 3 at --marking-bound 3, past which its output would fail
        `qpn check`, and writes a net that passes at bound 4."""
        x = self._two_paths({"x0", "y0"})
        path, spec, out = tmp_path / "paths.json", tmp_path / "spec.json", tmp_path / "j.json"
        save_net(path, x.net, x.ann)
        spec.write_text(json.dumps({"pairs": [["p", "n"]]}))
        argv = ["compose", "join", str(path), str(spec), "--out", str(out), "--marking-bound"]
        assert main(argv + ["3"]) == 3
        assert capsys.readouterr() == (
            "PASS join-spec\n",
            "error: joined net failed safety: more than 3 reachable markings\n")
        assert not out.exists()
        assert main(argv + ["4"]) == 0
        assert main(["check", str(out), "--marking-bound", "4"]) == 0
        with pytest.raises(BoundExceeded, match="^joined net failed safety: more than 3 "):
            drop_preserving_join(x, JoinSpec((("p", "n"),)), bound=3)

    def test_unsafe_join_keeps_its_error(self):
        """An unsafe input gives an unsafe joined net: a QpnError that is
        no bound, naming the firing."""
        x = self._two_paths({"x0", "x2", "y0"})
        with pytest.raises(QpnError) as exc:
            drop_preserving_join(x, JoinSpec((("p", "n"),)))
        assert not isinstance(exc.value, BoundExceeded)
        assert str(exc.value) == ("joined net failed safety: firing q at ['x1', 'x2', 'y2'] "
                                  "puts a second token on ['x2']")

    @pytest.mark.parametrize("pairs, lines", [
        ([["p1", "n1"]], ["FAIL join-spec: ['n1'] is not a maximal negative cluster",
                          "FAIL is-qpn-after-join: race-free: race: n2(-) ~ p1*n1(0)"]),
        ([["p1", "n1"], ["p2", "n2"]], ["PASS join-spec", "PASS is-qpn-after-join"]),
    ], ids=["invalid-spec", "valid-spec"])
    def test_forced_join_reports_the_joined_verdict(self, tmp_path, capsys, pairs, lines):
        """--force joins even an invalid spec, then prints the verdict of
        `is_qpn` on the joined net and writes it."""
        x = joinable_net(np.random.default_rng(0), True, True)
        path = tmp_path / "pre.json"
        save_net(path, x.net, x.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        out = tmp_path / "joined.json"
        assert main(["compose", "join", str(path), str(spec), "--out", str(out),
                     "--force"]) == 0
        assert capsys.readouterr().out.splitlines() == lines + [f"wrote {out}"]
        net, _, _, _ = load_net(out)
        assert "p1*n1" in net.transitions

    @pytest.mark.parametrize("pairs, message", [
        ([["zz", "n1"], ["p2", "n2"]], "pairs[0]: unknown transition 'zz'"),
        ([["p1", "n1"], ["p2", "u2"]], "pairs[1]: unknown transition 'u2'"),  # a place
        ([[1, "n1"], ["p2", "n2"]], "pairs[0]: id must be a string, got 1"),
        ([["p1", None], ["p2", "n2"]], "pairs[0]: id must be a string, got None"),
        ({"p1": "n1"}, "pairs: join spec needs a list of [positive, negative] pairs"),
        ([["p1"]], "pairs[0]: must be a [positive, negative] pair"),
    ])
    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_malformed_join_spec_exits_two(self, tmp_path, capsys, pairs, message, force):
        x = joinable_net(None, True, True)
        path = tmp_path / "pre.json"
        save_net(path, x.net, x.ann)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"pairs": pairs}))
        out = tmp_path / "j.json"
        assert main(["compose", "join", str(path), str(spec), "--out", str(out)]
                    + force) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["unfold", "--depth", "-1"], ["unfold", "--max-events", "-2"],
        ["sample", "--runs", "-3"], ["sample", "--max-steps", "-1"], ["sample", "--seed", "-1"],
        ["check", "--marking-bound", "-5"], ["prob", "--marking-bound", "-1"],
        ["check", "--cluster-cap", "-1"]])
    def test_negative_counts_are_usage_errors(self, demo_path, capsys, argv):
        """Counts are non-negative integers, checked when the command line
        is parsed."""
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(demo_path)] + argv[1:])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument {argv[1]}: invalid non_negative_int value: '{argv[2]}'"
                in captured.err)

    @pytest.mark.parametrize("argv, message", [
        (["--from", "zz", "--to", "p2,p4"], "--from: unknown places in marking ['zz']"),
        (["--from", "p0", "--to", "p9"], "--to: unknown places in marking ['p9']"),
        (["--from", "p0,p1", "--to", "p2,p4"], "--from: marking ['p0', 'p1'] is not reachable"),
        (["--from", "p2,p4", "--to", "p0"], "--to: ['p0'] is not reachable from ['p2', 'p4']"),
    ], ids=["unknown-from", "unknown-to", "unreachable-from", "to-not-after-from"])
    def test_prob_markings_are_located_input_errors(self, demo_path, capsys, argv, message):
        """A marking that names an unknown place, or that cannot be
        reached, is malformed input at its option (exit 2)."""
        assert main(["prob", str(demo_path), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.fixture
    def projection_path(self, tmp_path):
        """p0 -> t -> p1 on qubits, t the projection onto |+>: a run's
        probability is <+|rho|+>, 1/2 at the maximally mixed state."""
        net = Net({"p0", "p1"}, {"t"}, {("p0", "t"), ("t", "p1")}, {"p0"}, {"t": "0"})
        verify_safety(net)
        plus = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
        ann = LocalAnnotation({"p0": 2, "p1": 2}, {"t": Channel(2, 2, (plus,))})
        path = tmp_path / "projection.json"
        save_net(path, net, ann)
        return path

    def _rho(self, tmp_path):
        """A state with <+|rho|+> = (0.3 + 0.7 + 2 * 0.1) / 2 = 0.6."""
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(matrix_to_json([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])))
        return rho

    def test_prob_reads_the_rho_state(self, projection_path, tmp_path, capsys):
        argv = ["prob", str(projection_path), "--from", "p0", "--to", "p1"]
        assert main(argv + ["--rho", str(self._rho(tmp_path))]) == 0
        assert capsys.readouterr().out == "probability 0.600000000000\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == "probability 0.500000000000\n"

    def test_sample_reads_the_rho_state(self, projection_path, tmp_path, capsys):
        """t fires in about 60 % of the runs from rho, 50 % by default."""
        argv = ["sample", str(projection_path), "--runs", "2000"]
        for extra, p in [(["--rho", str(self._rho(tmp_path))], 0.6), ([], 0.5)]:
            assert main(argv + extra) == 0
            fired = next(line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("t: "))
            assert abs(int(fired[3:].split("/")[0]) / 2000 - p) < 0.035, fired

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


def test_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    """Eight marked places and four transitions a-d, each moving a token
    from one marked place onto another: every firing is unsafe, and the
    safety stage names the least one.  With four place-to-place arcs added,
    the loader names the least arc.  Of two unsafe paths side by side, the
    safety stage names the first one's firing.  No text may change with
    the interpreter's string-hash seed, nor may `qpn unfold`'s output and the
    prefix it writes of a state-machine pair, as a net file and as dot,
    nor `qpn check --oracle --report`'s output and report on a failing
    three-part composite."""
    places = [f"p{i}" for i in range(8)]
    flow = set()
    for i, t in enumerate("abcd"):
        flow |= {(places[2 * i], t), (t, places[2 * i + 1])}
    net = Net(places, "abcd", flow, places, dict.fromkeys("abcd", "0"))
    ann = LocalAnnotation(dict.fromkeys(places, 2), {t: Channel.identity(2) for t in "abcd"})
    unsafe, flat = tmp_path / "unsafe.json", tmp_path / "flat.json"
    save_net(unsafe, net, ann)
    doc = json.loads(unsafe.read_text())
    doc["flow"] = [[places[2 * i], places[2 * i + 1]] for i in range(4)] + doc["flow"]
    flat.write_text(json.dumps(doc))
    firing = f"FAIL safety: firing a at {places} puts a second token on ['p1']\n"
    paths, _ = parallel(unsafe_path(np.random.default_rng(0)),
                        unsafe_path(np.random.default_rng(3)))
    two = tmp_path / "two.json"
    save_net(two, paths.net, paths.ann)
    first = ("FAIL safety: firing L/t4 at ['L/a3', 'L/a4', 'R/a0', 'R/a1'] "
             "puts a second token on ['L/a4']\n")
    want = {("validate", unsafe): (1, firing, ""), ("check", unsafe): (1, firing, ""),
            ("validate", flat): (2, "", "error: flow[0]: flow arc (p0, p1) is not bipartite\n"),
            ("check", two): (1, first, "")}
    src = str(pathlib.Path(qpn.__file__).parents[1])

    def run_under(seed, *argv):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-m", "qpn.cli", *argv],
                             capture_output=True, text=True, env=env)
        return run.returncode, run.stdout, run.stderr

    for (command, path), expected in want.items():
        for seed in ("0", "1", "2"):
            assert run_under(seed, command, str(path)) == expected, (command, seed)
    # the prefix of a state-machine pair, written as a net file and as dot
    pair, _ = parallel(random_state_machine(np.random.default_rng(3)),
                       random_state_machine(np.random.default_rng(4)))
    machines, prefix, dot = (tmp_path / n for n in ("pair.json", "prefix.json", "prefix.dot"))
    save_net(machines, pair.net, pair.ann)
    seen = set()
    for seed in ("0", "1", "2"):
        prefix.unlink(missing_ok=True)
        dot.unlink(missing_ok=True)
        out = run_under(seed, "unfold", str(machines), "--depth", "5", "--out", str(prefix),
                        "--dot", str(dot))
        seen.add(out + (prefix.read_bytes(), dot.read_bytes()))
    assert len(seen) == 1
    (code, stdout, _, _, _), = seen
    assert code == 0 and stdout.endswith(f"wrote {prefix}\nwrote {dot}\n")
    occ = load_net(prefix)[0]
    assert any(len(occ.post(c)) > 1 for c in occ.places)  # the prefix branches
    both, _ = parallel(clique_net(None, 3), branching_demo(scaled=False))
    three, _ = parallel(both, clique_net(None, 2, weights=[0.7, 0.6]))
    composite, report = tmp_path / "three.json", tmp_path / "report.json"
    save_net(composite, three.net, three.ann)
    seen = set()
    for seed in ("0", "1", "2"):
        report.unlink(missing_ok=True)
        seen.add(run_under(seed, "check", str(composite), "--oracle", "--report", str(report))
                 + (report.read_bytes(),))
    assert len(seen) == 1
    (code, stdout, _, written), = seen
    assert code == 1 and "FAIL drop" in stdout and "PASS oracle agreement" in stdout
    assert list(json.loads(written)) == ["stages", "drop", "oracle"]
