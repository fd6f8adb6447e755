"""The fast paths of `qpn check` against the slow code they replace.

- The loader parses the Kraus lists of one shape together with one
  ``np.array`` call (`netfile._parsed_groups` by `netfile.kraus_from_json`);
  the per-entry scan `matrix_from_json` is its oracle, byte for byte, and a
  group that does not parse leaves each of its transitions to the scan, so
  no located error moves.
- The drop recurrence subtracts E_v itself when v conflicts with the rest
  of its family; the general form multiplies E_v by d(∅) = I.
- The effects are formed in one product per Kraus index and stack shape
  (`algebra.fill_effects`), bit for bit the K†K loop of `Channel._effect`.
  The drop stage reads a singleton family's value off the cptni kernel
  (`Channel.tni_min`), builds a clique's drop by subtraction and places
  each effect once per support; every value equals `min_eigenvalue` of
  `single_extension_drop`, under ``float.hex``.
- Obliviousness reads the Choi tensor by einsum (`identity_deviation`);
  `channels_close` reads the same deviation off d² `apply` calls.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qpn
from gen import (
    clique_net,
    joinable_net,
    racy_net,
    random_cptni,
    random_occurrence_annotated,
    random_state_machine,
)
from qpn import algebra, checker, netfile
from qpn.algebra import (
    TOL_CHANNEL_EQ,
    TOL_HERM,
    TOL_TNI_HERM,
    Channel,
    channels_close,
    effect,
    fill_effects,
    identity_deviation,
    min_eigenvalue,
)
from qpn.annotation import LocalAnnotation, annotation_is_cptni, check_local_obliviousness
from qpn.checker import check_local_drop, is_qpn, single_extension_drop
from qpn.cli import main
from qpn.compose import AnnotatedNet, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import DimensionMismatch, NetFileError
from qpn.netfile import (
    from_document,
    kraus_from_json,
    load_net,
    matrix_from_json,
    matrix_to_json,
    read_json,
    save_net,
)
from qpn.nets import Net, component_markings, flow_components, marking_clusters, verify_safety


def gen_nets():
    """(name, AnnotatedNet) for the generator families of `tests/gen.py`."""
    # seeds 16-26 give clusters that are not cliques
    out = [(f"occurrence-{s}", random_occurrence_annotated(np.random.default_rng(s)))
           for s in [*range(12), 16, 21, 22, 23, 26]]
    out += [(f"state-machine-{s}", random_state_machine(np.random.default_rng(s)))
            for s in range(8)]
    out += [(f"clique-{k}", clique_net(np.random.default_rng(k), k)) for k in (2, 3, 6)]
    out += [(f"joinable-{a}-{b}", joinable_net(None, a, b))
            for a in (False, True) for b in (False, True)]
    out += [("racy", racy_net()), ("demo", branching_demo()),
            ("demo-unscaled", branching_demo(scaled=False)), ("two-phase", two_phase_cycle())]
    return out


GEN_NETS = gen_nets()
GEN_IDS = [name for name, _ in GEN_NETS]


# --------------------------------------------------------------------------
# the loader's array parse


def _scanned(kraus, loc="k"):
    """The Kraus list by the per-entry scan: one complex array."""
    return np.array([matrix_from_json(k, f"{loc}[{j}]") for j, k in enumerate(kraus)])


@pytest.mark.parametrize("name,an", GEN_NETS, ids=GEN_IDS)
def test_array_parse_equals_the_entry_scan(name, an, tmp_path):
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    _, ann, _, _ = load_net(path)
    for entry in read_json(path)["transitions"]:
        fast = kraus_from_json(entry["kraus"])
        assert fast is not None
        want = _scanned(entry["kraus"])
        assert fast.dtype == want.dtype and fast.shape == want.shape
        assert fast.tobytes() == want.tobytes()
        assert ann.channel(entry["id"]).stack.tobytes() == want.tobytes()


@pytest.mark.parametrize("kraus", [
    [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],  # ints
    [[[[-0.0, 0.0], [0.5, -0.0]], [[0.0, -0.0], [-1e-300, 5e-324]]]],  # signed zeros, subnormals
    [[[[2 ** 62 + 1, -(2 ** 62) - 3]]]],  # ints rounded to float
    [[[[1, 0.25]]]],  # an int beside a float: a float array
])
def test_array_parse_rounds_like_the_entry_scan(kraus):
    fast = kraus_from_json(kraus)
    assert fast is not None and fast.tobytes() == _scanned(kraus).tobytes()


@pytest.mark.parametrize("kraus", [
    [[[[True, False]]]],  # bools
    [[[[True, 0.25]]]],  # a bool beside a float, which numpy folds into a float array
    [[[[1, 0]], [[0, False]]]],  # a bool beside ints, folded into an int array
    [[[["1", 0]]]],  # a string
    [[[[None, 0]]]],  # null
    [[[[1, 0], [0, 0]], [[1, 0]]]],  # ragged rows
    [[[[1, 0]]], [[[1, 0], [0, 0]]]],  # mixed shapes
    [[[[2 ** 70, 0.5]]]],  # an integer past int64
    [[[[10 ** 400, 0]]]],  # an integer past the float range
    [[]], [[[]]], [[[[]]]],  # empty matrices, rows and entries
    [[[[1, 0, 0]]]],  # a triple
    [[[[[1, 0]]]]],  # an entry nested once more
    [[[{"re": 1}]]],  # an object
])
def test_array_parse_declines_what_the_scan_must_judge(kraus):
    assert kraus_from_json(kraus) is None


def _base_doc():
    """p0 -t-> p1 (dims 2) and p2 -u-> p3 (dims 1), both neutral, identity
    channels, p0 and p2 marked."""
    net = Net({"p0", "p1", "p2", "p3"}, {"t", "u"},
              {("p0", "t"), ("t", "p1"), ("p2", "u"), ("u", "p3")}, {"p0", "p2"},
              {"t": "0", "u": "0"})
    ann = LocalAnnotation({"p0": 2, "p1": 2, "p2": 1, "p3": 1},
                          {"t": Channel.identity(2), "u": Channel.identity(1)})
    doc = json.loads(json.dumps({
        "format": "qpn-net", "version": 1, "metadata": {},
        "places": [{"id": p, "dim": ann.dims[p]} for p in sorted(net.places)],
        "transitions": [{"id": t, "polarity": "0", "h": 1,
                         "kraus": [matrix_to_json(k) for k in ann.channel(t).kraus]}
                        for t in sorted(net.transitions)],
        "flow": sorted([a, b] for a, b in net.flow),
        "initial_marking": sorted(net.initial_marking)}))
    return doc


def _kraus(value):
    def put(doc):
        doc["transitions"][0]["kraus"] = value
    return put


def _entry(value):
    """The first entry of t's Kraus operator replaced by ``value``."""
    def put(doc):
        doc["transitions"][0]["kraus"][0][0][0] = value
    return put


def _flow(*arcs):
    def put(doc):
        doc["flow"] = [list(a) for a in arcs] + doc["flow"]
    return put


def _marking_and_flow(doc):
    _flow(("p0", "p1"))(doc)
    doc["initial_marking"].append("zz")


def _with_v(*mutations):
    """A third transition v, p4 -v-> p5 (dims 2), with t's Kraus list, so
    that t and v share a shape group; then ``mutations``."""
    def put(doc):
        doc["places"] += [{"id": "p4", "dim": 2}, {"id": "p5", "dim": 2}]
        doc["transitions"].append(json.loads(json.dumps(doc["transitions"][0] | {"id": "v"})))
        doc["flow"] += [["p4", "v"], ["v", "p5"]]
        for mutate in mutations:
            mutate(doc)
    return put


def _polarity_of_v(doc):
    doc["transitions"][2]["polarity"] = "x"


def _bool_in_v(doc):
    doc["transitions"][2]["kraus"][0][1][1] = [1.0, False]


def _ragged_u(doc):
    """u's Kraus list in the shape group of t and v, with a short row."""
    doc["transitions"][1]["kraus"] = [[[[1, 0], [0, 0]], [[1, 0]]]]


# (name, mutation of `_base_doc`, `qpn validate`'s exit code, its stderr);
# the stderr texts, locations and codes are those of the per-entry loader
# that the array parse falls back to.  Files that load say nothing on stderr.
T0 = "transitions[0].kraus"
MALFORMED = [
    ("bools", _kraus([[[[True, False], [False, False]], [[False, False], [True, False]]]]), 2,
     f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("bool-beside-float", _entry([True, 0.0]), 2,
     f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("bool-imaginary", _entry([0.5, True]), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("bool-least-entry", _kraus([[[[1, 0], [0, 0]], [[0, 0], [0, False]]],
                                 [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]]), 2,
     f"{T0}[0][1][1]: entry must be an [re, im] pair"),
    ("ints", _kraus([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]), 0, ""),
    ("signed-zeros", _entry([1.0, -0.0]), 0, ""),
    ("string", _entry(["1", 0]), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("null-part", _entry([None, 0]), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("null-entry", _entry(None), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("triple", _entry([1, 0, 0]), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("nested", _entry([[1, 0]]), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("object", _entry({"re": 1}), 2, f"{T0}[0][0][0]: entry must be an [re, im] pair"),
    ("ragged-rows", _kraus([[[[1, 0], [0, 0]], [[1, 0]]]]), 2,
     f"{T0}[0][1]: row has 1 entries, expected 2"),
    ("mixed-shapes", _kraus([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]]), 2,
     f"{T0}: inconsistent matrix shapes [(1, 1), (2, 2)]"),
    ("empty-matrix", _kraus([[]]), 2, f"{T0}[0]: matrix must be a nonempty list of rows"),
    ("empty-second-matrix", _kraus([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], []]), 2,
     f"{T0}[1]: matrix must be a nonempty list of rows"),
    ("empty-row", _kraus([[[]]]), 2, f"{T0}[0][0]: row must be a nonempty list"),
    ("row-not-a-list", _kraus([[5]]), 2, f"{T0}[0][0]: row must be a nonempty list"),
    ("matrix-not-a-list", _kraus([5]), 2, f"{T0}[0]: matrix must be a nonempty list of rows"),
    ("kraus-not-a-list", _kraus({"k": 1}), 2, f"{T0}: needs a nonempty list of matrices"),
    ("no-kraus", _kraus([]), 2, f"{T0}: needs a nonempty list of matrices"),
    ("past-int64", _entry([2 ** 70, 0.5]), 1, ""),
    ("past-float", _entry([10 ** 400, 0]), 2, f"{T0}[0][0][0]: entry must be a finite float"),
    ("nan", _entry([0.0, float("nan")]), 2, f"{T0}[0][0][0]: entry must be a finite float"),
    ("infinity", _entry([float("-inf"), 0.0]), 2,
     f"{T0}[0][0][0]: entry must be a finite float"),
    ("wrong-signature", _kraus([matrix_to_json(np.eye(3))]), 2,
     "$: annotation does not fit the net: channel on t has signature (3, 3), expected (2, 2)"),
    ("place-to-place", _flow(("p0", "p1")), 2, "flow[0]: flow arc (p0, p1) is not bipartite"),
    ("least-arc-later", _flow(("t", "u"), ("p0", "p1")), 2,
     "flow[1]: flow arc (p0, p1) is not bipartite"),
    ("marking-before-arc", _marking_and_flow, 2, "initial_marking[2]: unknown place 'zz'"),
    # a group that fails leaves its members to the per-transition parse, in file order
    ("group-parses", _with_v(), 0, ""),
    ("nan-before-later-polarity", _with_v(_entry([0.0, float("nan")]), _polarity_of_v), 2,
     f"{T0}[0][0][0]: entry must be a finite float"),
    ("ragged-in-a-parsing-group", _with_v(_ragged_u), 2,
     "transitions[1].kraus[0][1]: row has 1 entries, expected 2"),
    ("bool-in-a-parsing-group", _with_v(_bool_in_v), 2,
     "transitions[2].kraus[0][1][1]: entry must be an [re, im] pair"),
]


@pytest.mark.parametrize("name,mutate,code,stderr", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_files_keep_their_located_errors(name, mutate, code, stderr,
                                                   tmp_path, capsys):
    doc = _base_doc()
    mutate(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == code
    err = capsys.readouterr().err
    assert err == (f"error: {stderr}\n" if stderr else "")
    if stderr:
        with pytest.raises(NetFileError) as exc:
            from_document(doc)
        assert str(exc.value) == stderr
    else:  # it loads: to the channel the entry scan gives
        _, ann, _, _ = from_document(doc)
        kraus = doc["transitions"][0]["kraus"]
        assert ann.channel("t").stack.tobytes() == _scanned(kraus).tobytes()


def test_an_integer_past_int64_is_scanned_to_the_same_channels():
    """An integer past int64 keeps its shape group from the array parse,
    so each transition of the group goes to the entry scan: the channels
    are those of the same file with the integer written as a float."""
    doc = _base_doc()
    _with_v(_entry([2 ** 64, 0.5]))(doc)
    floats = json.loads(json.dumps(doc).replace(str(2 ** 64), repr(2.0 ** 64)))
    assert list(netfile._parsed_groups(doc["transitions"])) == [1]  # u alone
    assert list(netfile._parsed_groups(floats["transitions"])) == [0, 2, 1]
    want = from_document(floats)[1]
    for t in ("t", "u", "v"):
        assert from_document(doc)[1].channel(t).stack.tobytes() == \
            want.channel(t).stack.tobytes(), t


# --------------------------------------------------------------------------
# the drop recurrence


def _general_recurrence(events, pre, effs, dim):
    """`checker._drop_recurrence` with E_v·d(F∖N[v]) formed for every v,
    d(∅) = I included."""
    memo = {(): np.eye(dim, dtype=complex)}

    def d(fam):
        if fam not in memo:
            far = tuple(e for e in fam[1:] if not pre(e) & pre(fam[0]))
            memo[fam] = d(fam[1:]) - effs[fam[0]] @ d(far)
        return memo[fam]

    return d(tuple(sorted(events)))


def _families(net):
    """Every sub-family of every cluster at every reachable marking, once."""
    seen = set()
    for (_, ts), markings in zip(flow_components(net), component_markings(net)):
        for m in markings:
            for cluster in marking_clusters(net, m, ts):
                cl = tuple(sorted(cluster))
                for r in range(1, len(cl) + 1):
                    for fam in itertools.combinations(cl, r):
                        if fam not in seen:
                            seen.add(fam)
                            yield fam


@pytest.mark.parametrize("name,an", GEN_NETS, ids=GEN_IDS)
def test_recurrence_equals_its_general_form_bitwise(name, an):
    net, ann = an.net, an.ann
    verify_safety(net)
    count = 0
    for fam in _families(net):
        pre = frozenset().union(*map(net.pre, fam))
        effs = {e: checker._embedded_effect(net, ann, pre, e) for e in fam}
        dim = int(np.prod([ann.dim(p) for p in pre]))
        got = checker._drop_recurrence(fam, net.pre, effs, dim)
        want = _general_recurrence(fam, net.pre, effs, dim)
        assert got.tobytes() == want.tobytes(), fam
        count += 1
    assert count or not any(net.non_negative(t) for t in net.transitions)


def test_check_local_drop_reads_the_same_eigenvalues_through_the_general_form(monkeypatch):
    """Every instance of every generated net: the same min_eig, bit for bit.
    Some families are not cliques, so E_v·d(F∖N[v]) is formed for some v."""
    def report(net, ann):
        return [(r.key, r.min_eig.hex()) for r in checker.check_local_drop(net, ann).instances]

    fast = [report(an.net, an.ann) for _, an in GEN_NETS]
    assert any(r.method == "single" and len(r.key[1]) > 1 for _, an in GEN_NETS
               for r in checker.check_local_drop(an.net, an.ann).instances)
    monkeypatch.setattr(checker, "_drop_recurrence", _general_recurrence)
    assert fast == [report(an.net, an.ann) for _, an in GEN_NETS]


# --------------------------------------------------------------------------
# the drop stage's channel algebra


def _path_cluster(tag="P", weight=0.3):
    """Marked dim-2 places a, b, c and events x {a}, y {a, b}, z {b, c},
    each the identity scaled by ``weight``: a cluster that is no clique."""
    a, b, c = f"{tag}a", f"{tag}b", f"{tag}c"
    pre = {f"{tag}x": (a,), f"{tag}y": (a, b), f"{tag}z": (b, c)}
    dims, flow, chans = {a: 2, b: 2, c: 2}, set(), {}
    for t, ps in pre.items():
        dims[f"{t}o"] = 2 ** len(ps)
        flow |= {(p, t) for p in ps} | {(t, f"{t}o")}
        chans[t] = Channel.identity(2 ** len(ps)).scaled(weight)
    net = Net(set(dims), set(pre), flow, {a, b, c}, dict.fromkeys(pre, "0"))
    return AnnotatedNet(net, LocalAnnotation(dims, chans))


def _composite(*parts):
    acc = parts[0]
    for part in parts[1:]:
        acc, _ = parallel(acc, part)
    verify_safety(acc.net)
    return acc


def composites():
    """(name, AnnotatedNet): a clique beside a state machine, the path
    cluster beside a clique, and two state machines beside a clique."""
    rng = np.random.default_rng(9)
    return [
        ("K+SM", _composite(clique_net(rng, 4, weights=[0.3, 0.2, 0.25, 0.25]),
                            random_state_machine(np.random.default_rng(2)))),
        ("P+K", _composite(_path_cluster(), clique_net(rng, 3, weights=[0.5, 0.4, 0.3]))),
        ("SM+SM+K", _composite(random_state_machine(np.random.default_rng(5)),
                               random_state_machine(np.random.default_rng(6)),
                               clique_net(rng, 5))),
    ]


DROP_NETS = GEN_NETS + composites()
DROP_IDS = [name for name, _ in DROP_NETS]


def _fresh(ann):
    """``ann`` with a new channel per transition, nothing formed on it yet."""
    return LocalAnnotation(ann.dims, {t: Channel(f.dim_in, f.dim_out, f.stack)
                                      for t, f in ann.channels.items()}, ann.h)


def _assert_effects_are_the_loop(chans):
    fill_effects(chans)
    for f in chans:
        want = Channel._effect.func(f)  # the K†K loop, not its cached value
        assert [x.hex() for x in effect(f).view(float).ravel()] == \
            [x.hex() for x in want.view(float).ravel()]


@pytest.mark.parametrize("name,an", DROP_NETS, ids=DROP_IDS)
def test_batched_effects_equal_the_kraus_loop(name, an):
    _assert_effects_are_the_loop(list(_fresh(an.ann).channels.values()))


@pytest.mark.parametrize("k", [1, 4, 6])
@pytest.mark.parametrize("din", [1, 3, 8])
def test_batched_effects_equal_the_kraus_loop_on_random_stacks(k, din):
    """On input dimension 1 and four Kraus operators or more, ``sum`` over
    the Kraus axis adds in another order than the loop does; the batch
    adds the operators one at a time."""
    rng = np.random.default_rng(10 * k + din)
    _assert_effects_are_the_loop([
        Channel(din, dout, rng.normal(size=(k, dout, din)) + 1j * rng.normal(size=(k, dout, din)))
        for dout in (1, 2, 3) for _ in range(8)])


@pytest.mark.parametrize("name,an", DROP_NETS, ids=DROP_IDS)
def test_table_values_equal_their_references(name, an):
    """Every family's value is `min_eigenvalue` of `single_extension_drop`
    on its support, and a singleton's is also that of I - E, which is the
    channel's ``tni_min``."""
    net, ann = an.net, _fresh(an.ann)
    verify_safety(net)
    for _, fams in check_local_drop(net, ann).table.values():
        for fam, lo in fams.items():
            support = frozenset().union(*map(net.pre, fam))
            assert lo.hex() == min_eigenvalue(single_extension_drop(net, ann, support, fam)).hex()
            if len(fam) == 1:
                f = ann.channel(fam[0])
                assert lo.hex() == f.tni_min.hex() == \
                    min_eigenvalue(np.eye(f.dim_in) - effect(f)).hex()


@pytest.mark.parametrize("name,an", DROP_NETS, ids=DROP_IDS)
def test_the_drop_report_alone_is_the_one_inside_is_qpn(name, an):
    """Called on its own, check_local_drop solves the singletons by the
    cptni kernel: its table and stats are those of the drop stage."""
    verify_safety(an.net)
    alone = check_local_drop(an.net, _fresh(an.ann))
    out = is_qpn(an.net, _fresh(an.ann))
    if out.data["stage"] in ("drop", "all"):
        assert alone.to_dict() == out.data["report"].to_dict()
    else:
        assert name == "racy"


def _skewed_singleton(skew):
    """Event e on a marked dim-2 place, whose effect is 0.5·I plus ``skew``
    above the diagonal: I - E is that far from Hermitian."""
    net = Net({"p", "q"}, {"e"}, {("p", "e"), ("e", "q")}, {"p"}, {"e": "0"})
    verify_safety(net)
    f = Channel.identity(2).scaled(0.5)
    f.__dict__["_effect"] = effect(f) + np.triu(np.ones((2, 2)), 1) * skew
    return net, LocalAnnotation({"p": 2, "q": 2}, {"e": f})


@pytest.mark.parametrize("cptni_first", [False, True])
def test_a_singleton_between_the_two_guards_still_raises(cptni_first):
    """Skewed by 1e-8, I - E passes the cptni guard (TOL_TNI_HERM) but not
    the drop's (TOL_HERM): its value is not kept, and the drop stage
    raises as it did when it solved every singleton itself."""
    assert TOL_HERM < 1e-8 < TOL_TNI_HERM
    net, ann = _skewed_singleton(1e-8)
    if cptni_first:
        assert annotation_is_cptni(net, ann)
    with pytest.raises(DimensionMismatch, match="not Hermitian"):
        check_local_drop(net, ann)
    assert ann.channel("e").tni_min is None
    net, ann = _skewed_singleton(1e-10)  # within both: kept, and read
    assert check_local_drop(net, ann).table[("e",)][1][("e",)] == ann.channel("e").tni_min


def test_check_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """The shape groups and the placement memo key on ids and shapes: `qpn
    check --report` prints and writes the same bytes under two hash seeds."""
    src = str(pathlib.Path(qpn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, an in composites():
        path, report = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
        save_net(path, an.net, an.ann)
        seen = set()
        for seed in ("0", "1"):
            report.unlink(missing_ok=True)
            run = subprocess.run([sys.executable, "-m", "qpn.cli", "check", str(path),
                                  "--report", str(report)], capture_output=True, text=True,
                                 env=env | {"PYTHONHASHSEED": seed})
            seen.add((run.returncode, run.stdout, run.stderr, report.read_bytes()))
        assert len(seen) == 1, name
        (code, stdout, stderr, _), = seen
        assert code in (0, 1) and "drop" in stdout and not stderr


# --------------------------------------------------------------------------
# obliviousness on the Choi tensor


def _isometry(rng, rows, cols):
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(z)[0]


def _identity_presentations(rng, d):
    """Kraus lists of the identity channel on dim d that are not [I]."""
    eye = np.eye(d, dtype=complex)
    w = _isometry(rng, 3, 1)[:, 0]  # K_i = w_i·I with Σ|w_i|² = 1
    return [
        [eye / np.sqrt(2), eye / np.sqrt(2)],
        [eye, np.zeros((d, d))],
        [c * eye for c in w],
        [np.exp(0.7j) * eye],
    ]


def _agree(f):
    """Choi deviation and channels_close against the identity: the same
    verdict, and deviations within rounding."""
    d = f.dim_in
    slow = channels_close(f, Channel.identity(d))
    dev = identity_deviation(f)
    assert abs(dev - slow.data["max_deviation"]) <= 1e-15 * max(1.0, dev)
    assert (dev <= TOL_CHANNEL_EQ * max(1, d)) == slow.passed
    return slow.passed


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_choi_verdict_agrees_with_channels_close(d):
    rng = np.random.default_rng(d)
    for _ in range(4):
        assert not _agree(random_cptni(rng, d, d))
    for kraus in _identity_presentations(rng, d):
        assert _agree(Channel(d, d, tuple(kraus)))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("scale", [0.5, 0.9, 1.1, 2.0])
def test_choi_verdict_agrees_either_side_of_the_tolerance(d, scale):
    """K = I + δ·|0><0| deviates from the identity by 2δ + δ² on the
    Choi entry (0, 0, 0, 0); δ puts that at ``scale`` times the tolerance."""
    tol = TOL_CHANNEL_EQ * max(1, d)
    delta = np.sqrt(1 + scale * tol) - 1
    k = np.eye(d, dtype=complex)
    k[0, 0] += delta
    assert _agree(Channel(d, d, (k,))) == (scale < 1)


def test_choi_blocks_cover_every_input_index(monkeypatch):
    """With blocks of one or two input indices, the deviation is the same."""
    rng = np.random.default_rng(5)
    f = random_cptni(rng, 4, 4)
    k = np.eye(4, dtype=complex)
    k[3, 1] = 1e-3  # the only deviation, at input index 1
    g = Channel(4, 4, (k,))
    whole = identity_deviation(f), identity_deviation(g)
    for entries in (4 ** 3, 2 * 4 ** 3, 1):
        monkeypatch.setattr(algebra, "BATCH_ENTRIES", entries)
        assert (identity_deviation(f), identity_deviation(g)) == whole
    assert whole[1] == pytest.approx(1e-3)


def test_a_nan_channel_is_not_the_identity():
    k = np.eye(3, dtype=complex)
    k[2, 2] = np.nan
    assert np.isnan(identity_deviation(Channel(3, 3, (k,))))


def test_channels_close_fails_on_a_nan_deviation():
    """A NaN entry reads as a NaN deviation in either argument order, so
    the channels are not close."""
    nan = Channel(2, 2, (np.diag([1, np.nan]).astype(complex),))
    for f, g in ((nan, Channel.identity(2)), (Channel.identity(2), nan)):
        out = channels_close(f, g)
        assert not out and np.isnan(out.data["max_deviation"])


def test_obliviousness_stage_on_presentations_of_the_identity():
    """A negative event whose channel is any presentation of the identity
    passes; one Kraus operator nudged past the tolerance fails it with the
    same text as before."""
    an = joinable_net(None, True, False)
    rng = np.random.default_rng(2)
    for kraus in _identity_presentations(rng, 4):
        channels = dict(an.ann.channels, n1=Channel(4, 4, tuple(kraus)))
        assert check_local_obliviousness(an.net, LocalAnnotation(an.ann.dims, channels,
                                                                 an.ann.h))
    k = np.eye(4, dtype=complex)
    k[2, 2] += 1e-9
    channels = dict(an.ann.channels, n2=Channel(4, 4, (k,)))
    out = check_local_obliviousness(an.net, LocalAnnotation(an.ann.dims, channels, an.ann.h))
    assert not out and out.reason == "negative transition n2 is not the identity channel"
