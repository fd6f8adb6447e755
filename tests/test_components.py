"""Flow components: `verify_safety`, `check_local_drop` and
`check_join_preservation` work on each flow-connected component of a net,
every result equals the one computed on the product of the components'
markings, and every witness is the failing component's own."""

import ast
import itertools
import json
import re
import types

import numpy as np
import pytest

from gen import (
    clique_net,
    joinable_net,
    product_markings,
    random_join,
    random_occurrence_annotated,
    random_state_machine,
    unsafe_path,
)
from qpn import checker, compose, nets
from qpn.algebra import Channel, min_eigenvalue
from qpn.annotation import LocalAnnotation
from qpn.checker import (
    DropInstanceResult,
    check_local_drop,
    is_qpn,
    single_extension_drop,
)
from qpn.cli import main
from qpn.compose import (
    AnnotatedNet,
    JoinSpec,
    check_join_preservation,
    drop_preserving_join,
    parallel,
)
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import BoundExceeded
from qpn.netfile import save_net
from qpn.nets import (
    Net,
    component_markings,
    enabled,
    fire,
    flow_components,
    is_clique,
    marking_clusters,
    verify_safety,
)


def _compose(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc, _ = parallel(acc, part)
    return acc


def _fresh(net):
    """An unexplored copy of ``net``."""
    return Net(net.places, net.transitions, net.flow, net.initial_marking, net.polarity)


def explored_markings(net):
    """The reachable markings by exploring the whole net."""
    seen, frontier = {net.initial_marking}, [net.initial_marking]
    while frontier:
        m = frontier.pop()
        for t in enabled(net, m):
            m2 = fire(net, m, t)
            if m2 not in seen:
                seen.add(m2)
                frontier.append(m2)
    return seen


def product_drop(net, ann, tol=1e-9):
    """The drop check on the product: every cluster at every reachable
    marking of the whole net, each family by `single_extension_drop` on
    its pre-places; the instances in key order and the report's stats.
    Each distinct cluster's families of two or more events are solved once
    (a singleton's value is the cptni kernel's), and no queue of the local
    check fills in these nets: one kernel call per such drop dimension."""
    instances, clusters, cliques, evaluated, dims = [], 0, 0, {}, set()
    for m in sorted(explored_markings(net), key=sorted):
        for cluster in marking_clusters(net, m):
            cl = tuple(sorted(cluster))
            clusters += 1
            clique = len(cl) > 1 and is_clique(net, cl)
            cliques += clique
            fams = [cl] if clique else [
                fam for r in range(1, len(cl) + 1) for fam in itertools.combinations(cl, r)]
            evaluated[cl] = sum(len(fam) > 1 for fam in fams)
            for fam in fams:
                drop = single_extension_drop(
                    net, ann, frozenset().union(*map(net.pre, fam)), fam)
                if len(fam) > 1:
                    dims.add(len(drop))
                lo = min_eigenvalue(drop)
                instances.append(DropInstanceResult(
                    (tuple(sorted(m)), fam), "clique" if clique else "single", lo, lo >= -tol))
    instances.sort(key=lambda r: r.key)
    stats = {"markings": len(explored_markings(net)), "clusters": clusters,
             "clusters_evaluated": len(evaluated), "clique_fast_paths": cliques,
             "eigen_solves": sum(evaluated.values()), "eigen_calls": len(dims)}
    return instances, stats


def report_rows(doc):
    """The rows a report document stands for, in key order: for each
    choice of one marking per part, each family of each key met at one of
    them, at the sorted union of the markings."""
    table = {tuple(entry["key"]): entry for entry in doc["table"]}
    rows = []
    for combo in itertools.product(*doc["parts"]):
        m = tuple(sorted(itertools.chain.from_iterable(at["marking"] for at in combo)))
        rows += [((m, tuple(fam["events"])), table[tuple(key)]["method"], fam["min_eig"])
                 for at in combo for key in at["keys"] for fam in table[tuple(key)]["families"]]
    return sorted(rows)


def _idle_parts():
    """An isolated transition (empty pre- and post-set, effect 0.4), and
    an isolated place, marked and not."""
    net = Net({"iso", "idle"}, {"t0"}, set(), {"iso"}, {"t0": "0"})
    ann = LocalAnnotation({"iso": 2, "idle": 3}, {"t0": Channel.identity(1).scaled(0.4)})
    verify_safety(net)
    return AnnotatedNet(net, ann)


def _two_clusters():
    """One component with two clusters at m0: the path cluster x {a},
    y {a, b}, z {b, c}, which is no clique, and w {d}.  The event k, on
    the place u that is never marked, joins them into one component."""
    pre = {"x": ("a",), "y": ("a", "b"), "z": ("b", "c"), "w": ("d",)}
    flow = {(p, t) for t, ps in pre.items() for p in ps} | {(t, t + "o") for t in pre}
    flow |= {("u", "k"), ("k", "a"), ("k", "d")}
    dims = dict.fromkeys("abcd", 2) | {t + "o": 2 ** len(ps) for t, ps in pre.items()}
    chans = {t: Channel.identity(2 ** len(ps)).scaled(0.3) for t, ps in pre.items()}
    chans["k"] = Channel(1, 4, (np.eye(4, 1),))
    net = Net(set(dims) | {"u"}, set(chans), flow, set("abcd"), dict.fromkeys(chans, "0"))
    verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(dims | {"u": 1}, chans))


def _part_pool():
    rng = np.random.default_rng(11)
    pool = [random_state_machine(np.random.default_rng(s), max_dim=2) for s in range(4)]
    pool += [random_occurrence_annotated(np.random.default_rng(s), max_dim=2)
             for s in range(4)]
    pool += [clique_net(None, 3), clique_net(None, 2, weights=[0.7, 0.6]),
             branching_demo(), branching_demo(scaled=False), two_phase_cycle()]
    compositions = [[pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
                    for k in (2, 2, 3, 3, 3, 4, 4)]
    compositions += [[clique_net(None, 3), _idle_parts()],
                     [_idle_parts(), branching_demo(scaled=False), random_state_machine(
                         np.random.default_rng(2), max_dim=2)],
                     [_two_clusters(), branching_demo()]]
    return compositions


COMPOSITIONS = _part_pool()


@pytest.mark.parametrize("parts", COMPOSITIONS, ids=range(len(COMPOSITIONS)))
def test_component_drop_equals_the_product_check(parts):
    an = _compose(parts)
    net = _fresh(an.net)
    assert verify_safety(net).data["markings"] == len(explored_markings(net))
    assert product_markings(net) == explored_markings(net)
    assert len(flow_components(net)) >= len(parts)
    want, stats = product_drop(net, an.ann)
    report = check_local_drop(net, an.ann)
    assert [(r.key, r.method, r.passed, r.min_eig) for r in report.instances] == \
        [(r.key, r.method, r.passed, r.min_eig) for r in want]
    assert report.stats == stats
    assert report.instance_count() == len(want)
    assert report_rows(json.loads(json.dumps(report.to_dict()))) == \
        [(r.key, r.method, r.min_eig) for r in want]
    assert report.worst == min((r.min_eig for r in want), default=float("inf"))
    assert report.passed == all(r.passed for r in want)
    failures = [r for r in want if not r.passed]
    assert [r for r in report.instances if not r.passed] == failures
    _, witness = _own_drop_witness(net, an.ann)
    assert check_local_drop(net, an.ann).first_failure() == witness
    assert witness is None or witness in failures and witness.min_eig == report.worst


def test_some_compositions_fail_and_some_pass():
    verdicts = {bool(check_local_drop(an.net, an.ann))
                for an in map(_compose, COMPOSITIONS) if verify_safety(an.net)}
    assert verdicts == {True, False}


def test_cluster_cap_error_names_the_first_components_marking():
    """At cap 2 the clique's cluster of 3 is over the cap: the error is
    the clique's own, at its marking beside the cycle's part of m0."""
    an = _compose([two_phase_cycle(), clique_net(None, 3)])
    (ps, ts), = (c for c in flow_components(an.net) if "hub" in c[0])
    verify_safety(part := _part(an.net, ps, ts))
    with pytest.raises(BoundExceeded) as own:
        check_local_drop(part, an.ann, cluster_cap=2)
    with pytest.raises(BoundExceeded) as got:
        check_local_drop(an.net, an.ann, cluster_cap=2)
    assert str(got.value) == _beside(str(own.value), an.net.initial_marking - ps)
    assert "'hub'" in str(got.value) and "'s0'" in str(got.value)


@pytest.fixture
def no_product(monkeypatch):
    """Walking the product of the components' markings raises."""
    def walk(*_):
        raise AssertionError("the product was walked")

    no_product = types.SimpleNamespace(**vars(itertools) | {"product": walk})
    for module in (checker, compose, nets):
        monkeypatch.setattr(module, "itertools", no_product)


@pytest.mark.parametrize("parts, cap, reason, error", [
    ([clique_net(None, 3), branching_demo(scaled=False),
      random_state_machine(np.random.default_rng(2), max_dim=2)], 2,
     "drop: condition fails at marking ['g0p0', 'g1p0', 'hub', 'p1', 'p2'] on ['b', 'c'] "
     "(min eigenvalue -1.000e+00)",
     "cluster of 3 events at marking ['g0p0', 'g1p0', 'hub', 'p0'] exceeds cap 2"),
    ([branching_demo(scaled=False), two_phase_cycle(),
      clique_net(None, 2, weights=[0.7, 0.6])], 1,
     "drop: condition fails at marking ['hub', 'p1', 'p2', 's0'] on ['b', 'c'] "
     "(min eigenvalue -1.000e+00)",
     "cluster of 2 events at marking ['hub', 'p1', 'p2', 's0'] exceeds cap 1"),
], ids=["clique-demo-machine", "demo-cycle-clique"])
def test_witnesses_never_walk_the_product(no_product, parts, cap, reason, error):
    """A failing verdict names the worst family and a cluster over the
    cap its first component's, each at a marking of the net, with no
    product walked."""
    an = _compose(parts)
    assert len(flow_components(an.net)) >= 3
    assert is_qpn(an.net, an.ann).reason == reason
    with pytest.raises(BoundExceeded) as exc:
        check_local_drop(an.net, an.ann, cluster_cap=cap)
    assert str(exc.value) == error


@pytest.mark.parametrize("matched, reason", [
    (True, ""),
    (False, "drop differs by 1.00e+00 at ['L/g0p0', 'L/g1p0', 'R/g0p0', 'g0p0', 'g1p0', "
            "'s', 'u1', 'u2'] on ['p1*n1', 'p2*n2']"),
], ids=["valid", "forced"])
def test_joins_never_walk_the_product(no_product, matched, reason):
    """The join check beside three state machines reads each component on
    its own, and a forced bad join names the marking the product walk
    names."""
    machines = [random_state_machine(np.random.default_rng(s)) for s in range(3)]
    x = _compose(machines + [joinable_net(None, True, matched)])
    spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
    y = drop_preserving_join(x, spec, force=not matched)
    assert len(flow_components(y.net)) >= 4
    assert check_join_preservation(x, y, spec).reason == reason


def test_one_component_keeps_the_nets_own_sets():
    bd = branching_demo()
    assert flow_components(bd.net) == ((bd.net.places, bd.net.transitions),)
    assert component_markings(bd.net) == (explored_markings(bd.net),)


def _counting_fire(monkeypatch):
    firings = []

    def counting(net, m, t):
        firings.append(t)
        return fire(net, m, t)

    monkeypatch.setattr("qpn.nets.fire", counting)
    return firings


def test_product_past_the_bound_exits_three_from_the_components(tmp_path, capsys,
                                                                 monkeypatch):
    """`--marking-bound` caps each component's markings, not their
    product: 48 markings pass bound 20 and fail bound 3, and the check
    fires no more than exploring the parts does."""
    parts = [clique_net(None, 3), clique_net(None, 3), clique_net(None, 2)]
    an = _compose(parts)  # 4 * 4 * 3 = 48 markings, at most 4 per part
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    firings = _counting_fire(monkeypatch)
    for part in parts:
        assert len(product_markings(_fresh(part.net))) <= 4
    own = len(firings)
    firings.clear()
    assert main(["check", str(path), "--marking-bound", "20"]) == 0
    assert capsys.readouterr().out.startswith("PASS safety\n")
    assert 0 < len(firings) <= own
    assert main(["check", str(path), "--marking-bound", "3"]) == 3
    assert capsys.readouterr().out == "FAIL safety: more than 3 reachable markings\n"
    assert len(product_markings(_fresh(an.net), 4)) == 48
    with pytest.raises(BoundExceeded, match="^more than 3 reachable markings$"):
        component_markings(_fresh(an.net), 3)


def _machines(k):
    """k parts drawn from one seed: `random_state_machine` QPNs with at
    least 4 markings each."""
    rng, parts = np.random.default_rng(3), []
    while len(parts) < k:
        an = random_state_machine(rng)
        if is_qpn(an.net, an.ann) and verify_safety(an.net).data["markings"] >= 4:
            parts.append(an)
    return parts


def test_ten_parts_are_checked_and_reported_per_component(no_product, tmp_path, capsys):
    """40 310 784 markings, at most 3 per component: `qpn check --report`
    passes at the default bound and writes the 49 component markings, and
    a bound below one component's markings exits 3 with the usual text."""
    an = _compose(_machines(10))
    path, report = tmp_path / "net.json", tmp_path / "report.json"
    save_net(path, an.net, an.ann)
    assert main(["check", str(path), "--report", str(report)]) == 0
    assert "PASS drop (instances=631535616," in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["drop"]["stats"]["markings"] == 40_310_784
    sizes = [len(part) for part in doc["drop"]["parts"]]
    assert max(sizes) == 3 and sum(sizes) == 49 and len(doc["drop"]["table"]) == 39
    assert main(["check", str(path), "--marking-bound", "2"]) == 3
    assert capsys.readouterr().out == "FAIL safety: more than 2 reachable markings\n"


def test_unsafe_part_is_named_beside_the_others_initial_places(tmp_path, capsys):
    unsafe = Net({"a", "b"}, {"t"}, {("a", "t"), ("t", "b")}, {"a", "b"}, {"t": "0"})
    ann = LocalAnnotation({"a": 1, "b": 1}, {"t": Channel.identity(1)})
    an = _compose([AnnotatedNet(unsafe, ann), clique_net(None, 3)])
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL safety: firing t at ['a', 'b', 'hub'] puts a second token on ['b']\n")


def _unsafe_part():
    """a0 -At1-> a1 -At2-> b with a0 and b marked: unsafe at its third marking."""
    unsafe = Net({"a0", "a1", "b"}, {"At1", "At2"},
                 {("a0", "At1"), ("At1", "a1"), ("a1", "At2"), ("At2", "b")},
                 {"a0", "b"}, {"At1": "0", "At2": "0"})
    return AnnotatedNet(unsafe, LocalAnnotation(
        dict.fromkeys(unsafe.places, 1), {t: Channel.identity(1) for t in unsafe.transitions}))


def test_unsafe_part_fails_without_walking_the_product(tmp_path, capsys, monkeypatch):
    """An unsafe 3-place part beside eight state machines (over 100 000
    markings of the net) fails safety, exit 1, from its own few firings:
    no exploration runs into the marking bound."""
    an = _compose([_unsafe_part()] + _machines(8))
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    firings = _counting_fire(monkeypatch)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert re.fullmatch(r"FAIL safety: firing \S+At2 at \[.*\] puts a second token on "
                        r"\['\S+b'\]\n", out), out
    assert 0 < len(firings) < 1000


@pytest.mark.parametrize("pre", ["A", "z"])
def test_unsafe_part_fails_past_a_part_over_the_bound(tmp_path, capsys, pre):
    """A ring of 4 markings beside the unsafe part, at --marking-bound 3:
    the net is unsafe (exit 1) whether the ring's ids sort before the
    unsafe part's (prefix A) or after them (prefix z)."""
    ps, ts = [f"{pre}{i}" for i in range(4)], [f"{pre}u{i}" for i in range(4)]
    ring = Net(ps, ts, {arc for i, t in enumerate(ts) for arc in ((ps[i], t), (t, ps[i - 3]))},
               {ps[0]}, dict.fromkeys(ts, "0"))
    big = AnnotatedNet(ring, LocalAnnotation(dict.fromkeys(ring.places, 1),
                                             {t: Channel.identity(1) for t in ts}))
    path = tmp_path / "net.json"
    save_net(path, big.net, big.ann)
    assert main(["check", str(path), "--marking-bound", "3"]) == 3
    assert capsys.readouterr().out == "FAIL safety: more than 3 reachable markings\n"
    an = _compose([big, _unsafe_part()])
    assert (flow_components(an.net)[0][0] == ring.places) == (pre == "A")
    save_net(path, an.net, an.ann)
    assert main(["check", str(path), "--marking-bound", "3"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL safety: firing At2 at {sorted({'a1', 'b', pre + '0'})} "
        "puts a second token on ['b']\n")


_FIRING = re.compile(r"firing (\S+) at (\[.*?\]) puts a second token on (\[.*\])")


def _part(net, places, transitions):
    """The component (places, transitions) of ``net`` as a net of its own."""
    return Net(places, transitions, {(a, b) for a, b in net.flow if a in places | transitions},
               net.initial_marking & places, {t: net.pol(t) for t in transitions})


def test_unsafe_witness_is_the_failing_components_own():
    """On random compositions with unsafe parts, the safety text is the
    first unsafe component's own, checked as a net of its own, at its
    marking extended by the other components' initial places."""
    rng = np.random.default_rng(5)
    unsafe = not_first = beside = 0
    makers = (unsafe_path, random_state_machine, lambda _: clique_net(None, 3))
    for _ in range(60):
        parts = [makers[rng.integers(3)](rng) for _ in range(rng.integers(2, 5))]
        net = _fresh(_compose(parts).net)
        got = verify_safety(net)
        own = [verify_safety(_part(net, ps, ts)) for ps, ts in flow_components(net)]
        if all(own):
            assert got
            continue
        unsafe += 1
        i = next(i for i, o in enumerate(own) if not o)
        t, m, doubled = _FIRING.fullmatch(own[i].reason).groups()
        rest = net.initial_marking - flow_components(net)[i][0]
        m = sorted(set(ast.literal_eval(m)) | rest)
        assert got.reason == f"firing {t} at {m} puts a second token on {doubled}"
        assert not got.data.get("bound_exceeded")
        not_first += i > 0
        beside += bool(rest)
    assert unsafe >= 30 and not_first >= 5 and beside >= 20


def _beside(text, rest):
    """``text`` with its first marking list joined with the places ``rest``."""
    at = re.search(r"\[.*?\]", text)
    m = sorted(set(ast.literal_eval(at.group())) | rest)
    return f"{text[:at.start()]}{m}{text[at.end():]}"


def _own_drop_witness(net, ann):
    """(index, failure) of the component whose worst family is the net's:
    each flow component, checked as a net of its own, names its failure,
    here at its marking beside the other components' part of m0; the
    least min_eig, then the least family, wins.  (None, None) if every
    component passes."""
    own = []
    for i, (ps, ts) in enumerate(flow_components(net)):
        verify_safety(part := _part(net, ps, ts))
        if r := check_local_drop(part, ann).first_failure():
            m = tuple(sorted(set(r.key[0]) | (net.initial_marking - ps)))
            own.append((r.min_eig, r.key[1], i, DropInstanceResult((m, r.key[1]), r.method,
                                                                   r.min_eig, False)))
    return min(own, default=(None,) * 4)[2:]


def test_every_witness_is_its_components_own(no_product):
    """On random safe compositions, the drop failure, a cluster over the
    cap and a forced join's failure are each the failing component's own,
    checked as a net of its own, at its marking beside the other
    components' part of m0; the drop failure is the worst family's, with
    the report's worst eigenvalue in `is_qpn`'s reason."""
    rng = np.random.default_rng(31)
    makers = (lambda: random_state_machine(rng, max_dim=2),
              lambda: clique_net(None, k := int(rng.integers(2, 4)),
                                 weights=rng.uniform(0.2, 0.7, size=k)),
              lambda: branching_demo(scaled=bool(rng.integers(2))), _two_clusters)
    counts = dict.fromkeys(["drop", "drop_not_first", "drop_beside", "cap", "cap_not_first",
                            "cap_beside", "join", "join_not_first"], 0)
    for _ in range(60):
        an = _compose([makers[rng.integers(4)]() for _ in range(rng.integers(2, 5))])
        net, comps = an.net, flow_components(an.net)
        rests = [net.initial_marking - ps for ps, _ in comps]
        report = check_local_drop(net, an.ann)
        i, want = _own_drop_witness(net, an.ann)
        assert report.first_failure() == want
        if want is not None:
            assert want.min_eig == report.worst
            assert is_qpn(net, an.ann).reason.endswith(f"(min eigenvalue {report.worst:.3e})")
            counts["drop"] += 1
            counts["drop_not_first"] += i > 0
            counts["drop_beside"] += bool(rests[i])
        cap, errors = int(rng.integers(1, 3)), []
        for ps, ts in comps:
            verify_safety(part := _part(net, ps, ts))
            try:
                check_local_drop(part, an.ann, cluster_cap=cap)
            except BoundExceeded as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        if (i := next((i for i, e in enumerate(errors) if e), None)) is None:
            check_local_drop(net, an.ann, cluster_cap=cap)
            continue
        with pytest.raises(BoundExceeded) as got:
            check_local_drop(net, an.ann, cluster_cap=cap)
        assert str(got.value) == _beside(errors[i], rests[i])
        counts["cap"] += 1
        counts["cap_not_first"] += i > 0
        counts["cap_beside"] += bool(rests[i])
    for _ in range(30):
        pair, spec = random_join(rng, "uncarried")
        own = check_join_preservation(pair, drop_preserving_join(pair, spec, force=True), spec)
        x = _compose([random_state_machine(rng) for _ in range(rng.integers(1, 4))] + [pair])
        y = drop_preserving_join(x, spec, force=True)
        got = check_join_preservation(x, y, spec)
        if own:
            assert got
            continue
        assert got.reason == _beside(own.reason, y.net.initial_marking - pair.net.places)
        counts["join"] += 1
        counts["join_not_first"] += not flow_components(y.net)[0][0] & pair.net.places
    assert counts["drop"] == counts["drop_beside"] >= 30 and counts["drop_not_first"] >= 15
    assert counts["cap"] == counts["cap_beside"] >= 30 and counts["cap_not_first"] >= 8
    assert counts["join"] >= 20 and counts["join_not_first"] >= 10


def test_every_failing_drop_reason_carries_the_drop_lines_min_eig(tmp_path, capsys):
    """On each net of `tests/gen.py` and each composition above that fails
    the drop stage, the report's drop reason quotes the `FAIL drop`
    line's min_eig."""
    rng = np.random.default_rng(0)
    nets = [_compose(parts) for parts in COMPOSITIONS]
    nets += [random_occurrence_annotated(np.random.default_rng(s)) for s in range(20)]
    nets += [random_state_machine(np.random.default_rng(s)) for s in range(20)]
    nets += [random_join(np.random.default_rng(s))[0] for s in range(20)]
    nets += [clique_net(None, 3, weights=rng.uniform(0.2, 0.7, size=3)) for _ in range(5)]
    path, report = tmp_path / "net.json", tmp_path / "report.json"
    failing = 0
    for an in nets:
        save_net(path, an.net, an.ann)
        main(["check", str(path), "--report", str(report)])
        line = capsys.readouterr().out.splitlines()[-1]
        if line.startswith("FAIL drop"):
            min_eig = float(line.split("min_eig=")[1].rstrip(")"))
            stage = json.loads(report.read_text())["stages"][-1]
            assert stage["name"] == "drop"
            assert stage["reason"].endswith(f"(min eigenvalue {min_eig:.3e})"), stage
            failing += 1
    assert failing >= 35
