"""Flow components: `verify_safety`, `check_local_drop` and
`check_join_preservation` work on each flow-connected component of a net,
and every result equals the one computed on the product of the
components' markings."""

import itertools
import types

import numpy as np
import pytest

from gen import clique_net, joinable_net, random_occurrence_annotated, random_state_machine
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
    least_witness,
    marking_clusters,
    reachable_markings,
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


def product_markings(net):
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


def product_drop(net, ann, cluster_cap=12, tol=1e-9):
    """The drop check on the product: every cluster at every reachable
    marking of the whole net, each family by `single_extension_drop` on
    its pre-places; the instances in key order and the report's stats.
    Each distinct cluster's families are solved once, and no queue of the
    local check fills in these nets: one kernel call per drop dimension."""
    instances, clusters, cliques, evaluated, dims = [], 0, 0, {}, set()
    for m in sorted(reachable_markings(net), key=sorted):
        for cluster in marking_clusters(net, m):
            cl = tuple(sorted(cluster))
            if len(cl) > cluster_cap:
                raise BoundExceeded(f"cluster of {len(cl)} events at marking {sorted(m)} "
                                    f"exceeds cap {cluster_cap}")
            clusters += 1
            clique = len(cl) > 1 and is_clique(net, cl)
            cliques += clique
            fams = [cl] if clique else [
                fam for r in range(1, len(cl) + 1) for fam in itertools.combinations(cl, r)]
            evaluated[cl] = len(fams)
            for fam in fams:
                drop = single_extension_drop(
                    net, ann, frozenset().union(*map(net.pre, fam)), fam)
                dims.add(len(drop))
                lo = min_eigenvalue(drop)
                instances.append(DropInstanceResult(
                    (tuple(sorted(m)), fam), "clique" if clique else "single", lo, lo >= -tol))
    instances.sort(key=lambda r: r.key)
    stats = {"markings": len(reachable_markings(net)), "clusters": clusters,
             "clusters_evaluated": len(evaluated), "clique_fast_paths": cliques,
             "eigen_solves": sum(evaluated.values()), "eigen_calls": len(dims)}
    return instances, stats


def _idle_parts():
    """An isolated transition (empty pre- and post-set, effect 0.4), and
    an isolated place, marked and not."""
    net = Net({"iso", "idle"}, {"t0"}, set(), {"iso"}, {"t0": "0"})
    ann = LocalAnnotation({"iso": 2, "idle": 3}, {"t0": Channel.identity(1).scaled(0.4)})
    verify_safety(net)
    return AnnotatedNet(net, ann)


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
                         np.random.default_rng(2), max_dim=2)]]
    return compositions


COMPOSITIONS = _part_pool()


@pytest.mark.parametrize("parts", COMPOSITIONS, ids=range(len(COMPOSITIONS)))
def test_component_drop_equals_the_product_check(parts):
    an = _compose(parts)
    net = _fresh(an.net)
    assert verify_safety(net).data["markings"] == len(product_markings(net))
    assert reachable_markings(net) == product_markings(net)
    assert len(flow_components(net)) >= len(parts)
    want, stats = product_drop(net, an.ann)
    report = check_local_drop(net, an.ann)
    assert [(r.key, r.method, r.passed, r.min_eig) for r in report.instances] == \
        [(r.key, r.method, r.passed, r.min_eig) for r in want]
    assert report.stats == stats
    assert report.instance_count() == len(want)
    assert report.worst == min((r.min_eig for r in want), default=float("inf"))
    assert report.passed == all(r.passed for r in want)
    failures = [r for r in want if not r.passed]
    assert [r for r in report.instances if not r.passed] == failures
    assert check_local_drop(net, an.ann).first_failure() == (failures[0] if failures else None)


def test_some_compositions_fail_and_some_pass():
    verdicts = {bool(check_local_drop(an.net, an.ann))
                for an in map(_compose, COMPOSITIONS) if verify_safety(an.net)}
    assert verdicts == {True, False}


def test_cluster_cap_error_names_the_product_marking():
    an = _compose([two_phase_cycle(), clique_net(None, 3)])
    with pytest.raises(BoundExceeded) as want:
        product_drop(an.net, an.ann, cluster_cap=2)
    with pytest.raises(BoundExceeded) as got:
        check_local_drop(an.net, an.ann, cluster_cap=2)
    assert str(got.value) == str(want.value)
    assert "'hub'" in str(got.value) and "'s0'" in str(got.value)


def product_witness(parts, bad):
    """`least_witness` by walking the product: the least sorted union of
    one marking per part with a bad one among them, the least bad value
    there."""
    best = None
    for combo in itertools.product(*parts):
        values = [b[m] for b, m in zip(bad, combo) if m in b]
        union = tuple(sorted(itertools.chain.from_iterable(combo)))
        if values and (best is None or union < best[0]):
            best = union, min(values)
    return best


def _random_parts(rng):
    """1-5 parts over a shuffled alphabet, each with 1-6 markings (the
    empty one among them at times) of which some are bad."""
    k = int(rng.integers(1, 6))
    owner = rng.integers(0, k, size=10)
    parts, bad = [], []
    for j in range(k):
        own = [chr(97 + i) for i in range(10) if owner[i] == j]
        ms = {tuple(p for p in own if rng.random() < 0.5) for _ in range(rng.integers(1, 7))}
        parts.append(sorted(ms, key=lambda m: rng.random()))
        bad.append({m: int(rng.integers(0, 5)) for m in ms if rng.random() < 0.3})
    return parts, bad


def test_least_witness_equals_the_product_walk():
    rng = np.random.default_rng(23)
    witnessed = empty = not_least = 0
    for _ in range(400):
        parts, bad = _random_parts(rng)
        got = least_witness(parts, bad)
        assert got == product_witness(parts, bad)
        if got is None:
            continue
        witnessed += 1
        empty += any(() in ms for ms in parts)
        chosen = [tuple(p for p in got[0] if any(p in m for m in ms)) for ms in parts]
        not_least += any(b and min(b) != m for b, m in zip(bad, chosen))
    assert witnessed >= 300 and empty >= 150 and not_least >= 150


def test_least_witness_is_not_each_parts_least_marking():
    """(a) < (a, c), yet beside (d) they give (a, d) > (a, c, d)."""
    parts = [[("a",), ("a", "c")], [("d",)]]
    assert least_witness(parts, [{("a",): 1, ("a", "c"): 2}, {}]) == (("a", "c", "d"), 2)
    assert least_witness(parts, [{}, {}]) is None


@pytest.fixture
def no_product(monkeypatch):
    """Walking the product of the components' markings raises."""
    def walk(*_):
        raise AssertionError("the product was walked")

    no_product = types.SimpleNamespace(**vars(itertools) | {"product": walk})
    for module in (checker, compose, nets):
        monkeypatch.setattr(module, "itertools", no_product)
    monkeypatch.setattr(nets, "reachable_markings", walk)


@pytest.mark.parametrize("parts, cap, reason, error", [
    ([clique_net(None, 3), branching_demo(scaled=False),
      random_state_machine(np.random.default_rng(2), max_dim=2)], 2,
     "drop: condition fails at marking ['g0p0', 'g1p0', 'hub', 'p1', 'p2'] on ['b', 'c'] "
     "(min eigenvalue -1.000e+00)",
     "cluster of 3 events at marking ['g0p0', 'g1p0', 'hub', 'p0'] exceeds cap 2"),
    ([branching_demo(scaled=False), two_phase_cycle(),
      clique_net(None, 2, weights=[0.7, 0.6])], 1,
     "drop: condition fails at marking ['hub', 'p0', 's0'] on ['k0', 'k1'] "
     "(min eigenvalue -3.000e-01)",
     "cluster of 2 events at marking ['hub', 'p0', 's0'] exceeds cap 1"),
], ids=["clique-demo-machine", "demo-cycle-clique"])
def test_witnesses_never_walk_the_product(no_product, parts, cap, reason, error):
    """A failing verdict and a cluster over the cap on a composite name
    the marking that walking the product names, with no product walked."""
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
    assert component_markings(bd.net) == (reachable_markings(bd.net),)


def _counting_fire(monkeypatch):
    firings = []

    def counting(net, m, t):
        firings.append(t)
        return fire(net, m, t)

    monkeypatch.setattr("qpn.nets.fire", counting)
    return firings


def test_product_past_the_bound_exits_three_from_the_components(tmp_path, capsys,
                                                                 monkeypatch):
    parts = [clique_net(None, 3), clique_net(None, 3), clique_net(None, 2)]
    an = _compose(parts)  # 4 * 4 * 3 = 48 markings, at most 4 per part
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    firings = _counting_fire(monkeypatch)
    for part in parts:
        assert len(reachable_markings(_fresh(part.net))) <= 4
    own = len(firings)
    firings.clear()
    assert main(["check", str(path), "--marking-bound", "20"]) == 3
    assert capsys.readouterr().out == "FAIL safety: more than 20 reachable markings\n"
    assert 0 < len(firings) <= own
    with pytest.raises(BoundExceeded, match="^more than 20 reachable markings$"):
        reachable_markings(_fresh(an.net), 20)


def test_unsafe_part_keeps_the_products_safety_text(tmp_path, capsys):
    unsafe = Net({"a", "b"}, {"t"}, {("a", "t"), ("t", "b")}, {"a", "b"}, {"t": "0"})
    ann = LocalAnnotation({"a": 1, "b": 1}, {"t": Channel.identity(1)})
    an = _compose([AnnotatedNet(unsafe, ann), clique_net(None, 3)])
    path = tmp_path / "net.json"
    save_net(path, an.net, an.ann)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL safety: firing t at ['a', 'b', 'hub'] puts a second token on ['b']\n")
