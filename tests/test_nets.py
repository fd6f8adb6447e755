import itertools
import tracemalloc

import numpy as np
import pytest

from gen import random_occurrence_annotated, random_state_machine
from qpn.demo import branching_demo
from qpn.errors import (
    BoundExceeded,
    NotAConfiguration,
    NotEnabled,
    NotReachableFrom,
    QpnError,
    SafetyViolation,
    Unreachable,
)
from qpn.nets import (
    Net,
    OccurrenceNet,
    as_occurrence_net,
    causal_heights,
    component_markings,
    configuration_of_marking,
    enabled,
    fire,
    interval,
    is_occurrence_net,
    marking_clusters,
    marking_of_configuration,
    race_free,
    to_dot,
    verify_safety,
)
from qpn.unfolding import UnfoldBudget, unfold


def simple_cycle():
    return Net({"s0", "s1"}, {"f", "b"},
               {("s0", "f"), ("f", "s1"), ("s1", "b"), ("b", "s0")},
               {"s0"}, {"f": "0", "b": "0"})


def branching_occ():
    """c0 -> a; a -> c1, c2; c1 feeds conflicting b and c."""
    return OccurrenceNet(
        {"c0", "c1", "c2", "c3", "c4"}, {"a", "b", "c"},
        {("c0", "a"), ("a", "c1"), ("a", "c2"),
         ("c1", "b"), ("b", "c3"), ("c1", "c"), ("c", "c4")},
        {"c0"}, {"a": "0", "b": "0", "c": "0"})


@pytest.mark.parametrize("places, transitions, flow, m0, polarity, message", [
    ({"p", "t"}, {"t"}, set(), set(), {"t": "0"}, "place/transition ids overlap: ['t']"),
    ({"p", "q"}, {"t"}, {("p", "t"), ("q", "p")}, set(), {"t": "0"},
     "flow arc (q, p) is not bipartite"),
    ({"p"}, {"t"}, set(), {"x"}, {"t": "0"}, "initial marking contains unknown places"),
    ({"p"}, {"t", "u"}, set(), set(), {"t": "0"}, "missing polarity for transitions: ['u']"),
    ({"p"}, {"t"}, set(), set(), {"t": "?"}, "bad polarity '?' on t"),
], ids=["overlap", "not-bipartite", "unknown-initial", "missing-polarity", "bad-polarity"])
def test_structural_errors(places, transitions, flow, m0, polarity, message):
    with pytest.raises(QpnError) as exc:
        Net(places, transitions, flow, m0, polarity)
    assert str(exc.value) == message


class TestTokenGame:
    def test_enabled_and_fire(self):
        net = simple_cycle()
        assert enabled(net, frozenset({"s0"})) == {"f"}
        assert fire(net, frozenset({"s0"}), "f") == {"s1"}

    def test_fire_disabled_raises(self):
        with pytest.raises(NotEnabled):
            fire(simple_cycle(), frozenset({"s0"}), "b")

    def test_reachable_markings_of_cycle(self):
        assert component_markings(simple_cycle()) == ({
            frozenset({"s0"}), frozenset({"s1"})},)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceeded):
            component_markings(simple_cycle(), bound=1)

    def test_bound_caps_each_component_and_an_empty_nets_one_marking(self):
        pair = Net({"a", "b", "c", "d"}, {"f", "g"},
                   {("a", "f"), ("f", "b"), ("c", "g"), ("g", "d")}, {"a", "c"},
                   {"f": "0", "g": "0"})
        assert [len(ms) for ms in component_markings(pair, bound=2)] == [2, 2]
        empty = Net(set(), set(), set(), set(), {})
        assert component_markings(empty, bound=1) == ()
        with pytest.raises(BoundExceeded):
            component_markings(empty, bound=0)

    def test_smaller_bound_after_a_kept_exploration_still_raises(self):
        net = simple_cycle()
        assert len(component_markings(net)[0]) == 2
        with pytest.raises(BoundExceeded):
            component_markings(net, bound=1)
        assert len(component_markings(net, bound=2)[0]) == 2

    def test_safety_violation_is_not_kept(self):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p", "q"}, {"t": "0"})
        for _ in range(2):
            with pytest.raises(SafetyViolation):
                component_markings(net)

    def test_unsafe_firing_detected(self):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p", "q"}, {"t": "0"})
        out = verify_safety(net)
        assert not out
        assert "second token" in out.reason

    def test_verify_safety_sets_flag(self):
        net = simple_cycle()
        assert not net.safety_verified
        assert verify_safety(net)
        assert net.safety_verified


class TestOccurrenceNetAxioms:
    def test_cyclic_flow_rejected(self):
        net = simple_cycle()
        out = is_occurrence_net(net)
        assert not out and "cyclic" in out.reason

    def test_backward_branching_rejected(self):
        net = Net({"p", "q", "r"}, {"t", "u"},
                  {("p", "t"), ("q", "u"), ("t", "r"), ("u", "r")},
                  {"p", "q"}, {"t": "0", "u": "0"})
        out = is_occurrence_net(net)
        assert not out and "backward branching" in out.reason

    def test_backward_branching_witness_is_the_least_condition(self):
        # ten faults: each condition c<i> is produced by both t<i> and u<i>
        places, pol, flow = set(), {}, set()
        for i in range(10):
            places |= {f"x{i}", f"y{i}", f"c{i}"}
            pol |= {f"t{i}": "0", f"u{i}": "0"}
            flow |= {(f"x{i}", f"t{i}"), (f"t{i}", f"c{i}"),
                     (f"y{i}", f"u{i}"), (f"u{i}", f"c{i}")}
        net = Net(places, set(pol), flow, {p for p in places if p[0] != "c"}, pol)
        out = is_occurrence_net(net)
        assert out.reason == "not an occurrence net: backward branching at condition c0"

    def test_minimal_conditions_must_be_initial(self):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")},
                  set(), {"t": "0"})
        assert not is_occurrence_net(net)

    def test_event_with_empty_pre_set_rejected(self):
        net = Net({"p", "q"}, {"t", "u"}, {("p", "t"), ("u", "q")}, {"p"},
                  {"t": "0", "u": "0"})
        out = is_occurrence_net(net)
        assert out.reason == "not an occurrence net: event with empty pre-set: ['u']"

    def test_self_conflict_rejected(self):
        # d consumes the posts of two conflicting events
        net = Net({"c0", "x", "y", "z"}, {"a", "b", "d"},
                  {("c0", "a"), ("c0", "b"), ("a", "x"), ("b", "y"),
                   ("x", "d"), ("y", "d"), ("d", "z")},
                  {"c0"}, {"a": "0", "b": "0", "d": "0"})
        out = is_occurrence_net(net)
        assert not out and "self-conflict" in out.reason

    def test_self_conflict_witness_is_the_least_node(self):
        # d and z both conflict with themselves; the witness is the least id
        net = Net({"c0", "x", "y", "z"}, {"a", "b", "d"},
                  {("c0", "a"), ("c0", "b"), ("a", "x"), ("b", "y"),
                   ("x", "d"), ("y", "d"), ("d", "z")},
                  {"c0"}, {"a": "0", "b": "0", "d": "0"})
        out = is_occurrence_net(net)
        assert out.reason == "not an occurrence net: self-conflict at d"

    def test_relations_on_branching_net(self):
        o = branching_occ()
        assert o.lt("a", "b") and o.lt("c0", "c4")
        assert not o.lt("b", "a")
        assert o.in_conflict("b", "c") and o.in_conflict("c3", "c4")
        assert not o.in_conflict("b", "c2")


class TestConfigurations:
    def test_all_configurations(self):
        o = branching_occ()
        assert o.all_configurations() == {
            frozenset(), frozenset({"a"}), frozenset({"a", "b"}),
            frozenset({"a", "c"})}

    def test_marking_cut_roundtrip(self):
        o = branching_occ()
        for x in o.all_configurations():
            m = marking_of_configuration(o, x)
            assert configuration_of_marking(o, m) == x

    def test_conflicting_set_is_not_configuration(self):
        o = branching_occ()
        with pytest.raises(NotAConfiguration):
            marking_of_configuration(o, {"a", "b", "c"})

    def test_unreachable_marking_rejected(self):
        o = branching_occ()
        with pytest.raises(Unreachable):
            configuration_of_marking(o, frozenset({"c1", "c3"}))

    def test_roundtrip_on_random_nets(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            o = random_occurrence_annotated(rng).net
            for x in o.all_configurations():
                m = marking_of_configuration(o, x)
                assert configuration_of_marking(o, m) == x


def _cone(o, e):
    """The events at or below e, by walking pre-sets back."""
    out, todo = set(), [e]
    while todo:
        f = todo.pop()
        if f not in out:
            out.add(f)
            todo += [g for c in o.pre(f) for g in o.pre(c)]
    return out


def _configuration_of_marking_by_sets(o, m):
    """The set-based reading of `configuration_of_marking`: the union of
    the cones of m's producer events, checked to be a configuration whose
    marking is m."""
    m = frozenset(m)
    if not m <= o.places:
        raise Unreachable(f"unknown places in marking {sorted(m)}")
    x = frozenset().union(*(_cone(o, e) for c in m for e in o.pre(c)))
    if not o.is_configuration(x) or marking_of_configuration(o, x) != m:
        raise Unreachable(f"marking {sorted(m)} is not reachable")
    return x


def _outcome(f, *args):
    try:
        return f(*args)
    except Unreachable as exc:
        return str(exc)


def test_configuration_of_marking_matches_the_set_based_reading():
    """On every set of conditions of a few generated occurrence nets and
    unfolded state machines, reachable or not, both readings return the
    same configuration or the same error text."""
    rng = np.random.default_rng(11)
    occ = [random_occurrence_annotated(rng).net for _ in range(40)]
    sms = [unfold(random_state_machine(rng).net, UnfoldBudget(max_depth=4)).occ
           for _ in range(6)]
    nets = [o for o in occ if 8 <= len(o.places) <= 12][:4]
    nets += [o for o in sms if 8 <= len(o.places) <= 12][:2]
    assert len(nets) == 6
    reached = 0
    for o in nets:
        places = sorted(o.places)
        for r in range(len(places) + 1):
            for m in itertools.combinations(places, r):
                got = _outcome(configuration_of_marking, o, frozenset(m))
                assert got == _outcome(_configuration_of_marking_by_sets, o, m), m
                reached += not isinstance(got, str)
        assert _outcome(configuration_of_marking, o, {"nowhere"}) == \
            "unknown places in marking ['nowhere']"
    assert reached == sum(len(o.all_configurations()) for o in nets)


class TestIntervals:
    def test_interval_contents(self):
        o = branching_occ()
        iv = interval(o, frozenset({"c0"}), frozenset({"c2", "c4"}))
        assert iv.sigma == {"a", "c"}
        assert iv.events == ("a", "c")  # a causes c

    def test_collapsed_interval(self):
        o = branching_occ()
        iv = interval(o, frozenset({"c0"}), frozenset({"c0"}))
        assert iv.sigma == frozenset()

    def test_backwards_interval_rejected(self):
        o = branching_occ()
        with pytest.raises(NotReachableFrom):
            interval(o, frozenset({"c1", "c2"}), frozenset({"c0"}))


class TestClustersAndRaces:
    def test_conflicting_pair_is_one_cluster(self):
        o = branching_occ()
        m = marking_of_configuration(o, {"a"})
        assert marking_clusters(o, m) == [frozenset({"b", "c"})]

    def test_negative_events_excluded_from_clusters(self):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p"}, {"t": "-"})
        assert marking_clusters(net, frozenset({"p"})) == []

    def test_race_detected(self):
        net = Net({"p", "x", "y"}, {"t", "u"},
                  {("p", "t"), ("p", "u"), ("t", "x"), ("u", "y")},
                  {"p"}, {"t": "-", "u": "0"})
        out = race_free(net)
        assert not out and out.data["witness"] == ("t", "u")

    def test_all_same_polarity_conflicts_are_fine(self):
        o = branching_occ()
        assert race_free(o)


def _textbook(o):
    """<, # and the configurations of an occurrence net, from the flow
    relation alone."""
    nodes = sorted(o.places | o.transitions)
    succ = {n: {b for a, b in o.flow if a == n} for n in nodes}
    above = {}
    for n in nodes:  # < is the transitive closure of the flow relation
        seen, todo = set(), list(succ[n])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(succ[m])
        above[n] = seen
    lt = {(a, b) for a in nodes for b in above[a]}
    upto = {n: {e for e in o.transitions if e == n or (e, n) in lt} for n in nodes}
    # two distinct events sharing a pre-condition conflict, and so does
    # everything above them
    rivals = {(a, b) for a in o.transitions for b in o.transitions
              if a != b and o.pre(a) & o.pre(b)}
    conflict = {(x, y) for x in nodes for y in nodes
                if any(a in upto[x] and b in upto[y] for a, b in rivals)}
    # configurations: down-closed, conflict-free sets of events, built by
    # deciding each event in a causal order
    order = sorted(o.transitions, key=lambda e: len(upto[e]))
    configs = set()

    def grow(i, x):
        if i == len(order):
            configs.add(frozenset(x))
            return
        e = order[i]
        grow(i + 1, x)
        if upto[e] - {e} <= x and not any((e, f) in conflict for f in x):
            grow(i + 1, x | {e})

    grow(0, frozenset())
    return nodes, lt, conflict, configs


def _ring():
    """Three places in a ring; the first has a binary choice."""
    arcs = {"ra": ("r0", "r1"), "rb": ("r0", "r1"), "rc": ("r1", "r2"),
            "rd": ("r2", "r0")}
    net = Net({"r0", "r1", "r2"}, set(arcs),
              {arc for t, (a, b) in arcs.items() for arc in ((a, t), (t, b))},
              {"r0"}, {t: "0" for t in arcs})
    verify_safety(net)
    return net


def _relation_cases():
    cases = {f"occ{s}": random_occurrence_annotated(np.random.default_rng(s)).net
             for s in range(30)}
    for s in range(10):
        net = random_state_machine(np.random.default_rng(s)).net
        cases[f"sm{s}"] = unfold(net, UnfoldBudget(4)).occ
    bd = branching_demo()
    verify_safety(bd.net)
    cases["demo"] = as_occurrence_net(bd.net)
    cases["demo-unfolded"] = unfold(bd.net).occ
    cases["branching"] = branching_occ()
    cases["ring"] = unfold(_ring(), UnfoldBudget(7)).occ
    return cases


CASES = _relation_cases()


class TestRelationsMatchTheirDefinitions:
    @pytest.mark.parametrize("o", CASES.values(), ids=CASES.keys())
    def test_every_query(self, o):
        nodes, lt, conflict, configs = _textbook(o)
        for a, b in itertools.product(nodes, nodes):
            assert o.lt(a, b) == ((a, b) in lt), (a, b)
            assert o.in_conflict(a, b) == ((a, b) in conflict), (a, b)
        assert o.all_configurations() == configs
        events = sorted(o.transitions)
        subsets = (itertools.chain.from_iterable(
            itertools.combinations(events, k) for k in range(len(events) + 1))
            if len(events) <= 10 else configs | {x | {e} for x in configs for e in events})
        for x in subsets:
            assert o.is_configuration(x) == (frozenset(x) in configs), x
        assert not o.is_configuration(o.places)

    @pytest.mark.parametrize("o", CASES.values(), ids=CASES.keys())
    def test_causal_heights_match_the_longest_chain(self, o):
        def recursion(s):
            height = {}

            def h(e):
                if e not in height:
                    height[e] = 1 + max((h(f) for f in s if f != e and o.lt(f, e)),
                                        default=0)
                return height[e]

            for e in s:
                h(e)
            return height

        configs = sorted(o.all_configurations(), key=sorted)[:150]
        for x, y in itertools.product(configs, configs):
            if x <= y:
                height = recursion(y - x)
                assert causal_heights(o, y - x) == height, (x, y)
                iv = interval(o, marking_of_configuration(o, x),
                              marking_of_configuration(o, y))
                assert iv.events == tuple(sorted(y - x, key=lambda e: (height[e], e)))

    def test_deep_ring_unfolds_in_little_memory(self):
        net = _ring()
        tracemalloc.start()
        try:
            bp = unfold(net, UnfoldBudget(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bp.occ.transitions) == 634
        assert peak < 16 * 2**20  # a conflict set of node pairs took 22 MiB at depth 16


def test_dot_export_mentions_every_node():
    o = branching_occ()
    dot = to_dot(o)
    for node in o.places | o.transitions:
        assert f'"{node}"' in dot
