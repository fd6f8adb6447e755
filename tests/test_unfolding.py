import gc
import itertools
import math

import numpy as np
import pytest

import gen
from gen import (
    clique_net,
    joinable_net,
    load_perfbench,
    racy_net,
    random_occurrence_annotated,
    product_markings,
    random_state_machine,
)
from qpn.annotation import validate_signatures
from qpn.checker import is_local_qon, is_qpn
from qpn.compose import parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import QpnError, SafetyUnverified
from qpn.netfile import load_net
from qpn.nets import (
    Net,
    OccurrenceNet,
    as_occurrence_net,
    causal_heights,
    enabled,
    marking_of_configuration,
    verify_safety,
)
from qpn.unfolding import (
    BranchingProcess,
    UnfoldBudget,
    cluster_bijection_check,
    transfer_annotation,
    unfold,
    verify_branching_process,
)


class TestUnfold:
    def test_requires_verified_net(self):
        bd = branching_demo()
        fresh = Net(bd.net.places, bd.net.transitions, bd.net.flow,
                    bd.net.initial_marking, bd.net.polarity)
        with pytest.raises(SafetyUnverified):
            unfold(fresh)

    def test_occurrence_net_unfolds_to_itself(self):
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        assert len(bp.occ.transitions) == len(bd.net.transitions)
        assert len(bp.occ.places) == len(bd.net.places)
        assert bp.stopped_at is None
        assert sorted(bp.label_event.values()) == sorted(bd.net.transitions)
        assert verify_branching_process(bp, bd.net)

    def test_cycle_grows_with_depth(self):
        tc = two_phase_cycle()
        sizes = [len(unfold(tc.net, UnfoldBudget(d, 1000)).occ.transitions)
                 for d in (1, 2, 3, 4)]
        assert sizes == [1, 2, 3, 4]
        assert [unfold(tc.net, UnfoldBudget(d, 1000)).stopped_at
                for d in (1, 2, 3, 4)] == [2, 3, 4, 5]

    def test_deterministic_ids(self):
        sm = random_state_machine(np.random.default_rng(2))
        b1 = unfold(sm.net, UnfoldBudget(3, 500))
        b2 = unfold(sm.net, UnfoldBudget(3, 500))
        assert b1.occ.places == b2.occ.places
        assert b1.occ.transitions == b2.occ.transitions
        assert b1.occ.flow == b2.occ.flow

    def test_prefix_monotonicity(self):
        """The depth-d prefix is an induced sub-net of the depth-(d+1) one,
        with literally identical ids."""
        rng = np.random.default_rng(8)
        for _ in range(5):
            sm = random_state_machine(rng)
            prev = unfold(sm.net, UnfoldBudget(2, 500))
            nxt = unfold(sm.net, UnfoldBudget(3, 500))
            assert prev.occ.transitions <= nxt.occ.transitions
            assert prev.occ.places <= nxt.occ.places
            for e in prev.occ.transitions:
                assert prev.occ.pre(e) == nxt.occ.pre(e)
                assert prev.occ.post(e) == nxt.occ.post(e)

    def test_event_budget_cuts_off(self):
        tc = two_phase_cycle()
        bp = unfold(tc.net, UnfoldBudget(50, 3))
        assert len(bp.occ.transitions) == 3
        assert bp.stopped_at == 4

    def test_transition_without_pre_places_is_refused(self):
        """Its events would have no causes: unfolding names the least such
        transition before building anything."""
        net = Net({"p", "q"}, {"a", "t", "s"}, {("p", "a"), ("a", "q")}, {"p"},
                  dict.fromkeys("ats", "0"))
        assert verify_safety(net)
        with pytest.raises(QpnError) as exc:
            unfold(net)
        assert str(exc.value) == "cannot unfold: transition s has an empty pre-set"


def _ring(n: int) -> Net:
    """n places in a ring, with a choice of two transitions out of r0."""
    arcs = {f"t{i}": (f"r{i}", f"r{(i + 1) % n}") for i in range(n)} | {"b": ("r0", "r1")}
    net = Net({f"r{i}" for i in range(n)}, set(arcs),
              {(a, t) for t, (a, _) in arcs.items()} | {(t, b) for t, (_, b) in arcs.items()},
              {"r0"}, {t: "0" for t in arcs})
    verify_safety(net)
    return net


def _forks() -> Net:
    """Two rival forks of a into b and c, and a join of b and c back into
    a: a join's pick can meet a rival fork's condition, or one consumed
    below the other."""
    net = Net({"a", "b", "c"}, {"f", "g", "j"},
              {("a", "f"), ("a", "g"), ("f", "b"), ("f", "c"), ("g", "b"), ("g", "c"),
               ("b", "j"), ("c", "j"), ("j", "a")}, {"a"}, dict.fromkeys("fgj", "0"))
    verify_safety(net)
    return net


def _pair(rng) -> Net:
    return parallel(random_state_machine(rng), random_state_machine(rng))[0].net


def _oracle_nets():
    """(name, net, depth): library nets, rival forks under a join,
    products of state machines, and rings at depths below and above their
    length."""
    rng = np.random.default_rng(21)
    for i in range(6):
        yield f"sm{i}", random_state_machine(rng).net, 4
    for i in range(6):
        yield f"occ{i}", random_occurrence_annotated(rng).net, 8
    yield "clique", clique_net(rng, 3).net, 3
    yield "joinable", joinable_net(rng, True, True).net, 3
    yield "racy", racy_net().net, 3
    yield "demo", branching_demo().net, 5
    yield "cycle", two_phase_cycle().net, 5
    yield "forks", _forks(), 7
    for i in range(4):
        yield f"pair{i}", _pair(rng), 3
    for n in (5, 6, 7, 8):
        for depth in (n - 2, n + 2):
            yield f"ring{n}", _ring(n), depth


class TestOracle:
    """The prefix against the token game of the net, not another unfolding."""

    @pytest.mark.parametrize("net, depth", [pytest.param(net, d, id=f"{name}-d{d}")
                                            for name, net, d in _oracle_nets()])
    def test_configurations_match_the_token_game(self, net, depth):
        """At every configuration whose events all lie below the depth
        budget, the labels of its marking form a reachable marking of the
        net, and each transition enabled there has exactly one event on
        conditions of that marking."""
        bp = unfold(net, UnfoldBudget(depth))
        o = bp.occ
        height = causal_heights(o, o.transitions)
        reachable = product_markings(net)
        checked = 0
        for x in o.all_configurations():
            if max((height[e] for e in x), default=0) >= depth:
                continue
            mb = marking_of_configuration(o, x)
            m = frozenset(bp.label_place[c] for c in mb)
            assert len(m) == len(mb) and m in reachable
            on_m = sorted(bp.label_event[e] for e in o.transitions if o.pre(e) <= mb)
            assert on_m == sorted(enabled(net, m))
            checked += 1
        assert checked >= 1

    def test_event_budget_takes_events_in_height_label_preset_order(self):
        """max_events=k keeps the first k events of the uncut prefix in
        (height, label, pre-condition ids) order."""
        net = _pair(np.random.default_rng(4))
        full = unfold(net, UnfoldBudget(4))
        o = full.occ
        height = causal_heights(o, o.transitions)
        order = sorted(o.transitions,
                       key=lambda e: (height[e], full.label_event[e], sorted(o.pre(e))))
        assert len(order) > 5
        for k in range(len(order) + 1):
            cut = unfold(net, UnfoldBudget(4, k))
            assert cut.occ.transitions == set(order[:k])
            assert cut.stopped_at == (height[order[k]] if k < len(order)
                                      else full.stopped_at)


def _from_scratch(o: OccurrenceNet) -> OccurrenceNet:
    """The occurrence net built afresh from the places, transitions and
    flow of ``o``: pre- and post-sets derived, nodes sorted topologically."""
    return OccurrenceNet(set(o.places), set(o.transitions), set(o.flow),
                         set(o.initial_marking), dict(o.polarity))


def _assert_same_occurrence_net(o: OccurrenceNet, ref: OccurrenceNet):
    """Same nodes, pre- and post-sets, causality, conflict and initial
    marking, every relation read through the queries over all node pairs."""
    assert (o.places, o.transitions, o.flow) == (ref.places, ref.transitions, ref.flow)
    assert o.initial_marking == ref.initial_marking
    nodes = sorted(ref.places | ref.transitions)
    assert [(o.pre(n), o.post(n)) for n in nodes] == [(ref.pre(n), ref.post(n))
                                                      for n in nodes]
    for relation in ("lt", "in_conflict"):
        pairs = [{(a, b) for a in nodes for b in nodes if getattr(net, relation)(a, b)}
                 for net in (o, ref)]
        assert pairs[0] == pairs[1], relation


def _handover_nets():
    """(name, net, depth): TestOracle's nets, the benchmark's ring (three
    places, a binary choice) at depths 12 to 15 and state-machine pairs."""
    yield from _oracle_nets()
    for depth in (12, 13, 14, 15):
        yield "ring3", _ring(3), depth
    rng = np.random.default_rng(23)
    for i in range(4):
        yield f"pair{i}", _pair(rng), 6


class TestHandover:
    """The unfolder hands the occurrence net its pre- and post-sets and its
    creation order; the result is the net built from the flow alone."""

    @pytest.mark.parametrize("net, depth", [pytest.param(net, d, id=f"{name}-d{d}")
                                            for name, net, d in _handover_nets()])
    def test_handed_net_is_the_net_built_from_scratch(self, net, depth):
        o = unfold(net, UnfoldBudget(depth)).occ
        _assert_same_occurrence_net(o, _from_scratch(o))

    def test_handed_order_is_kept(self, monkeypatch):
        def unused(self):
            raise AssertionError("sorted the nodes afresh")

        monkeypatch.setattr(OccurrenceNet, "_topological_order", unused)
        o = unfold(_ring(3), UnfoldBudget(6)).occ
        assert o._order[0] == "r0." and len(o._order) == len(o.places | o.transitions)

    def test_an_order_that_is_not_topological_falls_back(self, monkeypatch):
        o = unfold(_pair(np.random.default_rng(5)), UnfoldBudget(4)).occ
        ref = _from_scratch(o)
        order = list(o._order)
        e = min(o.transitions, key=order.index)  # the first event: its causes precede it
        bad = {"reversed": order[::-1], "short": order[:-1], "repeated": order + order[:1],
               "stranger": order[:-1] + ["ghost"],
               "event-first": [e] + [n for n in order if n != e]}
        sorts = []
        sort = OccurrenceNet._topological_order
        monkeypatch.setattr(OccurrenceNet, "_topological_order",
                            lambda self: sorts.append(1) or sort(self))
        for name, proposed in bad.items():
            got = OccurrenceNet(o.places, o.transitions, o.flow, o.initial_marking,
                                o.polarity, _adjacency=(o._pre, o._post), _order=proposed)
            _assert_same_occurrence_net(got, ref)
            assert len(sorts) == 1, name
            sorts.clear()

    @pytest.mark.parametrize("adjacency", [False, True])
    def test_a_cyclic_flow_fails_whatever_the_order(self, adjacency):
        net = Net({"p", "q"}, {"t", "u"}, {("p", "t"), ("t", "q"), ("q", "u"), ("u", "p")},
                  {"p"}, {"t": "0", "u": "0"})
        for order in (None, ["p", "t", "q", "u"], ["q", "u", "p", "t"]):
            with pytest.raises(QpnError) as exc:
                OccurrenceNet(net.places, net.transitions, net.flow, net.initial_marking,
                              net.polarity, _order=order,
                              _adjacency=(net._pre, net._post) if adjacency else None)
            assert str(exc.value) == "not an occurrence net: flow relation is cyclic"


def _reference_unfold(net: Net, budget: UnfoldBudget):
    """(label_place, label_event, flow, stopped_at) of the prefix, by
    definition and without masks.  At height h every tuple of conditions
    on t's sorted pre-places is tried; it is kept when its highest
    condition has height h - 1 and its conditions are pairwise concurrent:
    neither below the other, and no two distinct events at or below them
    share a pre-condition.  The kept ones are added in (label, pre-set)
    order up to the event budget; the first height that does not fit is
    where the budget stopped."""
    label_place = {f"{p}.": p for p in net.initial_marking}
    label_event, flow, pre = {}, set(), {}
    height = dict.fromkeys(label_place, 0)
    below = {c: frozenset() for c in label_place}  # node -> nodes strictly below it

    def concurrent(a, b):
        if a in below[b] or b in below[a]:
            return False
        events_a, events_b = (below[x] & label_event.keys() for x in (a, b))
        return not any(x != y and pre[x] & pre[y] for x in events_a for y in events_b)

    for h in itertools.count(1):
        found = []
        for t in sorted(net.transitions):
            pools = [[c for c, p in label_place.items() if p == q] for q in sorted(net.pre(t))]
            for pick in itertools.product(*pools):
                if max(height[c] for c in pick) == h - 1 and all(
                        concurrent(a, b) for a, b in itertools.combinations(pick, 2)):
                    found.append((t, tuple(sorted(pick))))
        room = budget.max_events - len(label_event) if h <= budget.max_depth else 0
        stopped = len(found) > room
        for t, cs in sorted(found)[:room]:
            e = f"{t}[{'|'.join(cs)}]"
            label_event[e], pre[e], height[e] = t, set(cs), h
            below[e] = frozenset(cs).union(*(below[c] for c in cs))
            flow |= {(c, e) for c in cs}
            for j, p in enumerate(sorted(net.post(t))):
                c = f"{e}>{p}.{j}"
                label_place[c], height[c], below[c] = p, h, below[e] | {e}
                flow.add((e, c))
        if stopped or not found:
            return label_place, label_event, flow, h if stopped else None


class TestReference:
    """The mask unfolder against the prefix built by definition."""

    @pytest.mark.parametrize("net, depth", [pytest.param(net, d, id=f"{name}-d{d}")
                                            for name, net, d in _handover_nets()])
    def test_unfold_is_the_prefix_by_definition(self, net, depth):
        events = len(unfold(net, UnfoldBudget(depth)).label_event)
        for cut in sorted({0, 1, 2, events // 2, max(events - 1, 0), events, 10_000}):
            budget = UnfoldBudget(depth, cut)
            bp = unfold(net, budget)
            label_place, label_event, flow, stopped_at = _reference_unfold(net, budget)
            assert (bp.occ.places, bp.occ.transitions) == (label_place.keys(),
                                                           label_event.keys()), cut
            assert (bp.label_place, bp.label_event) == (label_place, label_event), cut
            assert (bp.occ.flow, bp.stopped_at) == (flow, stopped_at), cut

    def test_unfold_leaves_no_reference_cycle(self):
        """What an unfold call drops is freed by reference counting: the
        cyclic collector finds nothing."""
        nets = [(net, d) for _, net, d in _handover_nets()]
        gc.collect()
        gc.disable()
        try:
            for net, depth in nets:
                unfold(net, UnfoldBudget(depth))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerifyBranchingProcess:
    def test_duplicate_events_fail_clause_four(self):
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        # forge a duplicate: two events with the same label and pre-set
        o = bp.occ
        e_old = next(iter(o.transitions))
        dup = "forged"
        net2 = Net(o.places | {"forged_out"}, o.transitions | {dup},
                   o.flow | {(c, dup) for c in o.pre(e_old)}
                   | {(dup, "forged_out")},
                   o.initial_marking,
                   dict(o.polarity) | {dup: o.pol(e_old)})
        forged = BranchingProcess(
            as_occurrence_net(net2),
            dict(bp.label_place) | {"forged_out": bp.label_place[
                next(iter(o.post(e_old)))]},
            dict(bp.label_event) | {dup: bp.label_event[e_old]},
            bp.stopped_at)
        out = verify_branching_process(forged, bd.net)
        assert not out

    def test_wrong_minimal_conditions_fail_clause_three(self):
        # a second minimal condition labeled p0 that no event consumes:
        # clauses 1 and 2 hold, but p0 is the image of two minimal conditions
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        o = bp.occ
        net = Net(o.places | {"p0.2"}, o.transitions, o.flow,
                  o.initial_marking | {"p0.2"}, o.polarity)
        forged = BranchingProcess(as_occurrence_net(net),
                                  dict(bp.label_place) | {"p0.2": "p0"},
                                  bp.label_event, bp.stopped_at)
        out = verify_branching_process(forged, bd.net)
        assert not out
        assert out.reason == "minimal conditions map to ['p0', 'p0'], expected ['p0']"

    @pytest.mark.parametrize("corrupt, reason", [
        ("conditions", "condition g0p0. not labeled by a place"),
        ("events", "event t0[g0p0.] changes polarity of t3"),
    ])
    def test_clause_one_names_the_least_offender(self, corrupt, reason):
        # every condition, or every event, of a 19-condition, 18-event
        # prefix is mislabeled; the least one is named, whatever the
        # iteration order of the node sets
        sm = random_state_machine(np.random.default_rng(1))
        bp = unfold(sm.net, UnfoldBudget(6, 500))
        places, events = dict(bp.label_place), dict(bp.label_event)
        if corrupt == "conditions":
            places = dict.fromkeys(places, "p9")
        else:
            events = dict.fromkeys(events, "zz") | {"t0[g0p0.]": "t3"}  # t3 is negative
        out = verify_branching_process(
            BranchingProcess(bp.occ, places, events, bp.stopped_at), sm.net)
        assert out.reason == reason

    @pytest.mark.parametrize("corrupt, reason", [
        ("cyclic", "underlying net: not an occurrence net: flow relation is cyclic"),
        ("condition-label", "condition a[p0.]>p2.1 not labeled by a place"),
        ("event-label", "event c[a[p0.]>p1.0] not labeled by a transition"),
        ("polarity", "event b[a[p0.]>p1.0] changes polarity of b"),
        ("pre-set", "pre-set of a[p0.] maps to ['p1'], expected ['p0']"),
        ("post-set", "post-set of b[a[p0.]>p1.0] maps to ['p4'], expected ['p3']"),
        ("minimal", "minimal conditions map to ['p0', 'p3'], expected ['p0']"),
        ("duplicate", "b[a[p0.]>p1.0] and b[a[p0.]>p1.0]2 duplicate b on the same pre-set"),
    ])
    def test_each_clause_names_its_failure(self, corrupt, reason):
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        o, places, events = bp.occ, dict(bp.label_place), dict(bp.label_event)
        parts = [o.places, o.transitions, o.flow, o.initial_marking, dict(o.polarity)]
        b, c = "b[a[p0.]>p1.0]", "c[a[p0.]>p1.0]"
        if corrupt == "cyclic":
            parts[2] = o.flow | {(f"{b}>p4.0", "a[p0.]")}
        elif corrupt == "condition-label":
            places["a[p0.]>p2.1"] = "p9"
        elif corrupt == "event-label":
            events[c] = "p3"
        elif corrupt == "polarity":
            parts[4][b] = "+"
        elif corrupt == "pre-set":
            places["p0."] = "p1"
        elif corrupt == "post-set":
            events[b], events[c] = "c", "b"
            parts[4][b], parts[4][c] = "+", "0"
        elif corrupt == "minimal":
            parts[0] = o.places | {"p3."}
            parts[3] = o.initial_marking | {"p3."}
            places["p3."] = "p3"
        elif corrupt == "duplicate":
            dup = f"{b}2"
            parts[0] = o.places | {f"{dup}>p4.0"}
            parts[1] = o.transitions | {dup}
            parts[2] = o.flow | {("a[p0.]>p1.0", dup), (dup, f"{dup}>p4.0")}
            parts[4][dup] = "0"
            places[f"{dup}>p4.0"], events[dup] = "p4", "b"
        net = Net(*parts)
        occ = net if corrupt == "cyclic" else as_occurrence_net(net)
        out = verify_branching_process(
            BranchingProcess(occ, places, events, bp.stopped_at), bd.net)
        assert not out and out.reason == reason

    def test_unfold_outputs_verify_on_random_nets(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sm = random_state_machine(rng)
            bp = unfold(sm.net, UnfoldBudget(3, 500))
            assert verify_branching_process(bp, sm.net)


class TestTransfer:
    def test_same_label_same_channel(self):
        tc = two_phase_cycle()
        bp = unfold(tc.net, UnfoldBudget(4, 100))
        ann = transfer_annotation(bp, tc.ann)
        for e in bp.occ.transitions:
            assert ann.channel(e) is tc.ann.channel(bp.label_event[e])
        assert validate_signatures(bp.occ, ann)

    def test_signatures_transfer_on_random_nets(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            sm = random_state_machine(rng)
            bp = unfold(sm.net, UnfoldBudget(3, 500))
            assert validate_signatures(bp.occ, transfer_annotation(bp, sm.ann))


class TestClusterBijection:
    def test_demo_cluster_appears_in_both_views(self):
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        assert cluster_bijection_check(bd.net, bp)

    def test_the_outcome_counts_what_it_skipped(self):
        """A cycle unfolded to depth 3 is a chain of three events: the
        configuration holding all three reaches the budget, so its frontier
        may be truncated and it is skipped, and the outcome says so."""
        tc = two_phase_cycle()
        bp = unfold(tc.net, UnfoldBudget(3, 100))
        assert cluster_bijection_check(tc.net, bp).data == {"checked": 3, "skipped": 1}
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        assert cluster_bijection_check(bd.net, bp).data == {"checked": 4, "skipped": 0}

    def test_a_prefix_missing_a_branch_fails(self):
        # drop c and its post-condition: the prefix is still an occurrence
        # net, but at [p1, p2] the net's cluster {b, c} is only {b} in it
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(8, 100))
        o, c = bp.occ, "c[a[p0.]>p1.0]"
        gone = {c, f"{c}>p3.0"}
        pruned = Net(o.places - gone, o.transitions - gone,
                     {(a, b) for a, b in o.flow if a not in gone and b not in gone},
                     o.initial_marking, {e: o.pol(e) for e in o.transitions - gone})
        bp2 = BranchingProcess(as_occurrence_net(pruned), bp.label_place,
                               bp.label_event, bp.stopped_at)
        out = cluster_bijection_check(bd.net, bp2)
        assert out.reason == ("clusters differ at marking ['p1', 'p2']: "
                              "net [['b', 'c']] vs unfolding [['b']]")

    def test_on_random_nets(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sm = random_state_machine(rng)
            bp = unfold(sm.net, UnfoldBudget(3, 500))
            assert cluster_bijection_check(sm.net, bp)

    @pytest.mark.parametrize("make, cut, counts", [
        (two_phase_cycle, 0, (0, 1)), (two_phase_cycle, 1, (1, 1)),
        (two_phase_cycle, 2, (2, 1)), (two_phase_cycle, 3, (3, 1)),
        (branching_demo, 1, (1, 1)), (branching_demo, 2, (1, 2)),
    ])
    def test_a_prefix_the_event_budget_stopped_passes(self, make, cut, counts):
        """The event budget leaves height ``stopped_at`` partly unadded:
        configurations whose extensions reach it are skipped, not read as
        a missing cluster."""
        net = make().net
        out = cluster_bijection_check(net, unfold(net, UnfoldBudget(4, cut)))
        assert out, out.reason
        assert out.data == dict(zip(("checked", "skipped"), counts))

    def test_a_prefix_nothing_stopped_is_checked_whole(self):
        """The demo is two heights deep: its depth-2 prefix is complete,
        so the configurations of height 2 are checked too."""
        bd = branching_demo()
        bp = unfold(bd.net, UnfoldBudget(2))
        assert bp.stopped_at is None
        assert cluster_bijection_check(bd.net, bp).data == {"checked": 4, "skipped": 0}

    @pytest.mark.parametrize("net, depth", [pytest.param(net, d, id=f"{name}-d{d}")
                                            for name, net, d in _oracle_nets()])
    def test_every_event_cut_passes(self, net, depth):
        _assert_every_event_cut_passes(net, depth)

    def test_every_event_cut_of_the_benchmark_nets_passes(self, tmp_path):
        wl = load_perfbench("workloads")
        ops = wl.build_unfold(gen, 0, str(tmp_path)).ops
        depths = wl.UNFOLD_RINGS + [d for *_, d in wl.UNFOLD_PAIRS]
        assert len(depths) == len(ops)
        for slot, depth in enumerate(depths):
            net = load_net(tmp_path / f"unfold{slot}.json")[0]
            verify_safety(net)
            _assert_every_event_cut_passes(net, depth)


def _assert_every_event_cut_passes(net: Net, depth: int):
    """The uncut prefix at ``depth`` passes the cluster check, skipping
    the configurations of height ``depth`` only if the depth budget
    stopped it; at event cuts 0, 1, half, all but one, all and 10 000 the
    prefix stops where the reference stops and passes too."""
    full = unfold(net, UnfoldBudget(depth))
    o = full.occ
    tops = [max(causal_heights(o, x).values(), default=0) for x in o.all_configurations()]
    assert full.stopped_at in (depth + 1, None)
    inside = len(tops) if full.stopped_at is None else sum(t < depth for t in tops)
    out = cluster_bijection_check(net, full)
    assert out and out.data == {"checked": inside, "skipped": len(tops) - inside}
    events = len(full.label_event)
    for cut in sorted({0, 1, events // 2, max(events - 1, 0), events, 10_000}):
        budget = UnfoldBudget(depth, cut)
        bp = unfold(net, budget)
        assert bp.stopped_at == _reference_unfold(net, budget)[3], cut
        out = cluster_bijection_check(net, bp)
        assert out, (cut, out.reason)


class TestQpnEquivalence:
    def test_verdicts_agree_through_unfolding(self):
        rng = np.random.default_rng(13)
        agree = 0
        for _ in range(10):
            sm = random_state_machine(rng)
            direct = bool(is_qpn(sm.net, sm.ann))
            bp = unfold(sm.net, UnfoldBudget(4, 2000))
            unfolded = bool(is_local_qon(bp.occ, transfer_annotation(bp, sm.ann)))
            assert direct == unfolded
            agree += 1
        assert agree == 10

    def test_bit_order_does_not_move_verdicts(self):
        """A prefix with the unfolder's bit order (creation) and the same
        prefix with a sorted one get the same verdict, reason and least
        drop eigenvalue."""
        rng = np.random.default_rng(13)
        reordered = 0
        for _ in range(10):
            sm = random_state_machine(rng)
            bp = unfold(sm.net, UnfoldBudget(4, 2000))
            ann = transfer_annotation(bp, sm.ann)
            scratch = _from_scratch(bp.occ)
            reordered += scratch._order != bp.occ._order
            handed, built = is_local_qon(bp.occ, ann), is_local_qon(scratch, ann)
            assert (bool(handed), handed.reason) == (bool(built), built.reason)
            if "report" in built.data:
                assert math.isclose(handed.data["report"].worst, built.data["report"].worst,
                                    rel_tol=0, abs_tol=1e-12)
        assert reordered >= 5  # most prefixes are ordered differently
