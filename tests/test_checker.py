import itertools

import numpy as np
import pytest

from gen import clique_net, random_cptni, random_occurrence_annotated
from qpn import algebra, checker, cli
from qpn.algebra import Channel, effect, min_eigenvalue
from qpn.annotation import GlobalValuation, LocalAnnotation
from qpn.checker import (
    _compose_effect,
    _embedded_effect,
    brute_force_global_drop,
    check_local_drop,
    clique_drop,
    cluster_factorization_check,
    drop_effect,
    drop_inductive,
    expand_drop,
    is_local_qon,
    is_qpn,
    recursive_sum_check,
    single_extension_drop,
)
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import (
    BoundExceeded,
    CrossClusterConflict,
    DimensionMismatch,
    IncompatibleExtension,
    NegativeEventInCluster,
    NotAClique,
    NotEnabled,
    SafetyUnverified,
)
from qpn.nets import (
    Net,
    OccurrenceNet,
    as_occurrence_net,
    configuration_of_marking,
    marking_of_configuration,
    verify_safety,
)
from qpn.netfile import save_net


def demo_parts(scaled=True):
    bd = branching_demo(scaled)
    o = as_occurrence_net(bd.net)
    return o, bd.ann, GlobalValuation(o, bd.ann)


class TestDropEffect:
    def test_no_extensions_gives_identity(self):
        o, ann, gv = demo_parts()
        d = drop_effect(gv, frozenset(), [])
        assert np.allclose(d, np.eye(4))

    def test_collapsed_extension_gives_zero(self):
        o, ann, gv = demo_parts()
        x = frozenset({"a"})
        d = drop_effect(gv, x, [x, x | {"b"}])
        assert np.allclose(d, 0, atol=1e-12)

    def test_half_scaled_conflict_is_exactly_zero(self):
        o, ann, gv = demo_parts(scaled=True)
        x = frozenset({"a"})
        d = drop_effect(gv, x, [x | {"b"}, x | {"c"}])
        assert d.shape == (8, 8)
        assert np.allclose(d, 0, atol=1e-12)

    def test_trace_preserving_conflict_is_minus_identity(self):
        o, ann, gv = demo_parts(scaled=False)
        x = frozenset({"a"})
        d = drop_effect(gv, x, [x | {"b"}, x | {"c"}])
        assert np.allclose(d, -np.eye(8), atol=1e-12)

    def test_negative_extension_rejected(self):
        o, ann, gv = demo_parts()
        with pytest.raises(IncompatibleExtension):
            drop_effect(gv, frozenset(), [frozenset({"a"})])

    def test_negative_extension_names_the_least_event(self):
        ids = [f"n{i}" for i in range(8)]
        o = OccurrenceNet({f"{e}{s}" for e in ids for s in "ab"}, ids,
                          {(f, t) for e in ids for f, t in ((f"{e}a", e), (e, f"{e}b"))},
                          {f"{e}a" for e in ids}, dict.fromkeys(ids, "-"))
        ann = LocalAnnotation({f"{e}{s}": 1 for e in ids for s in "ab"},
                              dict.fromkeys(ids, Channel.identity(1)))
        with pytest.raises(IncompatibleExtension, match="^extension adds negative event n0$"):
            drop_effect(GlobalValuation(o, ann), frozenset(), [frozenset(ids[::-1])])

    def test_concurrent_trace_preserving_pair_telescopes(self):
        """Two independent trace-preserving events: I - I - I + I = 0."""
        o = OccurrenceNet({"a0", "a1", "b0", "b1"}, {"t", "u"},
                          {("a0", "t"), ("t", "a1"), ("b0", "u"), ("u", "b1")},
                          {"a0", "b0"}, {"t": "0", "u": "0"})
        verify_safety(o)
        ann = LocalAnnotation({"a0": 2, "a1": 2, "b0": 2, "b1": 2},
                              {"t": Channel.identity(2),
                               "u": Channel.identity(2)})
        gv = GlobalValuation(o, ann)
        d = drop_effect(gv, frozenset(), [frozenset({"t"}), frozenset({"u"})])
        assert np.allclose(d, 0, atol=1e-12)


class TestSingleExtension:
    def test_matches_general_evaluator_on_demo(self):
        o, ann, gv = demo_parts()
        x = frozenset({"a"})
        m = marking_of_configuration(o, x)
        d_fast = single_extension_drop(o, ann, m, ["b", "c"])
        d_gen = drop_effect(gv, x, [x | {"b"}, x | {"c"}])
        assert np.allclose(d_fast, d_gen, atol=1e-12)

    def test_singleton_trace_preserving_is_zero(self):
        o, ann, gv = demo_parts(scaled=False)
        m = marking_of_configuration(o, {"a"})
        assert np.allclose(single_extension_drop(o, ann, m, ["b"]), 0,
                           atol=1e-12)

    def test_whole_support_effect_is_the_effect(self):
        o, ann, _ = demo_parts()
        for e in ("b", "c"):
            eff = effect(ann.channel(e))
            assert np.array_equal(_embedded_effect(o, ann, o.pre(e), e), eff)
            assert np.array_equal(_embedded_effect(o, ann, ["p1"], e), eff)
            # beside p2 (dim 4) the effect is embedded as E ⊗ I
            assert np.allclose(_embedded_effect(o, ann, {"p1", "p2"}, e),
                               np.kron(eff, np.eye(4)), atol=0)

    def test_disabled_event_rejected(self):
        o, ann, _ = demo_parts()
        with pytest.raises(NotEnabled):
            single_extension_drop(o, ann, frozenset({"p0"}), ["b"])

    def test_negative_event_rejected(self):
        o, ann, _ = demo_parts()
        with pytest.raises(NegativeEventInCluster):
            single_extension_drop(o, ann, frozenset({"p0"}), ["a"])

    def test_matches_general_on_random_nets(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(25):
            x = random_occurrence_annotated(rng)
            o, ann = x.net, x.ann
            gv = GlobalValuation(o, ann)
            for cfg in sorted(o.all_configurations(), key=sorted):
                exts = sorted(e for e in o.transitions - cfg
                              if o.pol(e) != "-" and o.enables(cfg, e))
                if not exts:
                    continue
                m = marking_of_configuration(o, cfg)
                fam = exts[:3]
                d_fast = single_extension_drop(o, ann, m, fam)
                d_gen = drop_effect(gv, cfg, [cfg | {e} for e in fam])
                assert np.allclose(d_fast, d_gen, atol=1e-9), (cfg, fam)
                checked += 1
        assert checked >= 20


class TestClique:
    def test_empty_clique_is_identity(self):
        o, ann, _ = demo_parts()
        m = marking_of_configuration(o, {"a"})
        assert np.allclose(clique_drop(o, ann, m, []), np.eye(8))

    def test_half_scaled_pair_is_zero(self):
        o, ann, _ = demo_parts()
        m = marking_of_configuration(o, {"a"})
        assert np.allclose(clique_drop(o, ann, m, ["b", "c"]), 0, atol=1e-12)

    def test_scalar_weights(self):
        thirds = clique_net(None, 3, dim=2, weights=[1 / 3] * 3)
        m = frozenset(thirds.net.initial_marking)
        d = clique_drop(thirds.net, thirds.ann, m, ["k0", "k1", "k2"])
        assert np.allclose(d, 0, atol=1e-12)
        halves = clique_net(None, 3, dim=2, weights=[0.5] * 3)
        d = clique_drop(halves.net, halves.ann, m, ["k0", "k1", "k2"])
        assert np.allclose(d, -0.5 * np.eye(2), atol=1e-12)

    def test_non_conflicting_pair_rejected(self):
        o = OccurrenceNet({"a0", "a1", "b0", "b1"}, {"t", "u"},
                          {("a0", "t"), ("t", "a1"), ("b0", "u"), ("u", "b1")},
                          {"a0", "b0"}, {"t": "0", "u": "0"})
        verify_safety(o)
        ann = LocalAnnotation({"a0": 1, "a1": 1, "b0": 1, "b1": 1},
                              {"t": Channel.identity(1),
                               "u": Channel.identity(1)})
        with pytest.raises(NotAClique):
            clique_drop(o, ann, frozenset({"a0", "b0"}), ["t", "u"])

    def test_three_way_agreement_on_cliques(self):
        rng = np.random.default_rng(5)
        for size in (2, 3, 4):
            x = clique_net(None, size, dim=2,
                           weights=rng.uniform(0.1, 0.5, size))
            o, ann = x.net, x.ann
            m = frozenset(o.initial_marking)
            cl = sorted(t for t in o.transitions)
            d1 = clique_drop(o, ann, m, cl)
            d2 = single_extension_drop(o, ann, m, cl)
            gv = GlobalValuation(o, ann)
            d3 = drop_effect(gv, frozenset(), [frozenset({e}) for e in cl])
            assert np.allclose(d1, d2, atol=1e-10)
            assert np.allclose(d1, d3, atol=1e-10)


class TestDropIdentities:
    def _instances(self, seed, nets=20):
        rng = np.random.default_rng(seed)
        for _ in range(nets):
            x = random_occurrence_annotated(rng, max_events=5)
            o, ann = x.net, x.ann
            gv = GlobalValuation(o, ann)
            configs = sorted(o.all_configurations(), key=sorted)
            for cfg in configs:
                ys = [y for y in configs
                      if cfg < y and all(o.pol(e) != "-" for e in y - cfg)]
                if ys:
                    yield gv, cfg, ys[: 3]

    def test_inductive_evaluation_agrees(self):
        count = 0
        for gv, x, ys in self._instances(31):
            d1 = drop_effect(gv, x, ys)
            d2 = drop_inductive(gv, x, ys)
            assert np.allclose(d1, d2, atol=1e-9), (x, ys)
            count += 1
        assert count >= 30

    def test_recursive_sum_identity(self):
        count = 0
        for gv, x, ys in self._instances(32):
            o = gv.net
            # need yn strictly between x and the last extension
            y_big = ys[-1]
            mids = [x | {e} for e in y_big - x
                    if o.is_configuration(x | {e}) and x | {e} != y_big]
            if not mids:
                continue
            out = recursive_sum_check(gv, x, ys[:-1], mids[0], y_big)
            assert out, (x, ys, out.reason)
            count += 1
        assert count >= 10

    def test_recursive_sum_catches_a_composed_effect_without_its_target(self, monkeypatch):
        # mutation: _compose_effect pulls back the identity instead of the
        # shifted drop, so drop_inductive and expand_drop go wrong, and the
        # identity that guards them fails
        compose_effect = checker._compose_effect
        monkeypatch.setattr(checker, "_compose_effect", lambda chan, d: compose_effect(
            chan, np.eye(d.shape[0], dtype=complex)))
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        gv = GlobalValuation(o, bd.ann)
        # yn = yn_big, so the shifted drop is 0 and Q[x; yn]'s effect, I/2,
        # is the error
        out = recursive_sum_check(gv, {"a"}, [], {"a", "b"}, {"a", "b"})
        assert out.reason == "recursive-sum identity off by 5.00e-01"

    def test_expansion_terminates_and_agrees(self):
        count = 0
        for gv, x, ys in self._instances(33):
            d1 = drop_effect(gv, x, ys)
            d2, steps = expand_drop(gv, x, ys)
            assert np.allclose(d1, d2, atol=1e-9), (x, ys)
            assert steps >= 1
            count += 1
        assert count >= 30

    @pytest.mark.parametrize("d_t, h", [(1, 1), (2, 1), (3, 2), (2, 4)])
    def test_composed_effect_matches_kron_by_identity(self, d_t, h):
        rng = np.random.default_rng(d_t * 10 + h)
        chan = random_cptni(rng, 3, d_t * h)
        a = rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))
        d = a + a.conj().T
        op = np.kron(d, np.eye(h))
        want = sum(k.conj().T @ op @ k for k in chan.kraus)
        np.testing.assert_allclose(_compose_effect(chan, d), want, rtol=1e-12, atol=1e-12)


class TestClusterFactorization:
    def _two_cluster_net(self, w1, w2):
        o = OccurrenceNet(
            {"a0", "b0", "x1", "x2", "y1", "y2"}, {"t1", "t2", "u1", "u2"},
            {("a0", "t1"), ("a0", "t2"), ("t1", "x1"), ("t2", "x2"),
             ("b0", "u1"), ("b0", "u2"), ("u1", "y1"), ("u2", "y2")},
            {"a0", "b0"}, {"t1": "0", "t2": "0", "u1": "0", "u2": "0"})
        verify_safety(o)
        ann = LocalAnnotation(
            {"a0": 2, "b0": 2, "x1": 2, "x2": 2, "y1": 2, "y2": 2},
            {"t1": Channel.identity(2).scaled(w1),
             "t2": Channel.identity(2).scaled(1 - w1),
             "u1": Channel.identity(2).scaled(w2),
             "u2": Channel.identity(2).scaled(1 - w2)})
        return o, ann

    def test_factorization_holds(self):
        o, ann = self._two_cluster_net(0.3, 0.8)
        m = frozenset(o.initial_marking)
        assert cluster_factorization_check(o, ann, m, ["t1", "t2"],
                                           ["u1", "u2"])

    def test_factorization_catches_a_recurrence_that_sees_one_clique(self, monkeypatch):
        # mutation: the recurrence treats every family as a clique, so the
        # two independent clusters' drop is I - sum E = -I, not 0 ⊗ 0
        monkeypatch.setattr(checker, "_drop_recurrence", lambda events, pre, effs, dim:
                            np.eye(dim) - sum(effs[e] for e in events))
        o, ann = self._two_cluster_net(0.3, 0.8)
        out = cluster_factorization_check(o, ann, o.initial_marking, ["t1", "t2"],
                                          ["u1", "u2"])
        assert out.reason == "factorization off by 1.00e+00"

    def test_empty_second_cluster(self):
        o, ann = self._two_cluster_net(0.5, 0.5)
        m = frozenset(o.initial_marking)
        assert cluster_factorization_check(o, ann, m, ["t1", "t2"], [])

    def test_cross_conflict_rejected(self):
        o, ann, _ = demo_parts()
        m = marking_of_configuration(o, {"a"})
        with pytest.raises(CrossClusterConflict):
            cluster_factorization_check(o, ann, m, ["b"], ["c"])

    def test_on_random_two_cluster_instances(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(40):
            x = random_occurrence_annotated(rng)
            o, ann = x.net, x.ann
            from qpn.nets import marking_clusters
            for cfg in sorted(o.all_configurations(), key=sorted):
                m = marking_of_configuration(o, cfg)
                clusters = marking_clusters(o, m)
                if len(clusters) < 2:
                    continue
                a, b = sorted(clusters[0]), sorted(clusters[1])
                assert cluster_factorization_check(o, ann, m, a, b)
                checked += 1
                break
        assert checked >= 5


class TestLocalDrop:
    def test_requires_verified_safety(self):
        bd = branching_demo()
        net = Net(bd.net.places, bd.net.transitions, bd.net.flow,
                  bd.net.initial_marking, bd.net.polarity)
        with pytest.raises(SafetyUnverified):
            check_local_drop(net, bd.ann)

    def test_demo_report(self):
        bd = branching_demo()
        report = check_local_drop(bd.net, bd.ann)
        assert report.passed
        assert report.stats["clique_fast_paths"] == 1
        doc = report.to_dict()
        assert list(doc) == ["passed", "tol", "stats", "table", "parts"]
        assert doc["passed"] and doc["stats"] == report.stats
        assert doc["table"] == [{"key": ["b", "c"], "method": "clique", "families": [
            {"events": ["b", "c"], "min_eig": report.worst}]}]
        assert doc["parts"] == [[{"marking": ["p0"], "keys": []},
                                 {"marking": ["p1", "p2"], "keys": [["b", "c"]]},
                                 {"marking": ["p2", "p3"], "keys": []},
                                 {"marking": ["p2", "p4"], "keys": []}]]

    def test_literal_demo_fails_with_minus_one(self):
        bd = branching_demo(scaled=False)
        report = check_local_drop(bd.net, bd.ann)
        assert not report.passed
        assert report.worst == pytest.approx(-1.0, abs=1e-9)

    def test_all_negative_net_passes_vacuously(self):
        net = Net({"p", "q"}, {"t"}, {("p", "t"), ("t", "q")},
                  {"p"}, {"t": "-"})
        verify_safety(net)
        ann = LocalAnnotation({"p": 2, "q": 2}, {"t": Channel.identity(2)})
        report = check_local_drop(net, ann)
        assert report.passed and not report.instances

    @staticmethod
    def _path_clusters(copies):
        """Disjoint copies of marked dim-2 places a, b, c with events on
        {a}, {a, b} and {b, c} (identity scaled by 0.3): one connected,
        non-clique cluster per copy."""
        places, flow, dims, chans = set(), set(), {}, {}
        for i in range(copies):
            pre = {f"x{i}": (f"a{i}",), f"y{i}": (f"a{i}", f"b{i}"),
                   f"z{i}": (f"b{i}", f"c{i}")}
            for t, ps in pre.items():
                out = f"{t}o"
                places |= set(ps) | {out}
                flow |= {(p, t) for p in ps} | {(t, out)}
                dims |= {p: 2 for p in ps} | {out: 2 ** len(ps)}
                chans[t] = Channel.identity(2 ** len(ps)).scaled(0.3)
        marked = {p for p in places if p[0] in "abc"}
        o = OccurrenceNet(places, set(chans), flow, marked, {t: "0" for t in chans})
        verify_safety(o)
        return o, LocalAnnotation(dims, chans)

    def test_every_instance_matches_drop_effect(self):
        """Per-cluster evaluation on pre-places reports, at every marking,
        the eigenvalue and verdict of the full-space drop of that family."""
        nets = [self._path_clusters(2)]
        for seed in range(12):
            x = random_occurrence_annotated(np.random.default_rng(seed))
            nets.append((x.net, x.ann))
        checked = 0
        for o, ann in nets:
            report = check_local_drop(o, ann)
            gv = GlobalValuation(o, ann)
            for inst in report.instances:
                m, fam = inst.key
                x = configuration_of_marking(o, m)
                lo = min_eigenvalue(drop_effect(gv, x, [x | {e} for e in fam]))
                assert abs(lo - inst.min_eig) <= 1e-9, (inst.key, lo, inst.min_eig)
                assert (lo >= -report.tol) == inst.passed
                checked += 1
        assert checked >= 60

    def test_cluster_cap_enforced(self):
        x = clique_net(None, 4, dim=1)
        with pytest.raises(BoundExceeded):
            check_local_drop(x.net, x.ann, cluster_cap=3)

    def test_the_first_cluster_over_the_cap_is_named(self):
        """Cliques of 2 and 3 on the hubs g and h, in one component through
        x: at the initial marking both pass a cap of 1, and the cluster
        met first is named."""
        kids = {"g": ["g0", "g1"], "h": ["h0", "h1", "h2"]}
        flow = {(hub, k) for hub, ks in kids.items() for k in ks}
        flow |= {(k, f"o{k}") for ks in kids.values() for k in ks}
        flow |= {("og0", "x"), ("oh0", "x"), ("x", "end")}
        places = {"g", "h", "end"} | {f"o{k}" for ks in kids.values() for k in ks}
        pol = dict.fromkeys(["x"] + kids["g"] + kids["h"], "0")
        net = Net(places, set(pol), flow, {"g", "h"}, pol)
        verify_safety(net)
        dims = dict.fromkeys(places, 1)
        ann = LocalAnnotation(dims, {t: Channel.identity(1).scaled(0.2) for t in pol})
        with pytest.raises(BoundExceeded) as exc:
            check_local_drop(net, ann, cluster_cap=1)
        assert str(exc.value) == "cluster of 2 events at marking ['g', 'h'] exceeds cap 1"

    @staticmethod
    def _chain(k):
        """k events over k + 1 marked dim-2 places, event i consuming places
        i and i + 1, each with effect 0.3·I: a family's drop has up to
        2^(k+1) dims."""
        ps = [f"p{i}" for i in range(k + 1)]
        flow = {(ps[i + j], f"e{i}") for i in range(k) for j in (0, 1)}
        flow |= {(f"e{i}", f"q{i}") for i in range(k)}
        places = set(ps) | {f"q{i}" for i in range(k)}
        net = Net(places, {f"e{i}" for i in range(k)}, flow, set(ps),
                  {f"e{i}": "0" for i in range(k)})
        verify_safety(net)
        i2, z2 = np.eye(2), np.zeros((2, 2))
        kraus = np.sqrt(0.3) * np.array([np.hstack([i2, z2]), np.hstack([z2, i2])])
        chans = dict.fromkeys(net.transitions, Channel(4, 2, kraus))
        return net, LocalAnnotation(dict.fromkeys(places, 2), chans)

    @pytest.mark.parametrize("budget", [algebra.BATCH_ENTRIES, 300, 0])
    def test_eigen_stacks_keep_within_the_budget(self, monkeypatch, budget):
        """No stack the kernel gets holds more than the budget's entries,
        but for a single matrix; on the chain of 6 the 1 MiB budget fills
        (four 128-dim drops), and any budget gives the same results."""
        net, ann = self._chain(6)
        want = [(r.key, r.method, r.min_eig.hex(), r.passed)
                for r in check_local_drop(net, ann).instances]
        stacks, kernel, default = [], checker.min_eigenvalues, algebra.BATCH_ENTRIES
        monkeypatch.setattr(algebra, "BATCH_ENTRIES", budget)
        monkeypatch.setattr(checker, "min_eigenvalues",
                            lambda s: stacks.append(np.shape(s)) or kernel(s))
        report = check_local_drop(net, ann)
        assert [(r.key, r.method, r.min_eig.hex(), r.passed) for r in report.instances] == want
        sizes = [k * n * n for k, n, _ in stacks]
        assert all(k == 1 or size <= budget for (k, _, _), size in zip(stacks, sizes))
        assert budget != default or max(sizes) == budget == 1 << 16
        assert report.stats["eigen_calls"] == len(stacks)
        assert report.stats["eigen_solves"] == sum(k for k, _, _ in stacks) == 90

    def test_rows_are_built_only_when_read(self, monkeypatch):
        """The verdict, the worst value, the counts and the stats read the
        report's table: no row is built until ``first_failure`` or
        ``instances`` is read."""
        built = []

        class Counted(checker.DropInstanceResult):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.key)

        monkeypatch.setattr(checker, "DropInstanceResult", Counted)
        report = check_local_drop(*self._chain(6))
        assert not report.passed and report.worst < 0
        assert report.instance_count() == 120 and report.stats["clusters"] == 18
        assert built == []
        assert report.first_failure().key[1] == ("e0", "e1", "e2", "e3", "e4", "e5") and built
        built.clear()
        assert len(report.instances) == len(built) == 120

    @pytest.mark.parametrize("cap, cap_first", [(3, False), (4, False), (3, True)],
                             ids=["3", "4", "cap-first"])
    def test_a_skewed_drop_is_the_error_met_first(self, cap, cap_first):
        """Event a's drop is not Hermitian, and the cluster of b0..b3 meets
        a cap of 3.  Either a is met at marking {p} and the cluster at the
        later {q}, or (cap first) the cluster at {p} and a at the later
        {r0}.  Every queued drop is solved before a cap error leaves, so
        the error is a's wherever each is met, with or without the other."""
        a_in, fan_in = ("r0", "p") if cap_first else ("p", "q")
        net = Net({"p", "q"} | {f"r{i}" for i in range(4)}, {"a", "b0", "b1", "b2", "b3"},
                  {(a_in, "a"), ("a", "q")} | {(fan_in, f"b{i}") for i in range(4)}
                  | {(f"b{i}", f"r{i}") for i in range(4)}, {"p"},
                  dict.fromkeys(["a", "b0", "b1", "b2", "b3"], "0"))
        verify_safety(net)
        skewed = Channel.identity(2).scaled(0.5)
        # an effect that is not Hermitian, which no Kraus list gives
        skewed.__dict__["_effect"] = np.array([[0.5, 0.1], [0.0, 0.5]])
        chans = {"a": skewed} | {f"b{i}": Channel.identity(2).scaled(0.2) for i in range(4)}
        ann = LocalAnnotation(dict.fromkeys(net.places, 2), chans)
        with pytest.raises(DimensionMismatch, match="not Hermitian"):
            check_local_drop(net, ann, cluster_cap=cap)


class TestBruteForceOracle:
    def test_single_event_net(self):
        net = OccurrenceNet({"p", "q"}, {"e"}, {("p", "e"), ("e", "q")},
                            {"p"}, {"e": "0"})
        verify_safety(net)
        ann = LocalAnnotation({"p": 2, "q": 2}, {"e": Channel.identity(2)})
        report = brute_force_global_drop(net, ann)
        assert report.passed
        assert [r.key for r in report.instances] == [((), ("e",))]

    def test_agreement_with_local_check(self):
        rng = np.random.default_rng(55)
        agreements = 0
        for _ in range(25):
            x = random_occurrence_annotated(rng)
            brute = brute_force_global_drop(x.net, x.ann)
            local = check_local_drop(x.net, x.ann)
            assert brute.passed == local.passed
            agreements += 1
        assert agreements == 25

    def test_table_reads_match_the_instances(self):
        """The verdict, the worst value, the counts and the first failure,
        read off the table, are those of the rows in ``instances``: the
        first failure is the least family among the rows at the worst
        value, at the least configuration that meets it there."""
        verdicts = []
        for seed in range(16):
            x = random_occurrence_annotated(np.random.default_rng(seed))
            brute = brute_force_global_drop(x.net, x.ann)
            rows = brute.instances
            assert rows == sorted(rows, key=lambda r: r.key)
            assert brute.passed == all(r.passed for r in rows)
            assert brute.worst == min((r.min_eig for r in rows), default=float("inf"))
            assert brute.instance_count() == len(rows) == brute.stats["families"]
            worst = [r for r in rows if r.min_eig == brute.worst and not r.passed]
            assert brute.first_failure() == min(worst, key=lambda r: r.key[::-1], default=None)
            verdicts.append(brute.passed)
        assert any(verdicts) and not all(verdicts)

    def test_cli_oracle_agrees_on_the_chain_of_six(self, tmp_path, capsys):
        """The chain of 6 first fails on its whole cluster of six events, so
        an oracle that stopped short of the cluster cap would pass it."""
        net, ann = TestLocalDrop._chain(6)
        path = tmp_path / "chain6.json"
        save_net(path, net, ann)
        assert cli.main(["check", str(path), "--oracle"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("FAIL drop")
        assert lines[-1] == "PASS oracle agreement: yes (brute=False, local=False)"

    def test_config_bound(self):
        x = clique_net(None, 3, dim=1)
        with pytest.raises(BoundExceeded):
            brute_force_global_drop(x.net, x.ann, config_bound=2)


class TestVerdicts:
    def test_demo_and_cycle_are_qpns(self):
        bd = branching_demo()
        assert is_qpn(bd.net, bd.ann)
        tc = two_phase_cycle()
        assert is_qpn(tc.net, tc.ann)

    def test_occurrence_net_verdicts_agree(self):
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        assert bool(is_qpn(o, bd.ann)) == bool(is_local_qon(o, bd.ann))

    def test_is_local_qon_rejects_cyclic_net(self):
        tc = two_phase_cycle()
        out = is_local_qon(tc.net, tc.ann)
        assert not out and out.data["stage"] == "occurrence"

    def test_failure_carries_stage(self):
        bd = branching_demo(scaled=False)
        out = is_qpn(bd.net, bd.ann)
        assert not out and out.data["stage"] == "drop"

    def test_trivial_net_is_qpn(self):
        net = Net({"p"}, set(), set(), {"p"}, {})
        verify_safety(net)
        ann = LocalAnnotation({"p": 3}, {})
        assert is_qpn(net, ann)
