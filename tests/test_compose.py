import tracemalloc

import numpy as np
import pytest

from gen import joinable_net, random_cptni, random_join
from qpn import compose
from qpn.algebra import Channel, FactorPermutation, channels_close
from qpn.annotation import LocalAnnotation
from qpn.checker import is_qpn
from qpn.compose import (
    AnnotatedNet,
    JoinSpec,
    _joined_channel,
    check_join_preservation,
    drop_preserving_join,
    joined_id,
    parallel,
    single_join,
    validate_drop_preserving,
)
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import BoundExceeded, PolarityMismatch, QpnError, SignalSpaceMismatch
from qpn.nets import Net, race_free, verify_safety


X = np.array([[0, 1], [1, 0]], dtype=complex)
compose_preimage = compose._preimage_drop


class TestParallel:
    def test_disjoint_ids_kept_verbatim(self):
        c, prov = parallel(branching_demo(), two_phase_cycle())
        assert "p0" in c.net.places and "s0" in c.net.places
        assert prov["p0"] == ("L", "p0") and prov["fwd"] == ("R", "fwd")

    def test_collision_prefixes_both_sides(self):
        bd = branching_demo()
        c, prov = parallel(bd, bd)
        assert "L/p0" in c.net.places and "R/p0" in c.net.places
        assert "p0" not in c.net.places
        assert prov["L/a"] == ("L", "a") and prov["R/a"] == ("R", "a")
        assert len(c.net.places) == 2 * len(bd.net.places)

    def test_product_of_qpns_is_qpn(self):
        c, _ = parallel(branching_demo(), two_phase_cycle())
        assert is_qpn(c.net, c.ann)

    def test_annotation_carried_over(self):
        bd = branching_demo()
        c, _ = parallel(bd, bd)
        assert c.ann.dim("L/p0") == bd.ann.dim("p0")
        assert c.ann.channel("R/c") is bd.ann.channel("c")
        assert c.ann.signal_dim("L/a") == bd.ann.signal_dim("a")


def _cyclic_pair():
    """p feeds a place that n consumes, so joining them would close a loop."""
    dims = {"a": 2, "q": 1, "r": 2}
    pol = {"p": "+", "n": "-"}
    flow = {("a", "p"), ("p", "q"), ("q", "n"), ("n", "r")}
    net = Net(set(dims), set(pol), flow, {"a"}, pol)
    verify_safety(net)
    from qpn.annotation import LocalAnnotation
    ann = LocalAnnotation(dims, {"p": Channel.from_unitary(X),
                                 "n": Channel.identity(2)},
                          {"p": 2, "n": 2})
    return AnnotatedNet(net, ann)


class TestSingleJoin:
    def test_polarity_mismatch(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        with pytest.raises(PolarityMismatch):
            single_join(x, "n1", "p1")
        with pytest.raises(PolarityMismatch):
            single_join(x, "p1", "p2")

    def test_self_join_rejected(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        with pytest.raises(QpnError, match="itself"):
            single_join(x, "p1", "p1")

    def test_signal_dimension_mismatch(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        h = dict(x.ann.h)
        h["n1"] = 4
        from qpn.annotation import LocalAnnotation
        chans = dict(x.ann.channels)
        chans["n1"] = Channel.identity(8)
        bad = AnnotatedNet(x.net, LocalAnnotation(dict(x.ann.dims), chans, h))
        with pytest.raises(SignalSpaceMismatch):
            single_join(bad, "p1", "n1")

    def test_flow_cycle_rejected(self):
        with pytest.raises(QpnError, match="cycle"):
            single_join(_cyclic_pair(), "p", "n")

    def test_joined_event_shape(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        y = single_join(x, "p1", "n1")
        j = joined_id("p1", "n1")
        assert j in y.net.transitions
        assert "p1" not in y.net.transitions and "n1" not in y.net.transitions
        assert y.net.pol(j) == "0"
        assert y.net.pre(j) == frozenset({"u1", "s"})
        assert y.net.post(j) == frozenset({"v1", "d1"})
        assert j not in y.ann.h

    def test_joined_channel_matches_hand_composition(self):
        # p1 maps u1 to the signal through X (v1 is trivial); n1 writes the
        # signal into d1 unchanged.  Net effect on s (x) u1: identity on s,
        # X on u1, landing in d1 = s (x) signal.
        x = joinable_net(np.random.default_rng(0), False, False)
        y = single_join(x, "p1", "n1")
        oracle = Channel.from_unitary(np.kron(np.eye(2), X))
        assert channels_close(y.ann.channel(joined_id("p1", "n1")), oracle)

    def test_joined_channel_matches_the_kron_formula(self):
        # factor orders interleave: sorted(•p + •n) = [b, c, x] and
        # sorted(p• + n•) = [q, r, z]
        dims = {"b": 2, "x": 3, "c": 2, "q": 3, "z": 2, "r": 4}
        pol = {"p": "+", "n": "-"}
        flow = {("b", "p"), ("x", "p"), ("p", "q"), ("p", "z"), ("c", "n"), ("n", "r")}
        net = Net(set(dims), set(pol), flow, {"b", "x", "c"}, pol)
        rng = np.random.default_rng(5)
        ann = LocalAnnotation(dims, {"p": random_cptni(rng, 6, 12),
                                     "n": random_cptni(rng, 4, 4)}, {"p": 2, "n": 2})

        def mat(now, want):
            d = dims | {"H": 2}
            return FactorPermutation.between(now, want, d.get).matrix()

        # (P_out · (I_{p•} ⊗ N) · P_mid · (P ⊗ I_{•n}) · P_in) for every pair
        kraus = [mat(["q", "z", "r"], ["q", "r", "z"])
                 @ np.kron(np.eye(6), kn) @ mat(["q", "z", "H", "c"], ["q", "z", "c", "H"])
                 @ np.kron(kp, np.eye(2)) @ mat(["b", "c", "x"], ["b", "x", "c"])
                 for kn in ann.channel("n").kraus for kp in ann.channel("p").kraus]
        assert channels_close(_joined_channel(net, ann, "p", "n"), Channel(12, 24, tuple(kraus)))

    def test_a_place_named_H_joins(self):
        # •n = {H}: the signal factor is named by its event's id, p, which
        # no place id shares, so the place H does not alias it
        dims = {"u": 2, "v": 1, "H": 3, "d": 6}
        pol = {"p": "+", "n": "-"}
        net = Net(set(dims), set(pol), {("u", "p"), ("p", "v"), ("H", "n"), ("n", "d")},
                  {"u", "H"}, pol)
        ann = LocalAnnotation(dims, {"p": Channel.from_unitary(X), "n": Channel.identity(6)},
                              {"p": 2, "n": 2})
        y = single_join(AnnotatedNet(net, ann), "p", "n")
        assert channels_close(y.ann.channel(joined_id("p", "n")),
                              Channel.from_unitary(np.kron(np.eye(3), X)))

    def test_pre_places_past_the_cap_raise_before_allocating(self):
        # a 64-dim •p beside a 128-dim •n: the joined input is 8192-dim,
        # whose identity Kraus stack would take 1 GiB
        dims = {"a": 64, "b": 1, "c": 128, "d": 1}
        pol = {"p": "+", "n": "-"}
        net = Net(set(dims), set(pol), {("a", "p"), ("p", "b"), ("c", "n"), ("n", "d")},
                  {"a", "c"}, pol)
        ann = LocalAnnotation(dims, {"p": Channel(64, 2, (np.eye(2, 64),)),
                                     "n": Channel(256, 1, (np.eye(1, 256),))},
                              {"p": 2, "n": 2})
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="dimension 8192 exceeds"):
                single_join(AnnotatedNet(net, ann), "p", "n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_join_preserves_qpn(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        assert is_qpn(x.net, x.ann)
        y = single_join(x, "p1", "n1")
        verify_safety(y.net)
        assert is_qpn(y.net, y.ann)


class TestValidateDropPreserving:
    def test_accepts_matched_clusters(self):
        x = joinable_net(np.random.default_rng(0), True, True)
        spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
        assert validate_drop_preserving(x, spec)

    def test_rejects_repeated_member(self):
        x = joinable_net(np.random.default_rng(0), True, True)
        out = validate_drop_preserving(x, JoinSpec((("p1", "n1"), ("p1", "n2"))))
        assert not out and "bijection" in out.reason

    def test_rejects_partial_negative_cluster(self):
        x = joinable_net(np.random.default_rng(0), True, True)
        out = validate_drop_preserving(x, JoinSpec((("p1", "n1"),)))
        assert not out and "maximal" in out.reason

    def test_rejects_positives_across_clusters(self):
        x = joinable_net(np.random.default_rng(0), True, False)
        out = validate_drop_preserving(x, JoinSpec((("p1", "n1"), ("p2", "n2"))))
        assert not out and "cluster" in out.reason

    def test_rejects_conflict_not_carried(self):
        # p1 ~ p3 ~ p2 keeps the positives in one cluster, but p1 and p2
        # themselves do not share a pre-place, so n1 ~ n2 is dropped.
        from qpn.annotation import LocalAnnotation
        dims = {"s": 2, "w1": 1, "w2": 1, "d1": 2, "d2": 2,
                "v1": 1, "v2": 1, "v3": 1}
        pol = {"n1": "-", "n2": "-", "p1": "+", "p2": "+", "p3": "+"}
        flow = {("s", "n1"), ("s", "n2"), ("n1", "d1"), ("n2", "d2"),
                ("w1", "p1"), ("w1", "p3"), ("w2", "p3"), ("w2", "p2"),
                ("p1", "v1"), ("p2", "v2"), ("p3", "v3")}
        net = Net(set(dims), set(pol), flow, {"s", "w1", "w2"}, pol)
        verify_safety(net)
        ann = LocalAnnotation(dims, {
            "n1": Channel.identity(2), "n2": Channel.identity(2),
            "p1": Channel.identity(1).scaled(0.5),
            "p2": Channel.identity(1).scaled(0.5),
            "p3": Channel.identity(1).scaled(0.5),
        }, {"n1": 1, "n2": 1, "p1": 1, "p2": 1, "p3": 1})
        out = validate_drop_preserving(
            AnnotatedNet(net, ann), JoinSpec((("p1", "n1"), ("p2", "n2"))))
        assert not out
        assert out.data["witness"] == (("n1", "n2"), ("p1", "p2"))

    def test_independent_negatives_join_one_at_a_time(self):
        x = joinable_net(np.random.default_rng(0), False, False)
        assert validate_drop_preserving(x, JoinSpec((("p1", "n1"),)))

    def test_unknown_id_is_a_located_failure(self):
        # parallel renames the colliding ids, so p2 is now L/p2 and R/p2
        x = joinable_net(np.random.default_rng(0), True, True)
        c, _ = parallel(x, x)
        out = validate_drop_preserving(c, JoinSpec((("L/p1", "L/n1"), ("p2", "L/n2"))))
        assert not out
        assert out.reason == "pairs[1]: unknown transition 'p2'"
        assert (out.data["witness"], out.data["pair"]) == ("p2", 1)


class TestDropPreservingJoin:
    @pytest.mark.parametrize("conflicting", [False, True])
    def test_valid_join_stays_qpn(self, conflicting):
        x = joinable_net(np.random.default_rng(0), conflicting, conflicting)
        pairs = ((("p1", "n1"), ("p2", "n2")) if conflicting
                 else (("p1", "n1"),))
        y = drop_preserving_join(x, JoinSpec(pairs))
        assert is_qpn(x.net, x.ann)
        assert is_qpn(y.net, y.ann)

    def test_join_order_does_not_matter(self):
        x = joinable_net(np.random.default_rng(0), True, True)
        y = drop_preserving_join(x, JoinSpec((("p1", "n1"), ("p2", "n2"))))
        z = single_join(single_join(x, "p2", "n2"), "p1", "n1")
        assert y.net.transitions == z.net.transitions
        assert y.net.flow == z.net.flow
        for t in y.net.transitions:
            assert channels_close(y.ann.channel(t), z.ann.channel(t))

    def test_invalid_spec_raises_without_force(self):
        x = joinable_net(np.random.default_rng(0), True, False)
        spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
        with pytest.raises(QpnError, match="invalid join spec"):
            drop_preserving_join(x, spec)

    @pytest.mark.parametrize("force", [False, True])
    def test_unknown_id_raises_a_located_error(self, force):
        x = joinable_net(np.random.default_rng(0), True, True)
        c, _ = parallel(x, x)
        spec = JoinSpec((("L/p1", "L/n1"), ("L/p2", "n2")))
        with pytest.raises(QpnError) as exc:
            drop_preserving_join(c, spec, force=force)
        assert str(exc.value) == "invalid join spec: pairs[1]: unknown transition 'n2'"

    def test_forced_bad_join_breaks_the_net(self):
        # negatives conflict but the positives do not: after the forced
        # join the two fused events race on s with trace-preserving
        # channels, so inclusion-exclusion dips below zero.
        x = joinable_net(np.random.default_rng(0), True, False)
        spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
        y = drop_preserving_join(x, spec, force=True)
        out = is_qpn(y.net, y.ann)
        assert not out
        assert out.data["stage"] == "drop"


class TestJoinPreservation:
    @pytest.mark.parametrize("conflicting", [False, True])
    def test_drop_agrees_across_the_join(self, conflicting):
        x = joinable_net(np.random.default_rng(0), conflicting, conflicting)
        pairs = ((("p1", "n1"), ("p2", "n2")) if conflicting
                 else (("p1", "n1"),))
        spec = JoinSpec(pairs)
        y = drop_preserving_join(x, spec)
        assert check_join_preservation(x, y, spec)

    @pytest.mark.parametrize("pairs, reason", [
        # the negatives conflict on s, the positives do not: the original
        # net's drop on the pre-image is 0, the fused events' is -I
        ((("p1", "n1"), ("p2", "n2")),
         "drop differs by 1.00e+00 at ['s', 'u1', 'u2'] on ['p1*n1', 'p2*n2']"),
        ((("p1", "n1"),), "joined net is not race-free: race: n2(-) ~ p1*n1(0)"),
    ])
    def test_forced_bad_join_fails(self, pairs, reason):
        x = joinable_net(None, True, False)
        spec = JoinSpec(pairs)
        y = drop_preserving_join(x, spec, force=True)
        assert not is_qpn(y.net, y.ann)
        assert check_join_preservation(x, y, spec).reason == reason

    @pytest.mark.parametrize("pairs, stray", [((("p1", "n1"),), "p2*n2"), ((), "p1*n1")],
                             ids=["partial", "empty"])
    def test_a_spec_that_misses_a_join_fails(self, pairs, stray):
        x = joinable_net(None, True, True)
        y = drop_preserving_join(x, JoinSpec((("p1", "n1"), ("p2", "n2"))))
        assert check_join_preservation(x, y, JoinSpec(pairs)).reason == (
            f"{stray} is neither in the original net nor joined by the spec")

    @pytest.mark.parametrize("source, weights, reason", [
        ("a", (0.5, 0.5), "marking ['b', 'c', 'q'] unreachable before the join"),
        ("a", (0.5, 0.25), "drop differs by 2.50e-01 at ['a', 'c'] on ['u']"),
        ("a", (0.25, 0.25), "drop differs by 2.50e-01 at ['a', 'c'] on ['t']"),
        ("z", (0.5, 0.25), "marking ['b', 'c', 'q'] unreachable before the join"),
    ])
    def test_the_least_failing_marking_is_named(self, source, weights, reason):
        """t marks q only after the join, and the weights of t and u may
        change: of the markings where q is marked or a drop differs, the
        least is named, reachability first, then the least cluster."""
        dims = {source: 2, "b": 2, "q": 1, "c": 2, "d": 2, "f": 4}

        def side(t_post, wt, wu):
            flow = {(source, "t"), ("c", "u"), ("u", "d"), ("b", "x"), ("d", "x"), ("x", "f")}
            net = Net(set(dims), {"t", "u", "x"}, flow | {("t", p) for p in t_post},
                      {source, "c"}, dict.fromkeys("tux", "0"))
            verify_safety(net)
            return AnnotatedNet(net, LocalAnnotation(dims, {
                "t": Channel.identity(2).scaled(wt), "u": Channel.identity(2).scaled(wu),
                "x": Channel.identity(4).scaled(0.5)}))

        out = check_join_preservation(side({"b"}, 0.5, 0.5), side({"b", "q"}, *weights),
                                      JoinSpec(()))
        assert out.reason == reason

    @pytest.mark.parametrize("after, reason", [
        (({"a", "b", "q"}, {"a", "q"}, {"t"}), "marking ['a', 'q'] unreachable before the join"),
        (({"a", "b"}, {"a"}, set()), "the join splits the component of b"),
    ], ids=["marked-new-place", "split"])
    def test_a_pair_that_is_no_join_fails(self, after, reason):
        """A marked place the original lacks is unreachable before; a
        joined net that splits a flow component of the original is no join."""
        def side(places, marked, ts):
            net = Net(places, ts, {("a", "t"), ("t", "b")} if ts else set(), marked,
                      dict.fromkeys(ts, "0"))
            verify_safety(net)
            return AnnotatedNet(net, LocalAnnotation(dict.fromkeys(places, 2), {
                t: Channel.identity(2).scaled(0.5) for t in ts}))

        out = check_join_preservation(side({"a", "b"}, {"a"}, {"t"}), side(*after), JoinSpec(()))
        assert out.reason == reason

    def test_each_cluster_is_compared_once(self, monkeypatch):
        # the two-phase cycle beside the join doubles the markings, not the
        # clusters
        calls = []

        def counted(before, m, fam, joined):
            calls.append(fam)
            return compose_preimage(before, m, fam, joined)

        monkeypatch.setattr(compose, "_preimage_drop", counted)
        x, _ = parallel(joinable_net(None, True, True), two_phase_cycle())
        spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
        assert check_join_preservation(x, drop_preserving_join(x, spec), spec)
        assert sorted(calls) == [("bwd",), ("fwd",), ("p1*n1", "p2*n2")]

    def test_idle_wide_places_stay_out_of_the_drop(self):
        # the full marking space is 2^15 dims, past the operator cap; each
        # cluster's own pre-places are small
        idle = Net({"i1", "i2"}, set(), set(), {"i1", "i2"}, {})
        verify_safety(idle)
        x, _ = parallel(joinable_net(None, True, True),
                        AnnotatedNet(idle, LocalAnnotation({"i1": 64, "i2": 64}, {})))
        spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
        assert check_join_preservation(x, drop_preserving_join(x, spec), spec)

    def test_race_freeness_survives(self):
        x = joinable_net(np.random.default_rng(0), True, True)
        y = drop_preserving_join(x, JoinSpec((("p1", "n1"), ("p2", "n2"))))
        assert race_free(y.net)


class TestRandomJoins:
    def test_valid_joins_keep_the_theorem(self):
        """Joining a QPN along a spec that passes the cluster-matching
        clauses gives a QPN, the drops agree across the join, and the
        order of the single joins does not matter."""
        qpns = 0
        for seed in range(160):
            x, spec = random_join(np.random.default_rng(seed))
            assert validate_drop_preserving(x, spec)
            if is_qpn(x.net, x.ann):
                qpns += 1
                y = drop_preserving_join(x, spec)
                assert is_qpn(y.net, y.ann), seed
                assert check_join_preservation(x, y, spec), seed
                z = x  # the pairs in the other order
                for p, n in sorted(spec.pairs, reverse=True):
                    z = single_join(z, p, n)
                assert z.net.flow == y.net.flow
                for t in y.net.transitions:
                    assert channels_close(y.ann.channel(t), z.ann.channel(t)), (seed, t)
        assert qpns >= 100

    @pytest.mark.parametrize("mutation, reason", [
        ("partial", "is not a maximal negative cluster"),
        ("uncarried", "is not carried to"),
        ("signal", "signal dimensions differ on pair (p0, n0)"),
    ])
    def test_mutations_break_the_spec(self, mutation, reason):
        for seed in range(20):
            x, spec = random_join(np.random.default_rng(seed), mutation)
            assert reason in validate_drop_preserving(x, spec).reason, seed
            if mutation == "signal":
                with pytest.raises(SignalSpaceMismatch):
                    drop_preserving_join(x, spec, force=True)
                continue
            y = drop_preserving_join(x, spec, force=True)
            assert not check_join_preservation(x, y, spec), seed
