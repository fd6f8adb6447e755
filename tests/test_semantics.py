import math
import tracemalloc

import numpy as np
import pytest

from gen import (clique_net, joinable_net, random_cptni, random_density,
                 random_occurrence_annotated)
from oracles import _fire_state
from qpn import semantics
from qpn.algebra import MAX_TOTAL_DIM, Channel, FactorPermutation, apply
from qpn.annotation import GlobalValuation, LocalAnnotation, space_dim
from qpn.checker import _embedded_effect
from qpn.compose import parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.errors import BoundExceeded, DimensionMismatch, MissingEnvInput, NotAQpn
from qpn.nets import (
    Net,
    OccurrenceNet,
    as_occurrence_net,
    interval,
    marking_of_configuration,
    verify_safety,
)
from qpn.semantics import (
    maximally_mixed_policy,
    run_probability,
    sample_execution,
    sub_probability_check,
)


MIXED2 = np.eye(2, dtype=complex) / 2


def _demo_occ():
    bd = branching_demo()
    return as_occurrence_net(bd.net), bd.ann


class TestRunProbability:
    def test_demo_values(self):
        o, ann = _demo_occ()
        rho = random_density(np.random.default_rng(3), 4)
        env = {"a": MIXED2}
        gv = GlobalValuation(o, ann)
        p_a = run_probability(o, ann, interval(o, {"p0"}, {"p1", "p2"}),
                              rho, env)
        p_ab = run_probability(o, ann, interval(o, {"p0"}, {"p2", "p4"}),
                               rho, env)
        p_ac = run_probability(o, ann, interval(o, {"p0"}, {"p2", "p3"}),
                               rho, env)
        assert abs(p_a - 1.0) < 1e-12
        assert abs(p_ab - 0.5) < 1e-12
        assert abs(p_ac - 0.5) < 1e-12

    def test_collapsed_interval_is_certain(self):
        o, ann = _demo_occ()
        rho = random_density(np.random.default_rng(4), 4)
        assert run_probability(o, ann, interval(o, {"p0"}, {"p0"}), rho) \
            == pytest.approx(1.0)

    def test_missing_environment_state(self):
        o, ann = _demo_occ()
        with pytest.raises(MissingEnvInput):
            run_probability(o, ann, interval(o, {"p0"}, {"p1", "p2"}),
                            np.eye(4) / 4)

    def test_shape_mismatches(self):
        o, ann = _demo_occ()
        iv = interval(o, {"p0"}, {"p1", "p2"})
        with pytest.raises(DimensionMismatch):
            run_probability(o, ann, iv, np.eye(2) / 2, {"a": MIXED2})
        with pytest.raises(DimensionMismatch):
            run_probability(o, ann, iv, np.eye(4) / 4,
                            {"a": np.eye(3) / 3})

    def test_monotone_along_extensions(self):
        """Extending a run can only lose probability mass."""
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(10):
            x = random_occurrence_annotated(rng, max_events=5)
            o, ann = x.net, x.ann
            gv = GlobalValuation(o, ann)
            dim0 = space_dim(ann, o.initial_marking)
            rho = random_density(rng, dim0)
            env = {e: np.eye(ann.signal_dim(e)) / ann.signal_dim(e)
                   for e in o.transitions if o.pol(e) == "-"}
            configs = sorted(o.all_configurations(), key=sorted)
            probs = {}
            for x in configs:
                m = marking_of_configuration(o, x)
                probs[x] = run_probability(o, ann, interval(o, o.initial_marking, m),
                                           rho, env)
            for x in configs:
                for y in configs:
                    if x < y:
                        assert probs[y] <= probs[x] + 1e-9
                        checked += 1
        assert checked >= 20


def _chains(rng, w, k, dim=2, pol="0", h=1):
    """w disjoint chains of k events on dim-dim places; channels are
    random_cptni of weight p (effect p * I), or the trace map dim*h -> 1
    for negative events.  Returns the occurrence net, its annotation, the
    source and target markings and the product of the weights."""
    dims, flow, pols, chans, hs, product = {}, set(), {}, {}, {}, 1.0
    for j in range(w):
        cs = [f"w{j}c{i}" for i in range(k + 1)]
        dims |= {c: dim for c in cs}
        for i in range(k):
            e = f"w{j}e{i}"
            flow |= {(cs[i], e), (e, cs[i + 1])}
            pols[e] = pol
            if pol == "-":
                hs[e] = h
                chans[e] = Channel(dim * h, dim, tuple(
                    np.eye(dim * h)[i::h] for i in range(h)))
            else:
                p = float(rng.uniform(0.5, 1.0))
                product *= p
                chans[e] = random_cptni(rng, dim, dim, weight=p)
    o = OccurrenceNet(set(dims), set(pols), flow, {f"w{j}c0" for j in range(w)}, pols)
    verify_safety(o)
    end = frozenset(f"w{j}c{k}" for j in range(w))
    return o, LocalAnnotation(dims, chans, hs), o.initial_marking, end, product


def _channel_oracle(o, ann, iv, rho, env):
    for e in sorted(iv.sigma):
        if o.pol(e) == "-":
            rho = np.kron(rho, env[e])
    return float(np.real(np.trace(apply(GlobalValuation(o, ann).q_interval(iv), rho))))


class TestPushForward:
    @pytest.mark.parametrize("case", range(14))
    def test_matches_the_interval_channel(self, case):
        rng = np.random.default_rng(case)
        an = branching_demo(scaled=case == 12) if case >= 12 \
            else random_occurrence_annotated(rng)
        o = as_occurrence_net(an.net) if case >= 12 else an.net
        ann = an.ann
        rho = random_density(rng, space_dim(ann, o.initial_marking))
        env = {e: random_density(rng, ann.signal_dim(e))
               for e in sorted(o.transitions) if o.pol(e) == "-"}
        for cfg in sorted(o.all_configurations(), key=sorted):
            iv = interval(o, o.initial_marking, marking_of_configuration(o, cfg))
            assert abs(run_probability(o, ann, iv, rho, env)
                       - _channel_oracle(o, ann, iv, rho, env)) <= 1e-12

    def test_six_wires_of_three_events_stay_small(self):
        rng = np.random.default_rng(0)
        o, ann, start, end, product = _chains(rng, 6, 3)
        rho = random_density(rng, 64)
        tracemalloc.start()
        try:
            p = run_probability(o, ann, interval(o, start, end), rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(p - product) <= 1e-12
        assert peak < 50 * 2**20  # the Kraus product carries 2^18 operators

    def test_layer_zero_past_the_cap_raises_before_allocating(self):
        # seven environment inputs of dimension 4 on a one-dimensional
        # chain: the channel's layer 0 is 4^7 = 16384-dimensional, while
        # the pushed state joins one input at a time and never exceeds 4
        o, ann, start, end, _ = _chains(None, 1, 7, dim=1, pol="-", h=4)
        iv = interval(o, start, end)
        env = {e: np.eye(4) / 4 for e in o.transitions}
        tracemalloc.start()
        try:
            assert abs(run_probability(o, ann, iv, np.eye(1), env) - 1) <= 1e-12
            with pytest.raises(BoundExceeded, match="interval space dimension 16384"):
                GlobalValuation(o, ann).q_interval(iv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a 16384-dim state would take 4 GiB


def _idle_beside_negative():
    """Marked p (dim 2) beside an idle marked r (dim 512), and a negative
    identity event t on p with an 8-dim environment input: joining that
    input to the 1024-dim marking state would make it 8192-dimensional."""
    net = as_occurrence_net(Net({"p", "q", "r"}, {"t"}, {("p", "t"), ("t", "q")},
                                {"p", "r"}, {"t": "-"}))
    verify_safety(net)
    ann = LocalAnnotation({"p": 2, "q": 16, "r": 512}, {"t": Channel.identity(16)},
                          {"t": 8})
    return net, ann


@pytest.mark.parametrize("run", ["sample", "probability"])
def test_environment_join_past_the_cap_raises_before_kron(monkeypatch, run):
    net, ann = _idle_beside_negative()
    rho = np.eye(1024, dtype=complex) / 1024
    asked, kron = [], semantics._kron

    def recording(a, b):
        asked.append(np.shape(a)[0] * np.shape(b)[0])
        if asked[-1] > MAX_TOTAL_DIM:
            raise MemoryError(f"the join asked for a {asked[-1]}-dim matrix")
        return kron(a, b)

    monkeypatch.setattr(semantics, "_kron", recording)
    with pytest.raises(BoundExceeded, match="8192"):
        if run == "sample":
            sample_execution(net, ann, rho)
        else:
            run_probability(net, ann, interval(net, {"p", "r"}, {"q", "r"}), rho,
                            {"t": np.eye(8) / 8})
    assert asked == []


class TestSubProbability:
    def test_demo_branches_sum_to_one(self):
        bd = branching_demo()
        out = sub_probability_check(bd.net, bd.ann, {"p1", "p2"}, ["b", "c"])
        assert out
        assert out.data["total"] == pytest.approx(1.0)
        assert out.data["residue"] == pytest.approx(0.0, abs=1e-12)
        assert out.data["branches"]["b"] == pytest.approx(0.5)

    def test_clique_residue_is_halting_mass(self):
        x = clique_net(np.random.default_rng(0), 2, weights=[1 / 3, 1 / 3])
        out = sub_probability_check(x.net, x.ann, {"hub"}, ["k0", "k1"])
        assert out
        assert out.data["residue"] == pytest.approx(1 / 3)
        assert out.data["total"] == pytest.approx(2 / 3)

    def test_given_state_is_reduced_to_the_cluster(self):
        # a state on all of Q(m) = Q(a) ⊗ Q(hub) is read on hub alone,
        # where k0 and k1 measure in the computational basis
        net = Net({"a", "hub", "o0", "o1"}, {"k0", "k1"},
                  {("hub", "k0"), ("k0", "o0"), ("hub", "k1"), ("k1", "o1")},
                  {"a", "hub"}, {"k0": "0", "k1": "0"})
        ann = LocalAnnotation({"a": 3, "hub": 2, "o0": 2, "o1": 2},
                              {"k0": Channel(2, 2, (np.diag([1.0, 0.0]),)),
                               "k1": Channel(2, 2, (np.diag([0.0, 1.0]),))})
        rho = np.kron(np.eye(3) / 3, np.diag([0.7, 0.3]))
        out = sub_probability_check(net, ann, {"a", "hub"}, ["k0", "k1"], rho)
        assert out
        assert out.data["branches"] == pytest.approx({"k0": 0.7, "k1": 0.3})
        assert out.data["residue"] == pytest.approx(0.0, abs=1e-12)

    def test_branch_sum_catches_a_wrong_branch_weight(self, monkeypatch):
        # mutation: the sampler's branch weight of c is read off its first
        # Kraus operator alone, which gives 1/4 instead of 1/2
        def first_kraus_effect(net, ann, m, e):
            chan = ann.channel(e)
            ann = LocalAnnotation(ann.dims, {e: Channel(chan.dim_in, chan.dim_out,
                                                        chan.kraus[:1])}, ann.h)
            return _embedded_effect(net, ann, m, e)

        monkeypatch.setattr(semantics, "_embedded_effect", first_kraus_effect)
        x = clique_net(np.random.default_rng(0), 2, weights=[1 / 2, 1 / 2])
        two = Channel(2, 2, np.stack([np.eye(2), np.eye(2)]) / 2)  # two Kraus operators
        ann = LocalAnnotation(x.ann.dims, x.ann.channels | {"k1": two})
        out = sub_probability_check(x.net, ann, {"hub"}, ["k0", "k1"])
        assert not out
        assert out.data["branches"] == pytest.approx({"k0": 0.5, "k1": 0.25})
        total = sum(out.data["branches"].values())
        assert out.reason == f"branch sum {total} != 1 - residue 1.0"

    def test_unscaled_demo_fails(self):
        bd = branching_demo(scaled=False)
        out = sub_probability_check(bd.net, bd.ann, {"p1", "p2"}, ["b", "c"])
        assert not out
        assert "residue" in out.reason


def test_sub_probability_stays_on_the_cluster_pre_places():
    # one 2-dim event beside two idle marked 32-dim places: the marking
    # space is 2048-dimensional, the cluster's pre-places 2-dimensional
    net = Net({"p", "q", "i1", "i2"}, {"t"}, {("p", "t"), ("t", "q")},
              {"p", "i1", "i2"}, {"t": "0"})
    ann = LocalAnnotation({"p": 2, "q": 2, "i1": 32, "i2": 32},
                          {"t": Channel.identity(2).scaled(0.5)})
    tracemalloc.start()
    try:
        out = sub_probability_check(net, ann, {"p", "i1", "i2"}, ["t"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out and out.data["branches"]["t"] == pytest.approx(0.5)
    assert out.data["residue"] == pytest.approx(0.5)
    assert peak < 2**20  # the maximally mixed 2048-dim state alone takes 64 MiB
    with pytest.raises(DimensionMismatch, match="marking space is 2048"):
        sub_probability_check(net, ann, {"p", "i1", "i2"}, ["t"], np.eye(2) / 2)


class TestSampler:
    def test_requires_verified_net(self):
        bd = branching_demo()
        fresh = Net(bd.net.places, bd.net.transitions, bd.net.flow,
                    bd.net.initial_marking, bd.net.polarity)
        with pytest.raises(NotAQpn):
            sample_execution(fresh, bd.ann, np.eye(4) / 4)

    def test_rejects_a_state_off_the_initial_marking_space(self):
        bd = branching_demo()
        with pytest.raises(DimensionMismatch,
                           match=r"initial state has shape \(2, 2\), marking space is 4"):
            sample_execution(bd.net, bd.ann, np.eye(2) / 2)

    def test_seed_determinism(self):
        bd = branching_demo()
        rho = np.eye(4, dtype=complex) / 4
        a = sample_execution(bd.net, bd.ann, rho, seed=7)
        b = sample_execution(bd.net, bd.ann, rho, seed=7)
        assert a.log == b.log
        assert a.marking == b.marking and a.halted == b.halted

    def test_demo_runs_end_in_deadlock(self):
        bd = branching_demo()
        rho = np.eye(4, dtype=complex) / 4
        st = sample_execution(bd.net, bd.ann, rho, seed=1)
        assert st.halted == "deadlock"
        assert st.log[0]["event"] == "a" and st.log[0]["kind"] == "env"
        assert st.marking in ({"p2", "p3"}, {"p2", "p4"})

    def test_branch_frequencies_match_probabilities(self):
        bd = branching_demo()
        rho = np.eye(4, dtype=complex) / 4
        runs = 400
        hits = sum(sample_execution(bd.net, bd.ann, rho, seed=s).marking
                   == {"p2", "p4"} for s in range(runs))
        # p = 1/2; allow 3 standard errors
        assert abs(hits / runs - 0.5) < 3 * 0.5 / math.sqrt(runs)

    def test_halt_frequency_matches_drop_expectation(self):
        x = clique_net(np.random.default_rng(0), 2, weights=[0.3, 0.3])
        rho = np.eye(2, dtype=complex) / 2
        runs = 400
        halts = sum(sample_execution(x.net, x.ann, rho, seed=s).halted
                    == "residual" for s in range(runs))
        assert abs(halts / runs - 0.4) < 3 * math.sqrt(0.4 * 0.6 / runs)

    def test_branch_probabilities_match_the_embedded_effect(self):
        """Replaying each sampled run on the sorted marking space, every
        recorded prob is tr(E_e · rho)/tr(rho) with E_e embedded in the full
        marking space, and the run ends in the replayed marking and state,
        whichever way it halts."""
        nets = [branching_demo(), two_phase_cycle(),
                clique_net(np.random.default_rng(0), 3, weights=[0.2, 0.3, 0.1])]
        # seeds 16 and 30 fire events with generic effects on part of
        # their cluster's pre-places
        nets += [random_occurrence_annotated(np.random.default_rng(s))
                 for s in (*range(8), 16, 30)]
        # positive events sharing a pre-place, after two negative ones
        nets += [joinable_net(np.random.default_rng(0), neg, True) for neg in (False, True)]
        checked, narrower, halts = 0, 0, set()
        for an in nets:
            net, ann = an.net, an.ann
            policy = maximally_mixed_policy(ann)
            dim = space_dim(ann, net.initial_marking)
            rho0 = random_density(np.random.default_rng(dim), dim)
            for seed in range(5):
                run = sample_execution(net, ann, rho0, seed=seed, max_steps=12)
                m, rho = frozenset(net.initial_marking), rho0
                for rec in run.log:
                    e = rec["event"]
                    if rec.get("kind") == "env":
                        m, rho = _fire_state(net, ann, m, e, rho, policy(None, e))
                        continue
                    tr = np.real(np.trace(rho))
                    want = {f: np.real(np.trace(_embedded_effect(net, ann, m, f) @ rho)) / tr
                            for f in rec["cluster"]}
                    if e == "HALT":
                        assert abs(rec["prob"] - max(1 - sum(want.values()), 0)) <= 1e-12
                        break
                    assert abs(rec["prob"] - want[e]) <= 1e-12
                    # e's effect is embedded on the cluster's pre-places
                    narrower += net.pre(e) < set().union(*map(net.pre, rec["cluster"]))
                    m, rho = _fire_state(net, ann, m, e, rho)
                    rho = rho / rec["prob"]
                    checked += 1
                assert run.marking == m
                np.testing.assert_allclose(run.state, rho, rtol=0, atol=1e-12)
                halts.add(run.halted)
        assert checked >= 40 and narrower >= 1
        assert halts == {"deadlock", "residual", "max_steps"}

    def test_one_permute_per_step_and_one_at_return(self, monkeypatch):
        rng = np.random.default_rng(3)
        an = clique_net(rng, 3, weights=[0.3, 0.3, 0.3])
        for k in (2, 4):
            an, _ = parallel(an, clique_net(rng, k, weights=[0.9 / k] * k))
        verify_safety(an.net)
        rho0 = random_density(rng, 8)
        calls = []
        permute = FactorPermutation.permute

        def counting(self, *args, **kwargs):
            calls.append(self)
            return permute(self, *args, **kwargs)

        monkeypatch.setattr(FactorPermutation, "permute", counting)
        steps = 0
        for seed in range(10):
            calls.clear()
            run = sample_execution(an.net, an.ann, rho0, seed=seed)
            assert 0 < len(calls) <= len(run.log) + 1
            steps += len(run.log)
        assert steps > 10  # some runs resolve more than one clique

    def test_plans_are_kept_on_the_net(self, monkeypatch):
        an = joinable_net(np.random.default_rng(0), True, True)
        calls = []
        clusters = semantics.marking_clusters

        def counting(*args):
            calls.append(args)
            return clusters(*args)

        monkeypatch.setattr(semantics, "marking_clusters", counting)
        dim = space_dim(an.ann, an.net.initial_marking)
        rho = random_density(np.random.default_rng(1), dim)
        first = sample_execution(an.net, an.ann, rho, seed=3)
        assert calls and first.log
        calls.clear()
        again = sample_execution(an.net, an.ann, rho, seed=3)
        assert calls == []
        assert again.log == first.log and np.array_equal(again.state, first.state)

    def test_sampling_leaves_probabilities_alone(self):
        """Sampling and exact probabilities interleaved on one net read as
        on fresh nets: the sampler's plans kept on the net change neither."""
        rng = np.random.default_rng(5)
        for _ in range(6):
            x = random_occurrence_annotated(rng)
            o, ann = x.net, x.ann
            dim = space_dim(ann, o.initial_marking)
            rho = random_density(rng, dim)
            env = {e: np.eye(ann.signal_dim(e)) / ann.signal_dim(e)
                   for e in sorted(o.transitions) if o.pol(e) == "-"}

            def fresh():
                n = OccurrenceNet(o.places, o.transitions, o.flow, o.initial_marking,
                                  o.polarity)
                verify_safety(n)
                return n

            for seed, cfg in enumerate(sorted(o.all_configurations(), key=sorted)):
                iv = interval(o, o.initial_marking, marking_of_configuration(o, cfg))
                assert run_probability(o, ann, iv, rho, env) == \
                    run_probability(fresh(), ann, iv, rho, env)
                got, want = (sample_execution(n, ann, rho, seed=seed) for n in (o, fresh()))
                assert got.log == want.log and got.halted == want.halted
                assert got.marking == want.marking
                assert np.array_equal(got.state, want.state)
            assert o._plans[0] is ann

    def test_another_annotation_replaces_the_plans(self):
        x = clique_net(np.random.default_rng(0), 3, weights=[0.2, 0.3, 0.1])
        other = LocalAnnotation(x.ann.dims, {t: ch.scaled(1.5) for t, ch in
                                            x.ann.channels.items()}, x.ann.h)
        rho = np.eye(2, dtype=complex) / 2
        for seed in range(6):
            ann = (x.ann, other)[seed % 2]
            fresh = Net(x.net.places, x.net.transitions, x.net.flow,
                        x.net.initial_marking, x.net.polarity)
            verify_safety(fresh)
            got = sample_execution(x.net, ann, rho, seed=seed)
            want = sample_execution(fresh, ann, rho, seed=seed)
            assert got.log == want.log and got.halted == want.halted
            assert got.marking == want.marking
            assert np.array_equal(got.state, want.state)

    def test_cycle_hits_step_limit(self):
        tc = two_phase_cycle()
        st = sample_execution(tc.net, tc.ann, np.eye(2) / 2, max_steps=9)
        assert st.halted == "max_steps"
        assert len(st.log) == 9

    def test_policy_receives_the_log(self):
        bd = branching_demo()
        seen = []

        def policy(log, event):
            seen.append((len(log), event))
            return MIXED2

        sample_execution(bd.net, bd.ann, np.eye(4) / 4, env_policy=policy,
                         seed=0)
        assert seen == [(0, "a")]
