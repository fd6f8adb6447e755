import numpy as np
import pytest

from gen import random_density, random_occurrence_annotated
from qpn.algebra import Channel, FactorPermutation, apply, channels_close, effect
from qpn.annotation import (
    GlobalValuation,
    LocalAnnotation,
    check_local_obliviousness,
    signature,
    validate_signatures,
)
from qpn.demo import branching_demo
from qpn.nets import (
    NEGATIVE,
    POSITIVE,
    OccurrenceNet,
    as_occurrence_net,
    interval,
    marking_of_configuration,
    verify_safety,
)

rng = np.random.default_rng(7)


def assert_basis_relabeling(chan, tol=1e-10):
    """The channel is conjugation by a permutation of the computational
    basis (identity up to the canonical reordering of wire factors)."""
    m = sum(chan.kraus)
    assert np.all(np.abs(np.abs(m) * (np.abs(m) - 1)) < tol)  # 0/1 entries
    assert np.allclose(m @ m.conj().T, np.eye(chan.dim_out), atol=tol)
    assert np.allclose(effect(chan), np.eye(chan.dim_in), atol=tol)


class TestSignatures:
    def test_demo_signatures(self):
        bd = branching_demo()
        assert signature(bd.net, bd.ann, "a") == (8, 8)
        assert signature(bd.net, bd.ann, "b") == (2, 2)
        assert signature(bd.net, bd.ann, "c") == (2, 2)
        assert validate_signatures(bd.net, bd.ann)

    def test_wrong_channel_dim_caught(self):
        bd = branching_demo()
        ann = LocalAnnotation(dict(bd.ann.dims),
                              dict(bd.ann.channels) | {"b": Channel.identity(3)},
                              dict(bd.ann.h))
        out = validate_signatures(bd.net, ann)
        assert not out and out.data["transition"] == "b"

    def test_missing_channel_caught(self):
        bd = branching_demo()
        chans = dict(bd.ann.channels)
        del chans["c"]
        out = validate_signatures(bd.net, LocalAnnotation(bd.ann.dims, chans,
                                                          bd.ann.h))
        assert not out and "c" in out.reason


class TestObliviousness:
    def test_identity_negative_passes(self):
        bd = branching_demo()
        assert check_local_obliviousness(bd.net, bd.ann)

    def test_non_identity_negative_fails(self):
        bd = branching_demo()
        u = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
        ann = LocalAnnotation(dict(bd.ann.dims),
                              dict(bd.ann.channels) | {"a": Channel.from_unitary(u)},
                              dict(bd.ann.h))
        out = check_local_obliviousness(bd.net, ann)
        assert not out and out.data["transition"] == "a"

    def test_dimension_count_mismatch_reported_first(self):
        net_ann = branching_demo()
        net = net_ann.net
        dims = dict(net_ann.ann.dims) | {"p2": 2}  # 2*2 != 4*2
        ann = LocalAnnotation(
            dims, dict(net_ann.ann.channels) | {"a": Channel.identity(4)},
            dict(net_ann.ann.h))
        out = check_local_obliviousness(net, ann)
        assert not out and "dimension" in out.reason


class TestEvaluation:
    def test_collapsed_interval_is_identity(self):
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        gv = GlobalValuation(o, bd.ann)
        chan = gv.q(frozenset({"p0"}), frozenset({"p0"}))
        assert channels_close(chan, Channel.identity(4))

    def test_interval_channel_matches_a_dense_reference(self):
        """[p0; {a, c}] reads its input as (p0, h-a) and writes its output
        as (p2, p3, h+c): a maps p0 (x) h-a onto p1 (x) p2, c acts on p1
        and leaves (p3, h+c, p2), which is reordered last."""
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        iv = interval(o, frozenset({"p0"}), marking_of_configuration(o, {"a", "c"}))
        out = FactorPermutation((1, 2, 4), (2, 0, 1)).matrix()
        want = [out @ np.kron(kc, np.eye(4)) @ ka
                for kc in bd.ann.channel("c").kraus for ka in bd.ann.channel("a").kraus]
        chan = GlobalValuation(o, bd.ann).q_interval(iv)
        assert channels_close(chan, Channel(8, 8, tuple(want)))

    def test_memoization_reuses_channels(self):
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        gv = GlobalValuation(o, bd.ann)
        m2 = marking_of_configuration(o, {"a"})
        assert gv.q(frozenset({"p0"}), m2) is gv.q(frozenset({"p0"}), m2)

    def test_concurrent_events_evaluate_as_tensor(self):
        """Two independent tokens processed by independent events: the
        interval channel must be the tensor of the two local channels."""
        f = Channel(2, 2, (np.array([[0.6, 0], [0, 0.8]], dtype=complex),))
        g = Channel.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        o = OccurrenceNet({"a0", "a1", "b0", "b1"}, {"t", "u"},
                          {("a0", "t"), ("t", "a1"), ("b0", "u"), ("u", "b1")},
                          {"a0", "b0"}, {"t": "0", "u": "0"})
        verify_safety(o)
        ann = LocalAnnotation({"a0": 2, "a1": 2, "b0": 2, "b1": 2},
                              {"t": f, "u": g})
        gv = GlobalValuation(o, ann)
        chan = gv.q(frozenset({"a0", "b0"}), frozenset({"a1", "b1"}))
        rho, sig = random_density(rng, 2), random_density(rng, 2)
        got = apply(chan, np.kron(rho, sig))
        want = np.kron(apply(f, rho), apply(g, sig))
        assert np.allclose(got, want, atol=1e-12)

    def test_sequential_events_compose(self):
        """A chain fires through both events; tested against hand
        composition of the two channels."""
        f = Channel(2, 3, (rng.normal(size=(3, 2)) * 0.4,))
        g = Channel(3, 2, (rng.normal(size=(2, 3)) * 0.4,))
        o = OccurrenceNet({"x", "y", "z"}, {"t", "u"},
                          {("x", "t"), ("t", "y"), ("y", "u"), ("u", "z")},
                          {"x"}, {"t": "0", "u": "0"})
        verify_safety(o)
        ann = LocalAnnotation({"x": 2, "y": 3, "z": 2}, {"t": f, "u": g})
        chan = GlobalValuation(o, ann).q(frozenset({"x"}), frozenset({"z"}))
        rho = random_density(rng, 2)
        assert np.allclose(apply(chan, rho), apply(g, apply(f, rho)), atol=1e-12)

    def test_all_negative_interval_is_identity_on_random_nets(self):
        """With oblivious negatives, an interval firing only negative
        events is the identity up to the canonical wire relabeling: its
        matrix is a basis permutation and it preserves every state."""
        gen = np.random.default_rng(11)
        checked = 0
        for _ in range(30):
            x = random_occurrence_annotated(gen)
            o, ann = x.net, x.ann
            gv = GlobalValuation(o, ann)
            for cfg in sorted(o.all_configurations(), key=sorted):
                if not cfg or any(o.pol(e) != NEGATIVE for e in cfg):
                    continue
                m0 = frozenset(o.initial_marking)
                chan = gv.q(m0, marking_of_configuration(o, cfg))
                assert chan.dim_in == chan.dim_out
                assert_basis_relabeling(chan)
                checked += 1
        assert checked >= 5

    def test_positive_event_keeps_signal_factor_last(self):
        bd = branching_demo()
        o = as_occurrence_net(bd.net)
        gv = GlobalValuation(o, bd.ann)
        m_a = marking_of_configuration(o, {"a"})
        m_ac = marking_of_configuration(o, {"a", "c"})
        chan = gv.q(m_a, m_ac)
        # output = Q(p2) x Q(p3) x H(c) = 4*1*2
        assert (chan.dim_in, chan.dim_out) == (8, 8)
        assert np.allclose(effect(chan), 0.5 * np.eye(8))
