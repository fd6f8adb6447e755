import numpy as np
import pytest

from gen import random_cptni, random_density, random_occurrence_annotated
from qpn.algebra import Channel, FactorPermutation, apply, channels_close, effect, is_cptni
from qpn.annotation import (
    GlobalValuation,
    LocalAnnotation,
    annotation_is_cptni,
    check_local_obliviousness,
    signature,
    validate_signatures,
)
from qpn.demo import branching_demo
from qpn.errors import DimensionMismatch
from qpn.nets import (
    NEGATIVE,
    POSITIVE,
    Net,
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


def _channels_net(chans):
    """A net of one neutral transition per channel, each on a place of its
    channel's input dimension."""
    flow = {(f"p{t}", t) for t in chans}
    net = Net({f"p{t}" for t in chans}, set(chans), flow, set(), {t: "0" for t in chans})
    return net, LocalAnnotation({f"p{t}": c.dim_in for t, c in chans.items()}, chans)


def _skewed(chan):
    """The channel with an effect that is not Hermitian, which no Kraus
    list gives, planted in its cached effect."""
    chan.__dict__["_effect"] = effect(chan) + np.triu(np.ones((chan.dim_in,) * 2), 1) * 1e-3
    return chan


def _is_cptni_scan(net, ann):
    """The cptni stage as one is_cptni per channel, in sorted order."""
    for t in sorted(net.transitions):
        out = is_cptni(ann.channel(t))
        if not out:
            return t, out.reason, out.data["tni_min_eig"].hex()
    return None


class TestCptniStage:
    def test_verdict_is_the_is_cptni_scan(self):
        """Channels of dims 1-5, some scaled past trace non-increase: the
        stage names the least failing transition with is_cptni's text and
        eigenvalue, bit for bit."""
        r = np.random.default_rng(17)
        fails = 0
        for _ in range(30):
            chans = {}
            for i in range(int(r.integers(1, 12))):
                f = random_cptni(r, int(r.integers(1, 6)), int(r.integers(1, 4)))
                chans[f"t{i:02d}"] = f.scaled(float(r.choice([1.0, 1.0, 1.0, 1.5])))
            net, ann = _channels_net(chans)
            out, want = annotation_is_cptni(net, ann), _is_cptni_scan(net, ann)
            assert bool(out) == (want is None)
            if want is not None:
                t, reason, lo = want
                assert (out.data["transition"], out.reason, out.data["tni_min_eig"].hex()) \
                    == (t, f"channel on {t}: {reason}", lo)
                fails += 1
        assert fails >= 5

    @pytest.mark.parametrize("skewed, failing, raises", [
        ("a", "b", True), ("b", "a", False), ("a", "c", True), ("c", "a", False)])
    def test_a_skewed_effect_raises_where_the_scan_meets_it(self, skewed, failing, raises):
        """a and b have input dimension 2, c has 3: a skewed effect raises
        only when no transition before it fails, whatever the dimensions."""
        chans = {"a": Channel.identity(2).scaled(0.5), "b": Channel.identity(2).scaled(0.5),
                 "c": Channel.identity(3).scaled(0.5)}
        chans[failing] = chans[failing].scaled(3.0)
        _skewed(chans[skewed])
        net, ann = _channels_net(chans)
        if raises:
            with pytest.raises(DimensionMismatch, match="not Hermitian"):
                annotation_is_cptni(net, ann)
            with pytest.raises(DimensionMismatch, match="not Hermitian"):
                _is_cptni_scan(net, ann)
        else:
            out = annotation_is_cptni(net, ann)
            assert out.data["transition"] == failing == _is_cptni_scan(net, ann)[0]


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
