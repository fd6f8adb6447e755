"""Renaming ids reorders tensor factors; no verdict or number may change.

Every operator on a marking orders its factors lexicographically by place
id, signal factors last by event id.  Renaming the places so that this
order reverses, and optionally the transitions too, must leave verdicts,
worst drop eigenvalues, run probabilities, interval channels, joins and
sampled runs unchanged.  Signal factors stay last even when every event
id sorts before every place id: code that sorted a whole factor list by
id would put them first there.  A parallel composition is a QPN exactly
when both of its parts are.  Another Kraus list of every channel (Choi
1975: related by an isometry) leaves verdicts, drops, run probabilities
and sampled runs unchanged.
"""

import itertools

import numpy as np
import pytest

from gen import (
    clique_net,
    joinable_net,
    kraus_presentations,
    racy_net,
    random_density,
    random_occurrence_annotated,
    random_state_machine,
)
from qpn.algebra import Channel, FactorPermutation, apply, channels_close
from qpn.annotation import GlobalValuation, LocalAnnotation
from qpn.checker import check_local_drop, is_qpn
from qpn.compose import AnnotatedNet, JoinSpec, drop_preserving_join, joined_id, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.netfile import load_net, save_net
from qpn.nets import (
    NEGATIVE,
    POSITIVE,
    Net,
    OccurrenceNet,
    interval,
    marking_of_configuration,
    verify_safety,
)
from qpn.semantics import run_probability, sample_execution

TOL = 1e-12


def carry(ann: LocalAnnotation, ids, ren, signal: int = 1) -> np.ndarray:
    """The unitary taking factors in sorted(ids) order, then a signal
    factor, to sorted renamed-id order, then the signal factor."""
    ids = sorted(ids)
    back = {ren[p]: i for i, p in enumerate(ids)}
    order = [back[q] for q in sorted(back)] + [len(ids)]
    dims = tuple(ann.dim(p) for p in ids) + (signal,)
    return FactorPermutation(dims, tuple(order)).matrix()


def rename(an: AnnotatedNet, reverse_events: bool, events_first: bool = False):
    """Copy of ``an`` whose place order is reversed; transition order is
    reversed too if ``reverse_events``, kept otherwise.  Every event id
    sorts after every place id, or before it if ``events_first``.  Each
    channel is carried to the new order of its pre- and post-set factors.
    Returns the copy and the id map."""
    net, ann = an.net, an.ann
    places = sorted(net.places)
    events = sorted(net.transitions)
    ren = {p: f"p{len(places) - 1 - i:03d}" for i, p in enumerate(places)}
    tag = "e" if events_first else "t"
    ren |= {t: f"{tag}{len(events) - 1 - i if reverse_events else i:03d}"
            for i, t in enumerate(events)}
    out = type(net)({ren[p] for p in net.places}, {ren[t] for t in net.transitions},
                    {(ren[a], ren[b]) for a, b in net.flow},
                    {ren[p] for p in net.initial_marking},
                    {ren[t]: net.pol(t) for t in net.transitions})
    assert verify_safety(out)
    channels = {}
    for t in net.transitions:
        h = ann.signal_dim(t)
        u_in = carry(ann, net.pre(t), ren, h if net.pol(t) == NEGATIVE else 1)
        u_out = carry(ann, net.post(t), ren, h if net.pol(t) == POSITIVE else 1)
        c = ann.channel(t)
        channels[ren[t]] = Channel(c.dim_in, c.dim_out,
                                   tuple(u_out @ k @ u_in.T for k in c.kraus))
    out_ann = LocalAnnotation({ren[p]: d for p, d in ann.dims.items()}, channels,
                              {ren[t]: v for t, v in ann.h.items()})
    return AnnotatedNet(out, out_ann), ren


def renamed_state(ann: LocalAnnotation, marking, ren, rho):
    """rho on Q(marking), carried to the factor order of the renamed ids."""
    u = carry(ann, marking, ren)
    return u @ rho @ u.T


def maximal_configuration(o: OccurrenceNet):
    x = frozenset()
    while True:
        ext = sorted(e for e in o.transitions if o.enables(x, e))
        if not ext:
            return x
        x = x | {ext[0]}


def cases():
    out = [(f"occurrence-{s}", random_occurrence_annotated(np.random.default_rng(s)))
           for s in range(10)]
    out += [(f"clique-{k}", clique_net(np.random.default_rng(k), k)) for k in (2, 3, 5)]
    out += [(f"state-machine-{s}", random_state_machine(np.random.default_rng(s)))
            for s in range(8)]
    return out


CASES = cases()
OCCURRENCE_CASES = [c for c in CASES if isinstance(c[1].net, OccurrenceNet)]

# rename's (reverse_events, events_first), by test id: "False" and "True"
# keep events after places and give reverse_events
RENAMINGS = {"False": (False, False), "True": (True, False), "events-first": (True, True)}


def _same(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL


@pytest.mark.parametrize("renaming", RENAMINGS.values(), ids=RENAMINGS)
@pytest.mark.parametrize("name,an", CASES, ids=[c[0] for c in CASES])
def test_verdict_and_worst_drop_survive_renaming(name, an, renaming):
    ren_an, _ = rename(an, *renaming)
    assert bool(is_qpn(an.net, an.ann)) == bool(is_qpn(ren_an.net, ren_an.ann))
    assert _same(check_local_drop(an.net, an.ann).worst,
                 check_local_drop(ren_an.net, ren_an.ann).worst)


@pytest.mark.parametrize("renaming", RENAMINGS.values(), ids=RENAMINGS)
@pytest.mark.parametrize("name,an", OCCURRENCE_CASES, ids=[c[0] for c in OCCURRENCE_CASES])
def test_run_probability_survives_renaming(name, an, renaming):
    o, ann = an.net, an.ann
    ren_an, ren = rename(an, *renaming)
    rng = np.random.default_rng(7)
    x = maximal_configuration(o)
    m0 = o.initial_marking
    rho = random_density(rng, int(np.prod([ann.dim(p) for p in m0])))
    env = {e: random_density(rng, ann.signal_dim(e))
           for e in sorted(x) if o.pol(e) == NEGATIVE}
    want = run_probability(o, ann, interval(o, m0, marking_of_configuration(o, x)),
                           rho, env)
    ro = ren_an.net
    rx = {ren[e] for e in x}
    got = run_probability(ro, ren_an.ann,
                          interval(ro, ro.initial_marking, marking_of_configuration(ro, rx)),
                          renamed_state(ann, m0, ren, rho),
                          {ren[e]: s for e, s in env.items()})
    assert _same(want, got)


@pytest.mark.parametrize("name,an", CASES, ids=[c[0] for c in CASES])
def test_sampled_run_survives_renaming(name, an):
    # The sampler spends its random draws in event-id order, so only a
    # renaming that keeps that order can replay the same run.
    ann, m0 = an.ann, an.net.initial_marking
    rho = random_density(np.random.default_rng(3), int(np.prod([ann.dim(p) for p in m0])))
    for events_first in (False, True):
        ren_an, ren = rename(an, False, events_first)
        ren_rho = renamed_state(ann, m0, ren, rho)
        for seed in range(5):
            want = sample_execution(an.net, ann, rho, seed=seed, max_steps=40)
            got = sample_execution(ren_an.net, ren_an.ann, ren_rho, seed=seed, max_steps=40)
            assert [ren.get(r["event"], r["event"]) for r in want.log] == \
                [r["event"] for r in got.log]
            assert got.halted == want.halted
            assert got.marking == {ren[p] for p in want.marking}


def carry_layout(ann: LocalAnnotation, o: OccurrenceNet, marking, events, pol, ren):
    """The unitary taking one side of an interval's factors (the sorted
    marking, then the signals of the ``events`` of polarity ``pol`` in id
    order) to the same layout of the renamed ids."""
    signals = [e for e in events if o.pol(e) == pol]
    now = sorted(marking) + sorted(signals)
    want = sorted(ren[p] for p in marking) + sorted(ren[e] for e in signals)
    dim = {ren[x]: ann.factor_dim(x) for x in now}
    return FactorPermutation.between([ren[x] for x in now], want, dim.__getitem__).matrix()


def interval_pairs(o: OccurrenceNet):
    """Every (x, y) pair of configurations with x ⊊ y, in a fixed order."""
    configs = sorted(o.all_configurations(64), key=lambda x: (len(x), sorted(x)))
    return [(x, y) for x in configs for y in configs if x < y]


@pytest.mark.parametrize("renaming", RENAMINGS.values(), ids=RENAMINGS)
@pytest.mark.parametrize("name,an", OCCURRENCE_CASES, ids=[c[0] for c in OCCURRENCE_CASES])
def test_interval_channels_survive_renaming(name, an, renaming):
    """Q[m; m2] on the renamed net is Q[m; m2] carried to its layout: the
    sorted marking, then the signals of the interval's negative (input) or
    positive (output) events by renamed id.  The channels reach 96-dim
    inputs, past what `channels_close` reads on every matrix unit in
    time, so they are compared on a random input, where two channels
    that differ differ almost surely."""
    o, ann = an.net, an.ann
    ren_an, ren = rename(an, *renaming)
    gv, ren_gv = GlobalValuation(o, ann), GlobalValuation(ren_an.net, ren_an.ann)
    rng = np.random.default_rng(11)
    pairs = interval_pairs(o)
    assert pairs
    for x, y in pairs:
        m, m2 = marking_of_configuration(o, x), marking_of_configuration(o, y)
        q = gv.q(m, m2)
        u_in = carry_layout(ann, o, m, y - x, NEGATIVE, ren)
        u_out = carry_layout(ann, o, m2, y - x, POSITIVE, ren)
        got = ren_gv.q({ren[p] for p in m}, {ren[p] for p in m2})
        a = rng.normal(size=(q.dim_in,) * 2) + 1j * rng.normal(size=(q.dim_in,) * 2)
        np.testing.assert_allclose(apply(got, u_in @ a @ u_in.T), u_out @ apply(q, a) @ u_out.T,
                                   rtol=0, atol=1e-10, err_msg=str((sorted(x), sorted(y))))


@pytest.mark.parametrize("renaming", RENAMINGS.values(), ids=RENAMINGS)
@pytest.mark.parametrize("conflicts, pairs", [
    (False, (("p1", "n1"),)), (True, (("p1", "n1"), ("p2", "n2")))], ids=["one", "cluster"])
def test_join_survives_renaming(conflicts, pairs, renaming):
    """A drop-preserving join of the renamed net is the renamed join: each
    joined channel is the original one carried to the renamed pre- and
    post-set order, and the verdict is the same."""
    an = joinable_net(None, conflicts, conflicts)
    ren_an, ren = rename(an, *renaming)
    joined = drop_preserving_join(an, JoinSpec(pairs))
    ren_joined = drop_preserving_join(ren_an, JoinSpec(tuple((ren[p], ren[n]) for p, n in pairs)))
    assert bool(is_qpn(joined.net, joined.ann)) == bool(is_qpn(ren_joined.net, ren_joined.ann))
    for p, n in pairs:
        j = joined_id(p, n)
        u_in, u_out = carry(an.ann, joined.net.pre(j), ren), carry(an.ann, joined.net.post(j), ren)
        c = joined.ann.channel(j)
        want = Channel(c.dim_in, c.dim_out, tuple(u_out @ k @ u_in.T for k in c.kraus))
        assert channels_close(want, ren_joined.ann.channel(joined_id(ren[p], ren[n])))


def test_parallel_verdict_is_the_conjunction():
    """is_qpn(A ∥ B) == is_qpn(A) and is_qpn(B), failing components included."""
    # the drop stage works on each cluster's pre-places, so the default
    # dimensions give product marking spaces past the operator dimension
    # cap (five pairs of seeds 0-4 above 4096) that still get a verdict
    parts = [random_occurrence_annotated(np.random.default_rng(s), max_dim=2)
             for s in range(4)]
    parts += [random_occurrence_annotated(np.random.default_rng(s)) for s in range(5)]
    parts += [random_state_machine(np.random.default_rng(s), max_dim=2) for s in range(2)]
    parts += [clique_net(None, 3), two_phase_cycle(), branching_demo(scaled=False), racy_net()]
    verdicts = [bool(is_qpn(an.net, an.ann)) for an in parts]
    assert any(verdicts) and not all(verdicts)
    for (a, ok_a), (b, ok_b) in itertools.combinations(zip(parts, verdicts), 2):
        both, _ = parallel(a, b)
        assert bool(is_qpn(both.net, both.ann)) == (ok_a and ok_b)


def test_composite_and_its_rebuilt_copy_get_the_same_verdict():
    """The safety stage explores a composite's markings like any other
    net's: its marking bound applies, whatever the parts were verified to."""
    rng = np.random.default_rng(3)
    an = random_state_machine(rng)
    for _ in range(2):
        an, _ = parallel(an, random_state_machine(rng))
    net = an.net
    copy = Net(net.places, net.transitions, net.flow, net.initial_marking, net.polarity)
    for bound in (5, 100_000):
        got, want = is_qpn(net, an.ann, marking_bound=bound), \
            is_qpn(copy, an.ann, marking_bound=bound)
        assert (got.passed, got.reason) == (want.passed, want.reason)
    assert is_qpn(net, an.ann, marking_bound=5).reason == \
        "safety: more than 5 reachable markings"


@pytest.mark.parametrize("name,an", CASES, ids=[c[0] for c in CASES])
def test_verdicts_and_drops_survive_kraus_freedom(name, an, tmp_path):
    """Each of `gen.kraus_presentations`: the same verdict and deciding
    stage, the same drop instances with every min_eig within TOL, and a
    net file that loads to channels `channels_close` accepts against the
    original's."""
    want = is_qpn(an.net, an.ann)
    drops = check_local_drop(an.net, an.ann).instances
    save_net(tmp_path / "net.json", an.net, an.ann)
    _, ann, _, _ = load_net(tmp_path / "net.json")
    rng = np.random.default_rng(list(map(ord, name)))
    for how, other in kraus_presentations(rng, an).items():
        got = is_qpn(other.net, other.ann)
        assert (got.passed, got.data["stage"]) == (want.passed, want.data["stage"]), how
        got_drops = check_local_drop(other.net, other.ann).instances
        assert [r.key for r in got_drops] == [r.key for r in drops], how
        for r, g in zip(drops, got_drops):
            assert _same(r.min_eig, g.min_eig) and r.passed == g.passed, (how, r.key)
        save_net(tmp_path / f"{how}.json", other.net, other.ann)
        _, got_ann, _, _ = load_net(tmp_path / f"{how}.json")
        for t in sorted(an.net.transitions):
            assert len(got_ann.channel(t).kraus) > len(ann.channel(t).kraus)
            assert channels_close(ann.channel(t), got_ann.channel(t)), (how, t)


@pytest.mark.parametrize("name,an", OCCURRENCE_CASES, ids=[c[0] for c in OCCURRENCE_CASES])
def test_run_probabilities_survive_kraus_freedom(name, an):
    """Each of `gen.kraus_presentations`: the same probability, within TOL,
    on every interval, from a random state with random environment states."""
    o, ann = an.net, an.ann
    rng = np.random.default_rng(list(map(ord, name)))
    others = kraus_presentations(rng, an)
    pairs = interval_pairs(o)
    assert pairs
    for x, y in pairs:
        iv = interval(o, marking_of_configuration(o, x), marking_of_configuration(o, y))
        rho = random_density(rng, int(np.prod([ann.dim(p) for p in iv.from_marking])))
        env = {e: random_density(rng, ann.signal_dim(e))
               for e in sorted(iv.sigma) if o.pol(e) == NEGATIVE}
        want = run_probability(o, ann, iv, rho, env)
        for how, other in others.items():
            got = run_probability(o, other.ann, iv, rho, env)
            assert _same(want, got), (how, sorted(x), sorted(y))


@pytest.mark.parametrize("name,an", CASES, ids=[c[0] for c in CASES])
def test_sampled_runs_survive_kraus_freedom(name, an):
    """Each of `gen.kraus_presentations`: the same events, clusters and
    halts in replayed runs, with every branch probability within TOL."""
    ann, m0 = an.ann, an.net.initial_marking
    rng = np.random.default_rng(list(map(ord, name)))
    rho = random_density(rng, int(np.prod([ann.dim(p) for p in m0])))
    for how, other in kraus_presentations(rng, an).items():
        for seed in range(5):
            want = sample_execution(an.net, ann, rho, seed=seed, max_steps=40)
            got = sample_execution(an.net, other.ann, rho, seed=seed, max_steps=40)
            assert [(r["event"], r.get("cluster")) for r in got.log] == \
                [(r["event"], r.get("cluster")) for r in want.log], (how, seed)
            assert (got.halted, got.marking) == (want.halted, want.marking), (how, seed)
            for r, g in zip(want.log, got.log):
                assert _same(r["prob"], g["prob"]), (how, seed, r["step"])
