"""Renaming ids reorders tensor factors; no verdict or number may change.

Every operator on a marking orders its factors lexicographically by place
id, signal factors last by event id.  Renaming the places so that this
order reverses, and optionally the transitions too, must leave verdicts,
worst drop eigenvalues, run probabilities and sampled runs unchanged.
A parallel composition is a QPN exactly when both of its parts are.
"""

import itertools

import numpy as np
import pytest

from gen import (
    clique_net,
    racy_net,
    random_density,
    random_occurrence_annotated,
    random_state_machine,
)
from qpn.algebra import Channel, FactorPermutation
from qpn.annotation import LocalAnnotation
from qpn.checker import check_local_drop, is_qpn
from qpn.compose import AnnotatedNet, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.nets import (
    NEGATIVE,
    POSITIVE,
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


def rename(an: AnnotatedNet, reverse_events: bool):
    """Copy of ``an`` whose place order is reversed; transition order is
    reversed too if ``reverse_events``, kept otherwise.  Each channel is
    carried to the new order of its pre- and post-set factors.  Returns the
    copy and the id map."""
    net, ann = an.net, an.ann
    places = sorted(net.places)
    events = sorted(net.transitions)
    ren = {p: f"p{len(places) - 1 - i:03d}" for i, p in enumerate(places)}
    ren |= {t: f"t{len(events) - 1 - i if reverse_events else i:03d}"
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


def _same(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL


@pytest.mark.parametrize("reverse_events", [False, True])
@pytest.mark.parametrize("name,an", CASES, ids=[c[0] for c in CASES])
def test_verdict_and_worst_drop_survive_renaming(name, an, reverse_events):
    ren_an, _ = rename(an, reverse_events)
    assert bool(is_qpn(an.net, an.ann)) == bool(is_qpn(ren_an.net, ren_an.ann))
    assert _same(check_local_drop(an.net, an.ann).worst,
                 check_local_drop(ren_an.net, ren_an.ann).worst)


@pytest.mark.parametrize("reverse_events", [False, True])
@pytest.mark.parametrize("name,an", [c for c in CASES if isinstance(c[1].net, OccurrenceNet)],
                         ids=[c[0] for c in CASES if isinstance(c[1].net, OccurrenceNet)])
def test_run_probability_survives_renaming(name, an, reverse_events):
    o, ann = an.net, an.ann
    ren_an, ren = rename(an, reverse_events)
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
    ren_an, ren = rename(an, reverse_events=False)
    ann, m0 = an.ann, an.net.initial_marking
    rho = random_density(np.random.default_rng(3), int(np.prod([ann.dim(p) for p in m0])))
    ren_rho = renamed_state(ann, m0, ren, rho)
    for seed in range(5):
        want = sample_execution(an.net, ann, rho, seed=seed, max_steps=40)
        got = sample_execution(ren_an.net, ren_an.ann, ren_rho, seed=seed, max_steps=40)
        assert [ren.get(r["event"], r["event"]) for r in want.log] == \
            [r["event"] for r in got.log]
        assert got.halted == want.halted
        assert got.marking == {ren[p] for p in want.marking}


def test_parallel_verdict_is_the_conjunction():
    """is_qpn(A ∥ B) == is_qpn(A) and is_qpn(B), failing components included."""
    # two-dimensional places keep every product marking space within the
    # operator dimension cap
    parts = [random_occurrence_annotated(np.random.default_rng(s), max_dim=2)
             for s in range(4)]
    parts += [random_state_machine(np.random.default_rng(s), max_dim=2) for s in range(2)]
    parts += [clique_net(None, 3), two_phase_cycle(), branching_demo(scaled=False), racy_net()]
    verdicts = [bool(is_qpn(an.net, an.ann)) for an in parts]
    assert any(verdicts) and not all(verdicts)
    for (a, ok_a), (b, ok_b) in itertools.combinations(zip(parts, verdicts), 2):
        both, _ = parallel(a, b)
        assert bool(is_qpn(both.net, both.ann)) == (ok_a and ok_b)
