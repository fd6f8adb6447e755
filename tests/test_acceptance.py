"""End-to-end acceptance checks, one test per certification criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with ``pytest -v -s``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gen import clique_net, joinable_net, random_occurrence_annotated, \
    random_state_machine
from oracles import drop_inductive, recursive_sum_check
from qpn.algebra import Channel, FactorPermutation, channels_close
from qpn.annotation import GlobalValuation, LocalAnnotation, space_dim
from qpn.checker import (
    brute_force_global_drop,
    check_local_drop,
    clique_drop,
    cluster_factorization_check,
    drop_effect,
    is_local_qon,
    is_qpn,
    single_extension_drop,
)
from qpn.compose import AnnotatedNet, JoinSpec, check_join_preservation, \
    drop_preserving_join, parallel
from qpn.demo import branching_demo, two_phase_cycle
from qpn.nets import (
    Net,
    as_occurrence_net,
    interval,
    marking_clusters,
    marking_of_configuration,
    race_free,
    verify_safety,
)
from qpn.semantics import run_probability, sample_execution
from qpn.unfolding import UnfoldBudget, transfer_annotation, unfold


X = np.array([[0, 1], [1, 0]], dtype=complex)


def _report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'} {name}"
          + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _is_permutation_matrix(m, tol=1e-12):
    near = np.where(np.abs(m) > tol, np.round(np.real(m)), 0.0)
    if not np.allclose(m, near, atol=tol):
        return False
    return (np.allclose(near.sum(axis=0), 1.0)
            and np.allclose(near.sum(axis=1), 1.0)
            and np.all((near == 0) | (near == 1)))


def test_criterion_1_branching_example_reproduction():
    """Marking-space dimensions, signal spaces and the two interval
    channels of the built-in branching net match their closed forms."""
    t0 = time.perf_counter()
    bd = branching_demo(scaled=False)
    o = as_occurrence_net(bd.net)
    ann = bd.ann
    gv = GlobalValuation(o, ann)

    ok = space_dim(ann, o.initial_marking) == 4
    m_a = marking_of_configuration(o, frozenset({"a"}))
    ok &= space_dim(ann, m_a) == 8
    ok &= ann.signal_dim("a") == 2 and ann.signal_dim("c") == 2

    chan_a = gv.q(o.initial_marking, m_a)
    ok &= bool(channels_close(Channel.identity(8), chan_a, tol=1e-12))

    m_ac = marking_of_configuration(o, frozenset({"a", "c"}))
    chan_c = gv.q(m_a, m_ac)
    # X on the consumed qubit, identity on the spectator, some wire shuffle
    k = sum(chan_c.kraus)  # single Kraus operator (unitary channel)
    residue = k @ np.kron(X, np.eye(4))  # X is an involution
    ok &= _is_permutation_matrix(residue)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("criterion-1 branching example reproduction", ok,
            f"{elapsed:.3f}s")


def test_criterion_2_single_extension_sufficiency():
    """The marking-local single-extension check and the brute-force
    enumeration over all configuration extensions agree on 50 random
    annotated occurrence nets, and local PSD implies global PSD."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    agree = psd_sound = 0
    for _ in range(50):
        x = random_occurrence_annotated(rng, max_events=6)
        o, ann = x.net, x.ann
        local = check_local_drop(o, ann)
        brute = brute_force_global_drop(o, ann)
        if local.passed != brute.passed:
            _report("criterion-2 single-extension sufficiency", False,
                    "verdict mismatch")
        agree += 1
        if local.passed:
            worst = min((i.min_eig for i in brute.instances), default=0.0)
            if worst < -1e-9:
                _report("criterion-2 single-extension sufficiency", False,
                        f"general drop effect not PSD: {worst}")
            psd_sound += 1
    elapsed = time.perf_counter() - t0
    ok = agree == 50 and elapsed < 300
    _report("criterion-2 single-extension sufficiency", ok,
            f"{agree} agreements, {psd_sound} PSD-sound, {elapsed:.1f}s")


def test_criterion_3_cluster_factorization():
    """On markings with two cross-compatible conflict clusters the joint
    drop effect factors as the tensor of the per-cluster effects."""
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 10:
        x = random_occurrence_annotated(rng)
        o, ann = x.net, x.ann
        for cfg in sorted(o.all_configurations(), key=sorted):
            m = marking_of_configuration(o, cfg)
            clusters = marking_clusters(o, m)
            if len(clusters) < 2:
                continue
            a, b = sorted(clusters[0]), sorted(clusters[1])
            out = cluster_factorization_check(o, ann, m, a, b)
            if not out:
                _report("criterion-3 cluster factorization", False, out.reason)
            checked += 1
            break
    _report("criterion-3 cluster factorization", checked >= 10,
            f"{checked} two-cluster instances")


def _drop_instances(seed, nets):
    rng = np.random.default_rng(seed)
    while True:
        x = random_occurrence_annotated(rng, max_events=5)
        gv = GlobalValuation(x.net, x.ann)
        configs = sorted(x.net.all_configurations(), key=sorted)
        for cfg in configs:
            ys = [y for y in configs
                  if cfg < y and all(x.net.pol(e) != "-" for e in y - cfg)]
            if ys:
                yield gv, cfg, ys[:3]


def test_criterion_4_drop_identities():
    """Inclusion-exclusion, the inductive peel-off, collapsed-interval
    vanishing and the recursive-sum rearrangement give the same values."""
    inductive = collapsed = recursive = 0
    for gv, x, ys in _drop_instances(103, None):
        if min(inductive, collapsed, recursive) >= 100:
            break
        d1 = drop_effect(gv, x, ys)
        if not np.allclose(d1, drop_inductive(gv, x, ys), atol=1e-10):
            _report("criterion-4 drop identities", False,
                    f"inductive mismatch at {sorted(x)}")
        inductive += 1

        if not np.allclose(drop_effect(gv, x, [x] + ys), 0, atol=1e-10):
            _report("criterion-4 drop identities", False,
                    f"collapsed interval not zero at {sorted(x)}")
        collapsed += 1

        o = gv.net
        y_big = ys[-1]
        mids = [x | {e} for e in y_big - x
                if o.is_configuration(x | {e}) and x | {e} != y_big]
        if mids:
            out = recursive_sum_check(gv, x, ys[:-1], mids[0], y_big)
            if not out:
                _report("criterion-4 drop identities", False, out.reason)
            recursive += 1
    ok = inductive >= 100 and collapsed >= 100 and recursive >= 100
    _report("criterion-4 drop identities", ok,
            f"inductive={inductive} collapsed={collapsed} "
            f"recursive={recursive}")


def test_criterion_5_obliviousness_and_functoriality():
    """All-negative intervals act as plain rewirings (identity up to the
    canonical factor order), and interval channels compose along chains."""
    rng = np.random.default_rng(104)
    negative_ivs = triples = 0
    for _ in range(25):
        if negative_ivs >= 15 and triples >= 15:
            break
        x = random_occurrence_annotated(rng, max_events=5)
        o, ann = x.net, x.ann
        gv = GlobalValuation(o, ann)
        configs = sorted(o.all_configurations(), key=sorted)
        markings = {cfg: marking_of_configuration(o, cfg) for cfg in configs}
        for cfg in configs:
            if cfg and all(o.pol(e) == "-" for e in cfg):
                chan = gv.q(o.initial_marking, markings[cfg])
                k = sum(chan.kraus)
                if not (_is_permutation_matrix(k, tol=1e-10)
                        and len(chan.kraus) == 1):
                    _report("criterion-5 obliviousness and functoriality",
                            False, f"negative interval not a rewiring: {sorted(cfg)}")
                negative_ivs += 1
        checked_here = 0
        for c1, c2 in itertools.combinations(configs, 2):
            if checked_here >= 3:
                break
            if not c1 < c2 or any(o.pol(e) == "+" for e in c2 - c1):
                continue
            c3 = next((c for c in configs if c2 < c
                       and all(o.pol(e) != "-" for e in c - c2)), None)
            if c3 is None:
                continue
            q12 = gv.q(markings[c1], markings[c2])
            q23 = gv.q(markings[c2], markings[c3])
            q13 = gv.q(markings[c1], markings[c3])
            # extensional comparison is cubic in the dimensions; keep the
            # sampled triples at desk scale
            cost = q12.dim_in ** 2 * q23.dim_out \
                * len(q12.kraus) * len(q23.kraus)
            if cost > 200_000:
                continue
            composed = Channel(q12.dim_in, q23.dim_out,
                               tuple(k2 @ k1 for k2 in q23.kraus
                                     for k1 in q12.kraus))
            out = channels_close(q13, composed, tol=1e-10)
            if not out:
                _report("criterion-5 obliviousness and functoriality",
                        False, f"composition law fails: {out.reason}")
            triples += 1
            checked_here += 1
    ok = negative_ivs >= 10 and triples >= 10
    _report("criterion-5 obliviousness and functoriality", ok,
            f"{negative_ivs} negative intervals, {triples} triples")


def test_criterion_6_local_definition_matches_unfolding():
    """The marking-local verdict on a cyclic safe net equals the
    occurrence-net verdict on its depth-4 unfolding."""
    rng = np.random.default_rng(105)
    agree = 0
    for _ in range(30):
        sm = random_state_machine(rng)
        direct = bool(is_qpn(sm.net, sm.ann))
        bp = unfold(sm.net, UnfoldBudget(4, 5000))
        via_unfolding = bool(is_local_qon(bp.occ,
                                          transfer_annotation(bp, sm.ann)))
        if direct != via_unfolding:
            _report("criterion-6 local definition vs unfolding", False,
                    f"verdicts differ: direct={direct}")
        agree += 1
    _report("criterion-6 local definition vs unfolding", agree == 30,
            f"{agree} nets")


def _random_joinable(rng):
    """A randomized joinable QPN in the two-pair matched-cluster shape."""
    h = int(rng.integers(2, 4))
    dims = {"s": 2, "u1": h, "u2": h, "d1": 2 * h, "d2": 2 * h,
            "v1": 1, "v2": 1, "w": 1}
    pol = {"n1": "-", "n2": "-", "p1": "+", "p2": "+"}
    flow = {("s", "n1"), ("s", "n2"), ("n1", "d1"), ("n2", "d2"),
            ("u1", "p1"), ("p1", "v1"), ("u2", "p2"), ("p2", "v2"),
            ("w", "p1"), ("w", "p2")}
    net = Net(set(dims), set(pol), flow, {"s", "u1", "u2", "w"}, pol)
    verify_safety(net)

    def haar(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    channels = {
        "n1": Channel.identity(2 * h), "n2": Channel.identity(2 * h),
        "p1": Channel.from_unitary(haar(h)).scaled(0.5),
        "p2": Channel.from_unitary(haar(h)).scaled(0.5),
    }
    ann = LocalAnnotation(dims, channels,
                          {"n1": h, "n2": h, "p1": h, "p2": h})
    return AnnotatedNet(net, ann)


def test_criterion_7_composition_preservation():
    """Parallel products of QPNs stay QPNs; valid cluster joins keep
    race-freeness and the drop verdict; an invalid join breaks it."""
    rng = np.random.default_rng(106)
    pars = joins = 0
    attempts = 0
    while pars < 5 and attempts < 80:
        attempts += 1
        a = random_state_machine(rng)
        b = random_state_machine(rng)
        if not (is_qpn(a.net, a.ann) and is_qpn(b.net, b.ann)):
            continue
        c, _ = parallel(a, b)
        if not is_qpn(c.net, c.ann):
            _report("criterion-7 composition preservation", False,
                    "parallel product lost the QPN property")
        pars += 1

    spec = JoinSpec((("p1", "n1"), ("p2", "n2")))
    for _ in range(30):
        x = _random_joinable(rng)
        if not is_qpn(x.net, x.ann):
            _report("criterion-7 composition preservation", False,
                    "generated pre-join net is not a QPN")
        y = drop_preserving_join(x, spec)
        if not race_free(y.net):
            _report("criterion-7 composition preservation", False,
                    "join broke race-freeness")
        if not (is_qpn(y.net, y.ann) and check_join_preservation(x, y, spec)):
            _report("criterion-7 composition preservation", False,
                    "join broke the drop condition")
        joins += 1

    # non-vacuity: a conflict-dropping pairing, forced through, fails
    bad = joinable_net(rng, True, False)
    forced = drop_preserving_join(bad, spec, force=True)
    verdict = is_qpn(forced.net, forced.ann)
    ok = pars >= 5 and joins == 30 and not verdict \
        and verdict.data["stage"] == "drop"
    _report("criterion-7 composition preservation", ok,
            f"{pars} products, {joins} joins, forced bad join fails")


def test_criterion_8_probability_semantics():
    """Exact run probabilities never increase along extensions, and the
    sampler's branch frequencies match 0.5 within 3 standard errors at
    10000 runs on the half-weighted branching net."""
    rng = np.random.default_rng(107)
    monotone = 0
    for _ in range(8):
        x = random_occurrence_annotated(rng, max_events=5)
        o, ann = x.net, x.ann
        gv = GlobalValuation(o, ann)
        dim0 = space_dim(ann, o.initial_marking)
        rho = np.eye(dim0, dtype=complex) / dim0
        env = {e: np.eye(ann.signal_dim(e)) / ann.signal_dim(e)
               for e in o.transitions if o.pol(e) == "-"}
        configs = sorted(o.all_configurations(), key=sorted)
        probs = {cfg: run_probability(
            o, ann, interval(o, o.initial_marking,
                             marking_of_configuration(o, cfg)),
            rho, env) for cfg in configs}
        for c1, c2 in itertools.combinations(configs, 2):
            if c1 < c2:
                if probs[c2] > probs[c1] + 1e-9:
                    _report("criterion-8 probability semantics", False,
                            "probability increased along an extension")
                monotone += 1

    bd = branching_demo()
    rho = np.eye(4, dtype=complex) / 4
    runs = 10_000
    hits = sum(sample_execution(bd.net, bd.ann, rho, seed=s).marking
               == {"p2", "p4"} for s in range(runs))
    freq = hits / runs
    sigma = math.sqrt(0.25 / runs)
    ok = monotone >= 20 and abs(freq - 0.5) < 3 * sigma
    _report("criterion-8 probability semantics", ok,
            f"{monotone} monotone pairs, frequency {freq:.4f} vs 0.5 "
            f"(3 sigma = {3 * sigma:.4f})")


def test_criterion_9_clique_fast_path(monkeypatch):
    """The linear clique formula agrees with the quadratic single-extension
    check and the full evaluator, and touches each event's effect once."""
    rng = np.random.default_rng(108)
    agreements = 0
    for size in (2, 3, 4, 5):
        weights = rng.dirichlet(np.ones(size)) * rng.uniform(0.5, 1.0)
        x = clique_net(rng, size, weights=list(weights))
        o, ann = x.net, x.ann
        m = frozenset(o.initial_marking)
        clique = sorted(t for t in o.transitions)
        d1 = clique_drop(o, ann, m, clique)
        d2 = single_extension_drop(o, ann, m, clique)
        gv = GlobalValuation(o, ann)
        d3 = drop_effect(gv, frozenset(),
                         [frozenset({t}) for t in clique])
        if not (np.allclose(d1, d2, atol=1e-10)
                and np.allclose(d1, d3, atol=1e-10)):
            _report("criterion-9 clique fast path", False,
                    f"three-way disagreement at size {size}")
        agreements += 1

    import qpn.checker as checker_mod
    counts = {}
    original = checker_mod._embedded_effect

    for size in range(2, 11):
        x = clique_net(rng, size)
        calls = [0]

        def counting(net, ann, m, e, _calls=calls):
            _calls[0] += 1
            return original(net, ann, m, e)

        monkeypatch.setattr(checker_mod, "_embedded_effect", counting)
        clique_drop(x.net, x.ann, frozenset(x.net.initial_marking),
                    sorted(x.net.transitions))
        monkeypatch.setattr(checker_mod, "_embedded_effect", original)
        counts[size] = calls[0]

    linear = all(counts[s] == s for s in counts)
    _report("criterion-9 clique fast path",
            agreements == 4 and linear,
            f"{agreements} agreements, effect evaluations {counts}")
