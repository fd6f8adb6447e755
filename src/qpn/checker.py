"""Drop-function computation and net certification.

The drop function of a configuration x against extensions y1..yn is the
inclusion-exclusion sum over compatible sub-families of the effects of the
corresponding interval channels.  Positivity of every such effect is what
makes trace-of-evaluation a sub-probability over runs.  For single-event
extensions it is one deletion-contraction recurrence on branch effects,
which on a clique reduces to the identity minus their sum; the local check
evaluates it once per distinct conflict cluster, each family on its own
pre-places, and serves every reachable marking from that.  This module
also holds the general evaluator and its inductive forms, the brute-force
global oracle used to cross-validate the local check, and the top-level
net verdicts.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    TOL_CHANNEL_EQ,
    TOL_PSD,
    Channel,
    FactorPermutation,
    effect,
    embed_operator,
    hermitize,
    min_eigenvalue,
    min_eigenvalues,
)
from .annotation import (
    GlobalValuation,
    LocalAnnotation,
    annotation_is_cptni,
    check_local_obliviousness,
    space_dim,
    validate_signatures,
)
from .errors import (
    BoundExceeded,
    CrossClusterConflict,
    IncompatibleExtension,
    NegativeEventInCluster,
    NotAClique,
    NotEnabled,
    SafetyUnverified,
)
from .nets import (
    NEGATIVE,
    DEFAULT_MARKING_BOUND,
    Net,
    OccurrenceNet,
    component_clusters,
    component_witness,
    flow_components,
    is_clique,
    is_occurrence_net,
    marking_of_configuration,
    race_free,
    verify_safety,
)
from .outcome import CheckOutcome

DEFAULT_CLUSTER_CAP = 12
DEFAULT_CONFIG_BOUND = 64


# --------------------------------------------------------------------------
# general evaluator on configuration families


def _union_config(o: OccurrenceNet, ys):
    u = frozenset().union(*ys) if ys else frozenset()
    return u if o.is_configuration(u) else None


def _check_extensions(o: OccurrenceNet, x, ys):
    x = frozenset(x)
    for y in ys:
        y = frozenset(y)
        if not x <= y:
            raise IncompatibleExtension(f"{sorted(y)} does not extend {sorted(x)}")
        for e in sorted(y - x):
            if o.pol(e) == NEGATIVE:
                raise IncompatibleExtension(
                    f"extension adds negative event {e}")


def drop_effect(gv: GlobalValuation, x, ys) -> np.ndarray:
    """d[x; y1..yn] as a Hermitian effect on Q(m) for m the marking of x.

    Sum over index sets I whose union y_I is a configuration of
    (-1)^|I| * effect(Q[m; marking(y_I)]); the empty set contributes the
    identity.  Extensions must add only non-negative events, so no
    environment-input factors occur and the effect lives on Q(m) alone.
    """
    o = gv.net
    x = frozenset(x)
    ys = [frozenset(y) for y in ys]
    _check_extensions(o, x, ys)
    m = marking_of_configuration(o, x)
    total = np.eye(space_dim(gv.ann, m), dtype=complex)
    for r in range(1, len(ys) + 1):
        for idx in itertools.combinations(range(len(ys)), r):
            y_union = _union_config(o, [ys[i] for i in idx])
            if y_union is None:
                continue
            chan = gv.q(m, marking_of_configuration(o, y_union))
            total = total + (-1) ** r * effect(chan)
    return hermitize(total)


def _compose_effect(chan: Channel, d_target: np.ndarray) -> np.ndarray:
    """Effect of [tr_{H} ⊗ d] ∘ Φ, where d acts on the condition factors of
    the output of Φ and H gathers its trailing signal factors, the rest of
    Φ's output dimension."""
    # Σ_k K†(d ⊗ I_H)K: the signal index of each K joins the Kraus index
    ks = chan.stack
    ks = ks.reshape(len(ks), -1, chan.dim_out // len(d_target), chan.dim_in).transpose(
        0, 2, 1, 3).reshape(-1, len(d_target), chan.dim_in)
    return (ks.conj().transpose(0, 2, 1) @ d_target @ ks).sum(0)


def drop_inductive(gv: GlobalValuation, x, ys) -> np.ndarray:
    """d[x; y1..yn] by peeling off the last extension.

    d[x;] is the identity effect; otherwise the head family is evaluated
    recursively and the tail contributes through the interval channel from
    x to yn, with the drop of the shifted family taken at yn.  Unions that
    fail to be configurations are incompatible with everything and are
    dropped from the shifted family.
    """
    o = gv.net
    x = frozenset(x)
    ys = [frozenset(y) for y in ys]
    _check_extensions(o, x, ys)
    if not ys:
        return np.eye(space_dim(gv.ann, marking_of_configuration(o, x)), dtype=complex)
    head, yn = ys[:-1], ys[-1]
    d_head = drop_inductive(gv, x, head)
    shifted = [y | yn for y in head if o.is_configuration(y | yn)]
    d_shift = drop_inductive(gv, yn, shifted)
    chan = gv.q(marking_of_configuration(o, x), marking_of_configuration(o, yn))
    return hermitize(d_head - _compose_effect(chan, d_shift))


def recursive_sum_check(gv: GlobalValuation, x, ys_head, yn, yn_big) -> CheckOutcome:
    """Identity, within TOL_CHANNEL_EQ, over a grown last extension yn ⊆ yn_big:

    d[x; ys, yn_big] = d[x; ys, yn]
                     + [tr ⊗ d[yn; ys∪yn, yn_big]] ∘ Q[x; yn].
    """
    o = gv.net
    x, yn, yn_big = frozenset(x), frozenset(yn), frozenset(yn_big)
    ys_head = [frozenset(y) for y in ys_head]
    if not (x <= yn <= yn_big):
        raise IncompatibleExtension("need x ⊆ yn ⊆ yn_big")
    lhs = drop_effect(gv, x, ys_head + [yn_big])
    first = drop_effect(gv, x, ys_head + [yn])
    shifted = [y | yn for y in ys_head if o.is_configuration(y | yn)]
    d_shift = drop_effect(gv, yn, shifted + [yn_big])
    chan = gv.q(marking_of_configuration(o, x), marking_of_configuration(o, yn))
    rhs = first + _compose_effect(chan, d_shift)
    err = float(np.max(np.abs(lhs - rhs)))
    if err > TOL_CHANNEL_EQ * max(1, lhs.shape[0]):
        return CheckOutcome.fail(f"recursive-sum identity off by {err:.2e}", error=err)
    return CheckOutcome.ok(error=err)


def expand_drop(gv: GlobalValuation, x, ys):
    """Evaluate d[x; y1..yn] by rewriting toward single-extension terms.

    Each rewrite splits the largest extension through one of its minimal
    added events; the product of extension sizes strictly decreases, which
    is asserted, so the rewriting terminates.  Returns (effect, steps).
    """
    o = gv.net
    x = frozenset(x)
    ys = [frozenset(y) for y in ys]
    _check_extensions(o, x, ys)
    steps = 0

    def weight(base, fam):
        return math.prod(len(y - base) for y in fam)

    def go(base, fam, w):
        nonlocal steps
        steps += 1
        if any(y == base for y in fam):
            dim = space_dim(gv.ann, marking_of_configuration(o, base))
            return np.zeros((dim, dim), dtype=complex)
        big = next((i for i, y in enumerate(fam) if len(y - base) > 1), None)
        if big is None:
            return drop_effect(gv, base, fam)
        fam = fam[:big] + fam[big + 1:] + [fam[big]]
        y_big = fam[-1]
        e = min(e for e in y_big - base if not any(o.lt(f, e) for f in y_big - base))
        y_small = base | {e}
        head = fam[:-1]
        left_fam = head + [y_small]
        shifted = [y | y_small for y in head if o.is_configuration(y | y_small)]
        right_fam = shifted + [y_big]
        wl, wr = weight(base, left_fam), weight(y_small, right_fam)
        assert wl < w and wr < w, "expansion weight failed to decrease"
        left = go(base, left_fam, wl)
        right = go(y_small, right_fam, wr)
        chan = gv.q(marking_of_configuration(o, base),
                    marking_of_configuration(o, y_small))
        return left + _compose_effect(chan, right)

    return hermitize(go(x, ys, weight(x, ys))), steps


# --------------------------------------------------------------------------
# fast paths on markings


def _embedded_effect(net: Net, ann: LocalAnnotation, m, e) -> np.ndarray:
    """effect(Q0(e)) placed on the pre-set factors inside Q(m); the effect
    itself, read-only, when the pre-set is all of m."""
    pre = net.pre(e)
    if len(pre) == len(m) and pre.issuperset(m):
        return effect(ann.channel(e))
    ids = sorted(m)
    return embed_operator(effect(ann.channel(e)), [ann.dim(p) for p in ids],
                          [ids.index(c) for c in sorted(pre)])


def _drop_recurrence(events, pre, effs, dim: int) -> np.ndarray:
    """Drop of ``events`` as single-event extensions: the independence
    polynomial of their conflict graph at -E (Scott & Sokal 2005), by
    deletion-contraction memoized over sub-families,
    d(F) = d(F∖v) - E_v·d(F∖N[v]), for v least in F and N[v] v with the
    events of F sharing a pre-place (per ``pre``) with it.  When N[v] is
    all of F, d(F∖N[v]) is the identity and E_v is subtracted as it is, so
    a clique's drop is built by subtraction alone.  E_v and d(F∖N[v]) act
    on disjoint factors, so every term is Hermitian up to rounding;
    :func:`min_eigenvalues` guards and symmetrizes it where a verdict is
    read.  ``effs`` maps each event to its effect on one space of
    dimension dim.
    """
    memo = {(): np.eye(dim, dtype=complex)}

    def d(fam):
        if fam not in memo:
            pre_v = pre(fam[0])
            far = tuple(e for e in fam[1:] if pre_v.isdisjoint(pre(e)))
            memo[fam] = d(fam[1:]) - (effs[fam[0]] @ d(far) if far else effs[fam[0]])
        return memo[fam]

    return d(tuple(sorted(events)))


def single_extension_drop(net: Net, ann: LocalAnnotation, m, events) -> np.ndarray:
    """d at marking m for single-event extensions, by :func:`_drop_recurrence`
    on the embedded branch effects: no interval channels are needed."""
    m = frozenset(m)
    events = sorted(events)
    for e in events:
        if not net.pre(e) <= m:
            raise NotEnabled(f"{e} is not enabled at {sorted(m)}")
        if net.pol(e) == NEGATIVE:
            raise NegativeEventInCluster(f"{e} is negative")
    effs = {e: _embedded_effect(net, ann, m, e) for e in events}
    return _drop_recurrence(events, net.pre, effs, space_dim(ann, m))


def clique_drop(net: Net, ann: LocalAnnotation, m, clique) -> np.ndarray:
    """d at marking m when the extension events are pairwise in conflict:
    the recurrence gives the identity minus the sum of embedded branch
    effects, linear in the size of the clique."""
    if not is_clique(net, clique):
        raise NotAClique(f"{sorted(clique)} are not pairwise in conflict")
    return single_extension_drop(net, ann, m, clique)


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DropInstanceResult:
    key: tuple  # (sorted marking, sorted events/extension tag)
    method: str  # "clique" | "single" | "general"
    min_eig: float
    passed: bool


class DropReport:
    """Drop results as one table, each family's minimum eigenvalue once.

    ``table`` maps a key (a sorted cluster, or the oracle's configuration)
    to (method, {family: min eigenvalue}); ``parts`` holds, per flow
    component of the net (or for the whole net as one part), {sorted
    marking: the keys met there}, with every reachable marking present,
    and ``shares`` each part's share of m0 (none by default).  A marking of
    the net is one per part and meets the union of their keys, so the
    verdict reads the table, the counts and :meth:`to_dict` the parts; the
    rows of :attr:`instances`, one per (marking of the net, family), walk
    their product when read.
    """

    tol = TOL_PSD  # a family passes when its minimum eigenvalue is at least -tol

    def __init__(self, table, parts, stats: dict, shares=()):
        self.table, self.parts, self.stats, self.shares = table, parts, stats, shares

    def _min_eigs(self):
        return (lo for _, fams in self.table.values() for lo in fams.values())

    @property
    def passed(self) -> bool:
        return all(lo >= -self.tol for lo in self._min_eigs())

    def __bool__(self):
        return self.passed

    @property
    def worst(self):
        return min(self._min_eigs(), default=float("inf"))

    def instance_count(self) -> int:
        """len(instances), without building them."""
        total = math.prod(map(len, self.parts))
        return sum(total // len(part) * len(self.table[key][1])
                   for part in self.parts for keys in part.values() for key in keys)

    @functools.cached_property
    def instances(self) -> list:
        out = []
        for combo in itertools.product(*(part.items() for part in self.parts)):
            m = tuple(sorted(itertools.chain.from_iterable(k for k, _ in combo)))
            out += [DropInstanceResult((m, fam), method, lo, lo >= -self.tol)
                    for _, keys in combo for method, fams in map(self.table.get, keys)
                    for fam, lo in fams.items()]
        return sorted(out, key=lambda r: r.key)

    def first_failure(self):
        """The failing instance of the worst family (the least min_eig, then
        the least family), or None, at the :func:`component_witness` of the
        markings whose keys hold it at that value."""
        if self.passed:
            return None
        lo, fam = min((lo, fam) for _, fams in self.table.values() for fam, lo in fams.items())
        hold = {key: method for key, (method, fams) in self.table.items() if fams.get(fam) == lo}
        m, method = component_witness([{m: hold[k] for m, keys in part.items() for k in keys
                                        if k in hold} for part in self.parts], self.shares)
        return DropInstanceResult((m, fam), method, lo, False)

    def to_dict(self):
        """The report document, linear in the parts: the table in key
        order, and each part's markings in sorted order with their keys."""
        return {"passed": self.passed, "tol": self.tol, "stats": self.stats,
                "table": [{"key": list(key), "method": method,
                           "families": [{"events": list(fam), "min_eig": lo}
                                        for fam, lo in fams.items()]}
                          for key, (method, fams) in sorted(self.table.items())],
                "parts": [[{"marking": list(m), "keys": list(map(list, keys))}
                           for m, keys in sorted(part.items())] for part in self.parts]}


def check_local_drop(net: Net, ann: LocalAnnotation,
                     marking_bound: int = DEFAULT_MARKING_BOUND,
                     cluster_cap: int = DEFAULT_CLUSTER_CAP) -> DropReport:
    """Drop positivity over every conflict cluster at every reachable marking.

    A family's drop depends only on its events, so each distinct cluster
    is evaluated once, every reported family on the union of its own
    pre-sets: on Q(m) its drop is that local effect ⊗ I, with the same
    spectrum.  Cliques report the whole clique (positivity on it implies it
    on every sub-family, since branch effects are PSD), as the identity
    minus its effects, last first, bit for bit the recurrence there; other
    clusters report every sub-family, by :func:`_drop_recurrence`.  Each
    effect is placed once per (event, support).  A singleton's drop is
    I - effect, which the cptni stage solves: its value is the channel's
    ``tni_min`` (solved by the same kernel if that stage did not run).
    The other drops are solved in batches: ``eigen_solves`` matrices in
    ``eigen_calls`` kernel calls.

    Events share pre-places only within a flow component, so the clusters
    at a marking of the net are those of its components' markings
    (:func:`component_clusters`), and each component is checked on its
    own.  A cluster over the cap is an error, raised at the
    :func:`component_witness` of each marking's first such cluster once
    every queued drop is solved, so a drop that is not Hermitian is first.
    """
    if not net.safety_verified:
        raise SafetyUnverified("run verify_safety before checking the drop condition")
    table = {}  # sorted cluster -> (method, {family: min eigenvalue, once solved})
    queues, calls = {}, []  # dim -> [(family dict, family, drop)]; kernel stack sizes

    def solve(n):
        queued = queues.pop(n)
        calls.append(len(queued))
        for (fams, fam, d), lo in zip(queued, min_eigenvalues([d for *_, d in queued])):
            fams[fam] = float(lo) if lo == lo else min_eigenvalue(d)  # NaN: it raises

    place = functools.cache(lambda e, support: _embedded_effect(net, ann, support, e))
    parts = component_clusters(net, marking_bound)
    for cl in dict.fromkeys(cl for part in parts for cls in part.values() for cl in cls
                            if len(cl) <= cluster_cap):
        clique = len(cl) > 1 and is_clique(net, cl)
        table[cl] = ("clique" if clique else "single", dict.fromkeys([cl] if clique else [
            fam for r in range(1, len(cl) + 1) for fam in itertools.combinations(cl, r)]))
    algebra.tni_min_eigenvalues([f for cl, (method, _) in table.items() if method == "single"
                                 for f in map(ann.channel, cl) if f.tni_min is None])
    for method, fams in table.values():
        for fam in fams:
            if len(fam) == 1 and ann.channel(fam[0]).tni_min is not None:
                fams[fam] = ann.channel(fam[0]).tni_min
                continue
            support = frozenset().union(*map(net.pre, fam))
            if method == "clique":
                drop = np.eye(space_dim(ann, support), dtype=complex)
                for e in reversed(fam):
                    drop -= place(e, support)
            else:
                drop = _drop_recurrence(fam, net.pre, {e: place(e, support) for e in fam},
                                        space_dim(ann, support))
            q = queues.setdefault(len(drop), [])
            q.append((fams, fam, drop))
            if (len(q) + 1) * drop.size > algebra.BATCH_ENTRIES:  # the next won't fit
                solve(len(drop))
    for n in list(queues):
        solve(n)
    over = [{m: big[0] for m, cls in part.items()
             if (big := [cl for cl in cls if len(cl) > cluster_cap])} for part in parts]
    shares = [net.initial_marking & ps for ps, _ in flow_components(net)]
    if found := component_witness(over, shares):
        m, cl = found
        raise BoundExceeded(f"cluster of {len(cl)} events at marking {list(m)} "
                            f"exceeds cap {cluster_cap}")
    total = math.prod(map(len, parts))
    weighted = [(total // len(part), cl) for part in parts for cls in part.values() for cl in cls]
    return DropReport(table, parts, {
        "markings": total, "clusters": sum(n for n, _ in weighted),
        "clusters_evaluated": len(table),
        "clique_fast_paths": sum(n for n, cl in weighted if table[cl][0] == "clique"),
        "eigen_solves": sum(calls), "eigen_calls": len(calls)}, shares)


def brute_force_global_drop(o: OccurrenceNet, ann: LocalAnnotation,
                            config_bound: int = DEFAULT_CONFIG_BOUND,
                            cluster_cap: int = DEFAULT_CLUSTER_CAP) -> DropReport:
    """Exhaustive drop positivity over all configurations and extension
    families of up to ``cluster_cap`` events, the largest cluster the local
    check reads, evaluated through interval channels; each configuration
    is its own table key.

    This is the reference semantics the local check is measured against;
    it is exponential and only meant for small nets.
    """
    gv = GlobalValuation(o, ann)
    table = {}
    for x in sorted(o.all_configurations(config_bound), key=sorted):
        exts = sorted(e for e in o.transitions - x
                      if o.pol(e) != NEGATIVE and o.enables(x, e))
        table[tuple(sorted(x))] = ("general", {
            combo: min_eigenvalue(drop_effect(gv, x, [x | {e} for e in combo]))
            for r in range(1, min(len(exts), cluster_cap) + 1)
            for combo in itertools.combinations(exts, r)})
    return DropReport(table, [{x: [x] for x in table}], {
        "configurations": len(table), "families": sum(len(f) for _, f in table.values())})


def cluster_factorization_check(net: Net, ann: LocalAnnotation, m,
                                cluster_a, cluster_b) -> CheckOutcome:
    """d[x; A ∪ B] ⊗ tr  =  d[x; A] ⊗ d[x; B] for cross-compatible clusters.

    As effects, within TOL_CHANNEL_EQ: d_{A∪B} ⊗ I equals d_A ⊗ d_B on Q(m) ⊗ Q(m).
    """
    m = frozenset(m)
    cluster_a, cluster_b = sorted(cluster_a), sorted(cluster_b)
    for a in cluster_a:
        for b in cluster_b:
            if a == b or net.pre(a) & net.pre(b):
                raise CrossClusterConflict(f"{a} and {b} are not compatible")
    d_ab = single_extension_drop(net, ann, m, cluster_a + cluster_b)
    d_a = single_extension_drop(net, ann, m, cluster_a)
    d_b = single_extension_drop(net, ann, m, cluster_b)
    dim = d_a.shape[0]
    lhs = np.kron(d_ab, np.eye(dim, dtype=complex))
    rhs = np.kron(d_a, d_b)
    # align: d_b acts on the B-side pre-place factors of the second copy;
    # swap those factors with their twins in the first copy
    ids = sorted(m)
    dims = [ann.dim(p) for p in ids]
    b_places = set().union(*(net.pre(e) for e in cluster_b), set())
    n = len(ids)
    order = [i + n if ids[i] in b_places else i for i in range(n)]
    order += [i - n if ids[i - n] in b_places else i for i in range(n, 2 * n)]
    u = FactorPermutation(tuple(dims + dims), tuple(order))  # its own inverse
    rhs = u.permute(rhs, two_sided=True)
    err = float(np.max(np.abs(lhs - rhs)))
    if err > TOL_CHANNEL_EQ * max(1, dim):
        return CheckOutcome.fail(f"factorization off by {err:.2e}", error=err)
    return CheckOutcome.ok(error=err)


# --------------------------------------------------------------------------
# top-level verdicts


def _drop_stage(net, ann, marking_bound, cluster_cap) -> CheckOutcome:
    report = check_local_drop(net, ann, marking_bound, cluster_cap)
    if report.passed:
        return CheckOutcome.ok(report=report)
    worst = report.first_failure()
    return CheckOutcome.fail(
        f"condition fails at marking {list(worst.key[0])} on "
        f"{list(worst.key[1])} (min eigenvalue {worst.min_eig:.3e})", report=report)


# The QPN verdict as ordered (name, check) stages; each check takes
# (net, ann, marking_bound, cluster_cap).  `qpn validate` runs the
# prefix up to "cptni".
STAGES = (
    ("safety", lambda net, ann, bound, *_: verify_safety(net, bound)),
    ("signatures", lambda net, ann, *_: validate_signatures(net, ann)),
    ("cptni", lambda net, ann, *_: annotation_is_cptni(net, ann)),
    ("obliviousness", lambda net, ann, *_: check_local_obliviousness(net, ann)),
    ("race-free", lambda net, ann, *_: race_free(net)),
    ("drop", _drop_stage),
)


def run_stages(stages, net: Net, ann: LocalAnnotation, marking_bound: int,
               cluster_cap: int):
    """Yield (name, outcome) per stage in order, up to the first failure;
    each outcome's data holds the stage's wall time as ``seconds``."""
    for name, check in stages:
        start = time.perf_counter()
        out = check(net, ann, marking_bound, cluster_cap)
        out = CheckOutcome(out.passed, out.reason,
                           {**out.data, "seconds": time.perf_counter() - start})
        yield name, out
        if not out:
            return


def _verdict(stages, net, ann, *limits) -> CheckOutcome:
    for name, out in run_stages(stages, net, ann, *limits):
        if not out:
            return CheckOutcome.fail(f"{name}: {out.reason}", stage=name, **out.data)
    return CheckOutcome.ok(stage="all", **out.data)


def is_qpn(net: Net, ann: LocalAnnotation,
           marking_bound: int = DEFAULT_MARKING_BOUND,
           cluster_cap: int = DEFAULT_CLUSTER_CAP) -> CheckOutcome:
    """Full certification of an annotated safe Petri net.

    Runs :data:`STAGES`: safety, signature validity, complete positivity
    and trace non-increase of all channels, identity behaviour of negative
    transitions, race-freeness of minimal conflicts, and drop positivity
    over reachable markings.  The first failing stage decides the verdict
    and is named in ``data["stage"]``; the rest of ``data`` is that stage's
    (the drop stage's when every stage passes), so the drop stage's
    ``DropReport`` is ``data["report"]`` and ``data["seconds"]`` is the
    deciding stage's wall time.  No unfolding is built: the local
    conditions on the net itself are equivalent to the unfolding-based
    definition.
    """
    return _verdict(STAGES, net, ann, marking_bound, cluster_cap)


def is_local_qon(o: Net, ann: LocalAnnotation,
                 marking_bound: int = DEFAULT_MARKING_BOUND,
                 cluster_cap: int = DEFAULT_CLUSTER_CAP) -> CheckOutcome:
    """is_qpn with the occurrence-net axioms as its first stage."""
    occurrence = ("occurrence", lambda net, ann, *_: is_occurrence_net(net))
    return _verdict((occurrence,) + STAGES, o, ann, marking_bound, cluster_cap)
