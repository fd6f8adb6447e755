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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    TOL_PSD,
    Channel,
    FactorPermutation,
    effect,
    embed_operator,
    hermitize,
    min_eigenvalue,
)
from .annotation import (
    GlobalValuation,
    LocalAnnotation,
    annotation_is_cptni,
    check_local_obliviousness,
    marking_factors,
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
    POSITIVE,
    DEFAULT_MARKING_BOUND,
    Net,
    OccurrenceNet,
    is_clique,
    is_occurrence_net,
    marking_clusters,
    marking_of_configuration,
    race_free,
    reachable_markings,
    verify_safety,
)
from .outcome import CheckOutcome

# Equality of drop effects is extensional; tolerance scales with dimension.
TOL_DROP_EQ = 1e-10

DEFAULT_CLUSTER_CAP = 12
DEFAULT_CONFIG_BOUND = 64
DEFAULT_FAMILY_CAP = 4


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
        for e in y - x:
            if o.pol(e) == NEGATIVE:
                raise IncompatibleExtension(
                    f"extension adds negative event {e}")


def drop_effect(gv: GlobalValuation, x, ys, *, validate: bool = True) -> np.ndarray:
    """d[x; y1..yn] as a Hermitian effect on Q(m) for m the marking of x.

    Sum over index sets I whose union y_I is a configuration of
    (-1)^|I| * effect(Q[m; marking(y_I)]); the empty set contributes the
    identity.  Extensions must add only non-negative events, so no
    environment-input factors occur and the effect lives on Q(m) alone.
    """
    o = gv.net
    x = frozenset(x)
    ys = [frozenset(y) for y in ys]
    if validate:
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


def _compose_effect(chan: Channel, d_target: np.ndarray, h_dim: int) -> np.ndarray:
    """Effect of [tr_{H} ⊗ d] ∘ Φ, where d acts on the condition factors of
    the output of Φ and H gathers its trailing signal factors."""
    # Σ_k K†(d ⊗ I_H)K: the signal index of each K joins the Kraus index
    ks = chan.stack
    ks = ks.reshape(len(ks), -1, h_dim, chan.dim_in).transpose(0, 2, 1, 3).reshape(
        -1, d_target.shape[0], chan.dim_in)
    return (ks.conj().transpose(0, 2, 1) @ d_target @ ks).sum(0)


def _positive_signal_dim(o: OccurrenceNet, ann: LocalAnnotation, events) -> int:
    return math.prod(ann.signal_dim(e) for e in events if o.pol(e) == POSITIVE)


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
    h = _positive_signal_dim(o, gv.ann, yn - x)
    return hermitize(d_head - _compose_effect(chan, d_shift, h))


def recursive_sum_check(gv: GlobalValuation, x, ys_head, yn, yn_big,
                        tol: float = TOL_DROP_EQ) -> CheckOutcome:
    """Identity relating d over a grown last extension yn ⊆ yn_big:

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
    rhs = first + _compose_effect(chan, d_shift, _positive_signal_dim(o, gv.ann, yn - x))
    err = float(np.max(np.abs(lhs - rhs)))
    if err > tol * max(1, lhs.shape[0]):
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
            return drop_effect(gv, base, fam, validate=False)
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
        h = _positive_signal_dim(o, gv.ann, y_small - base)
        return left + _compose_effect(chan, right, h)

    return hermitize(go(x, ys, weight(x, ys))), steps


# --------------------------------------------------------------------------
# fast paths on markings


def _embedded_effect(net: Net, ann: LocalAnnotation, m, e) -> np.ndarray:
    """effect(Q0(e)) placed on the pre-set factors inside Q(m)."""
    factors = marking_factors(ann, m)
    ids = [p for p, _ in factors]
    dims = [d for _, d in factors]
    positions = [ids.index(c) for c in sorted(net.pre(e))]
    return embed_operator(effect(ann.channel(e)), dims, positions)


def _drop_recurrence(events, pre, effs, dim: int) -> np.ndarray:
    """Drop of ``events`` as single-event extensions: the independence
    polynomial of their conflict graph at -E (Scott & Sokal 2005), by
    deletion-contraction memoized over sub-families,
    d(F) = d(F∖v) - E_v·d(F∖N[v]), for v least in F and N[v] v with the
    events of F sharing a pre-place (per ``pre``) with it.  E_v and
    d(F∖N[v]) act on disjoint factors, so every term is Hermitian.
    ``effs`` maps each event to its effect on one space of dimension dim.
    """
    memo = {(): np.eye(dim, dtype=complex)}

    def d(fam):
        if fam not in memo:
            far = tuple(e for e in fam[1:] if not pre(e) & pre(fam[0]))
            memo[fam] = d(fam[1:]) - effs[fam[0]] @ d(far)
        return memo[fam]

    return hermitize(d(tuple(sorted(events))))


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

    def to_dict(self):
        return {"marking": list(self.key[0]), "events": list(self.key[1]),
                "method": self.method, "min_eig": self.min_eig,
                "passed": self.passed}


@dataclass
class DropReport:
    instances: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    tol: float = TOL_PSD

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.instances)

    def __bool__(self):
        return self.passed

    @property
    def worst(self):
        return min((r.min_eig for r in self.instances), default=float("inf"))

    def add(self, key, method, lo: float):
        self.instances.append(
            DropInstanceResult(key, method, lo, lo >= -self.tol))

    def sort(self):
        self.instances.sort(key=lambda r: r.key)

    def failures(self):
        return [r for r in self.instances if not r.passed]

    def to_dict(self):
        return {"passed": self.passed, "tol": self.tol, "stats": self.stats,
                "instances": [r.to_dict() for r in self.instances]}


def check_local_drop(net: Net, ann: LocalAnnotation,
                     marking_bound: int = DEFAULT_MARKING_BOUND,
                     cluster_cap: int = DEFAULT_CLUSTER_CAP,
                     tol: float = TOL_PSD) -> DropReport:
    """Drop positivity over every conflict cluster at every reachable marking.

    A family's drop depends only on its events, so each distinct cluster
    is evaluated once, every reported family on the union of its own
    pre-sets: on Q(m) its drop is that local effect ⊗ I, with the same
    spectrum.  Cliques report the whole clique (positivity on it implies it
    on every sub-family, since branch effects are PSD); other clusters
    report every sub-family.
    """
    if not net.safety_verified:
        raise SafetyUnverified("run verify_safety before checking the drop condition")
    report = DropReport(tol=tol)
    markings = sorted(reachable_markings(net, marking_bound),
                      key=lambda m: sorted(m))
    evaluated = {}  # sorted cluster -> (method, {family: min eigenvalue})
    clusters_checked = cliques = 0
    for m in markings:
        for cluster in marking_clusters(net, m):
            clusters_checked += 1
            cl = tuple(sorted(cluster))
            if len(cl) > cluster_cap:
                raise BoundExceeded(
                    f"cluster of {len(cl)} events at marking {sorted(m)} "
                    f"exceeds cap {cluster_cap}")
            if cl not in evaluated:
                clique = len(cl) > 1 and is_clique(net, cl)
                fams = [cl] if clique else [
                    fam for r in range(1, len(cl) + 1)
                    for fam in itertools.combinations(cl, r)]
                evaluated[cl] = ("clique" if clique else "single", {
                    fam: min_eigenvalue(single_extension_drop(
                        net, ann, frozenset().union(*map(net.pre, fam)), fam))
                    for fam in fams})
            method, mins = evaluated[cl]
            cliques += method == "clique"
            for fam, lo in mins.items():
                report.add((tuple(sorted(m)), fam), method, lo)
    report.stats = {"markings": len(markings), "clusters": clusters_checked,
                    "clusters_evaluated": len(evaluated),
                    "clique_fast_paths": cliques}
    report.sort()
    return report


def brute_force_global_drop(o: OccurrenceNet, ann: LocalAnnotation,
                            config_bound: int = DEFAULT_CONFIG_BOUND,
                            family_cap: int = DEFAULT_FAMILY_CAP,
                            tol: float = TOL_PSD) -> DropReport:
    """Exhaustive drop positivity over all configurations and extension
    families, evaluated through interval channels.

    This is the reference semantics the local check is measured against;
    it is exponential and only meant for small nets.
    """
    gv = GlobalValuation(o, ann)
    configs = sorted(o.all_configurations(config_bound), key=lambda x: sorted(x))
    report = DropReport(tol=tol)
    families = 0
    for x in configs:
        exts = sorted(e for e in o.transitions - x
                      if o.pol(e) != NEGATIVE and o.enables(x, e))
        for r in range(1, min(len(exts), family_cap) + 1):
            for combo in itertools.combinations(exts, r):
                families += 1
                eff = drop_effect(gv, x, [x | {e} for e in combo])
                report.add((tuple(sorted(x)), tuple(combo)), "general",
                           min_eigenvalue(eff))
    report.stats = {"configurations": len(configs), "families": families}
    report.sort()
    return report


def cluster_factorization_check(net: Net, ann: LocalAnnotation, m,
                                cluster_a, cluster_b,
                                tol: float = TOL_DROP_EQ) -> CheckOutcome:
    """d[x; A ∪ B] ⊗ tr  =  d[x; A] ⊗ d[x; B] for cross-compatible clusters.

    As effects: d_{A∪B} ⊗ I equals d_A ⊗ d_B on Q(m) ⊗ Q(m).
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
    factors = marking_factors(ann, m)
    ids = [p for p, _ in factors]
    dims = [d for _, d in factors]
    b_places = set().union(*(net.pre(e) for e in cluster_b), set())
    n = len(ids)
    order = [i + n if ids[i] in b_places else i for i in range(n)]
    order += [i - n if ids[i - n] in b_places else i for i in range(n, 2 * n)]
    u = FactorPermutation(tuple(dims + dims), tuple(order))
    rhs = u.inverse().permute(rhs, two_sided=True)
    err = float(np.max(np.abs(lhs - rhs)))
    if err > tol * max(1, dim):
        return CheckOutcome.fail(f"factorization off by {err:.2e}", error=err)
    return CheckOutcome.ok(error=err)


# --------------------------------------------------------------------------
# top-level verdicts


def _drop_stage(net, ann, marking_bound, cluster_cap, tol) -> CheckOutcome:
    report = check_local_drop(net, ann, marking_bound, cluster_cap, tol)
    if report.passed:
        return CheckOutcome.ok(report=report)
    worst = report.failures()[0]
    return CheckOutcome.fail(
        f"condition fails at marking {list(worst.key[0])} on "
        f"{list(worst.key[1])} (min eigenvalue {worst.min_eig:.3e})", report=report)


# The QPN verdict as ordered (name, check) stages; each check takes
# (net, ann, marking_bound, cluster_cap, tol).  `qpn validate` runs the
# prefix up to "cptni".
STAGES = (
    ("safety", lambda net, ann, bound, *_: (
        CheckOutcome.ok() if net.safety_verified else verify_safety(net, bound))),
    ("signatures", lambda net, ann, *_: validate_signatures(net, ann)),
    ("cptni", lambda net, ann, *_: annotation_is_cptni(net, ann)),
    ("obliviousness", lambda net, ann, *_: check_local_obliviousness(net, ann)),
    ("race-free", lambda net, ann, *_: race_free(net)),
    ("drop", _drop_stage),
)


def run_stages(stages, net: Net, ann: LocalAnnotation, marking_bound: int,
               cluster_cap: int, tol: float):
    """Yield (name, outcome) per stage in order, up to the first failure."""
    for name, check in stages:
        out = check(net, ann, marking_bound, cluster_cap, tol)
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
           cluster_cap: int = DEFAULT_CLUSTER_CAP,
           tol: float = TOL_PSD) -> CheckOutcome:
    """Full certification of an annotated safe Petri net.

    Runs :data:`STAGES`: safety, signature validity, complete positivity
    and trace non-increase of all channels, identity behaviour of negative
    transitions, race-freeness of minimal conflicts, and drop positivity
    over reachable markings.  The first failing stage decides the verdict
    and is named in ``data["stage"]``; the drop stage's ``DropReport`` is
    ``data["report"]``.  No unfolding is built: the local conditions on
    the net itself are equivalent to the unfolding-based definition.
    """
    return _verdict(STAGES, net, ann, marking_bound, cluster_cap, tol)


def is_local_qon(o: Net, ann: LocalAnnotation,
                 marking_bound: int = DEFAULT_MARKING_BOUND,
                 cluster_cap: int = DEFAULT_CLUSTER_CAP,
                 tol: float = TOL_PSD) -> CheckOutcome:
    """is_qpn with the occurrence-net axioms as its first stage."""
    occurrence = ("occurrence", lambda net, ann, *_: is_occurrence_net(net))
    return _verdict((occurrence,) + STAGES, o, ann, marking_bound, cluster_cap, tol)
