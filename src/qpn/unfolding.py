"""Depth-bounded unfolding of safe Petri nets into branching processes.

The unfolding replays a net's token game as an occurrence net in which
every distinct causal way of firing a transition becomes its own event.
Identities are content-derived — an event is (label, sorted pre-condition
ids), a condition is (label, producing event, index) — so repeated runs
and deepened budgets produce literally identical ids on the shared prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .annotation import LocalAnnotation
from .errors import SafetyUnverified
from .nets import (
    Net,
    OccurrenceNet,
    bits,
    causal_heights,
    is_occurrence_net,
    marking_clusters,
    marking_of_configuration,
)
from .outcome import CheckOutcome


@dataclass(frozen=True)
class UnfoldBudget:
    max_depth: int = 4
    max_events: int = 10_000

    def __post_init__(self):
        if self.max_depth < 0 or self.max_events < 0:
            raise ValueError("budget values must be non-negative")


@dataclass(frozen=True)
class BranchingProcess:
    occ: OccurrenceNet
    label_place: dict
    label_event: dict
    budget: UnfoldBudget
    exhausted: bool  # True if the budget cut off possible extensions


def _cond_id(label: str, producer, index: int) -> str:
    return f"{label}." if producer is None else f"{producer}>{label}.{index}"


def _event_id(label: str, pre_ids) -> str:
    return f"{label}[{'|'.join(sorted(pre_ids))}]"


def unfold(net: Net, budget: UnfoldBudget = UnfoldBudget()) -> BranchingProcess:
    """Canonical prefix of the unfolding of a verified safe net.

    Saturates all extensions of causal height ≤ max_depth, up to
    max_events, one height at a time; each height's extensions are added
    in sorted (label, pre-set) order, so the construction is deterministic.

    Conditions are bit positions in creation order, and ``co[i]`` is the
    mask of the conditions concurrent with condition i.  A pre-set choice
    picks one condition per pre-place, each inside the co-set of the picks
    before it.  An event's post-conditions are concurrent with one another
    and with every condition concurrent with its whole pre-set.
    """
    if not net.safety_verified:
        raise SafetyUnverified("run verify_safety before unfolding")

    conds, co = [], []  # condition ids and co-set masks, by bit position
    at = {p: 0 for p in net.places}  # place -> mask of its conditions
    label_place, label_event, flow = {}, {}, set()

    def add_conditions(labelled, base):
        """Create the (id, place) conditions, concurrent with ``base`` and
        with one another; returns their mask."""
        first = len(conds)
        mask = ((1 << len(labelled)) - 1) << first
        for i, (c, p) in enumerate(labelled, first):
            conds.append(c)
            co.append(base | mask & ~(1 << i))
            label_place[c] = p
            at[p] |= 1 << i
        return mask

    def co_sets(pools, allowed):
        """Tuples of one condition per pool mask, pairwise concurrent."""
        if not pools:
            yield ()
            return
        for i in bits(pools[0] & allowed):
            for rest in co_sets(pools[1:], allowed & co[i]):
                yield (i,) + rest

    pre_places = {t: sorted(net.pre(t)) for t in net.transitions}
    older = 0  # conditions of height below h - 1
    new = add_conditions([(_cond_id(p, None, 0), p)
                          for p in sorted(net.initial_marking)], 0)
    initial = set(conds)
    for height in itertools.count(1):
        # the choices with a condition of height h - 1, each found once:
        # the k-th pick is the first such condition
        candidates = [(t, (), ()) for t, ps in pre_places.items()
                      if not ps and height == 1]
        for t, ps in pre_places.items():
            pools = [at[p] for p in ps]
            for k, pool in enumerate(pools):
                split = [m & older for m in pools[:k]] + [pool & new] + pools[k + 1:]
                candidates += [(t, tuple(sorted(conds[i] for i in pick)), pick)
                               for pick in co_sets(split, -1)]  # -1: every condition
        room = budget.max_events - len(label_event) if height <= budget.max_depth else 0
        exhausted = len(candidates) > room
        older, new = older | new, 0
        for t, pre, pick in sorted(candidates)[:room]:
            e = _event_id(t, pre)
            label_event[e] = t
            base = (1 << len(conds)) - 1
            for i in pick:
                base &= co[i]
            post = [(_cond_id(p, e, i), p) for i, p in enumerate(sorted(net.post(t)))]
            mask = add_conditions(post, base)
            for i in bits(base):
                co[i] |= mask
            new |= mask
            flow |= {(c, e) for c in pre} | {(e, c) for c, _ in post}
        if exhausted or not candidates:
            break

    polarity = {e: net.pol(t) for e, t in label_event.items()}
    occ = OccurrenceNet(set(conds), set(label_event), flow, initial, polarity)
    occ.safety_verified = True
    return BranchingProcess(occ, label_place, label_event, budget, exhausted)


def verify_branching_process(bp: BranchingProcess, net: Net) -> CheckOutcome:
    """The four homomorphism clauses plus the occurrence-net axioms."""
    out = is_occurrence_net(bp.occ)
    if not out:
        return CheckOutcome.fail(f"underlying net: {out.reason}")
    o = bp.occ
    # clause 1: labels preserve node kind and polarity; the least
    # offending condition, then the least offending event, is named
    bad = [c for c in o.places if bp.label_place.get(c) not in net.places]
    if bad:
        return CheckOutcome.fail(f"condition {min(bad)} not labeled by a place")
    bad = []
    for e in o.transitions:
        t = bp.label_event.get(e)
        if t not in net.transitions:
            bad.append((e, "not labeled by a transition"))
        elif o.pol(e) != net.pol(t):
            bad.append((e, f"changes polarity of {t}"))
    if bad:
        e, why = min(bad)
        return CheckOutcome.fail(f"event {e} {why}")
    # clause 2: label restricted to pre/post-sets is a bijection
    expected = {t: (sorted(net.pre(t)), sorted(net.post(t))) for t in net.transitions}
    for e in sorted(o.transitions):
        pre, post = expected[bp.label_event[e]]
        for side, here, there in (("pre", o.pre(e), pre), ("post", o.post(e), post)):
            labels = sorted(bp.label_place[c] for c in here)
            if labels != there:
                return CheckOutcome.fail(
                    f"{side}-set of {e} maps to {labels}, expected {there}", event=e)
    # clause 3: minimal conditions biject onto the initial marking
    labels = sorted(bp.label_place[c] for c in o.initial_marking)
    if labels != sorted(net.initial_marking):
        return CheckOutcome.fail(
            f"minimal conditions map to {labels}, expected "
            f"{sorted(net.initial_marking)}")
    # clause 4: no duplicated transitions
    seen = {}
    for e in sorted(o.transitions):
        key = (bp.label_event[e], tuple(sorted(o.pre(e))))
        if key in seen:
            return CheckOutcome.fail(
                f"{seen[key]} and {e} duplicate {key[0]} on the same pre-set")
        seen[key] = e
    return CheckOutcome.ok(events=len(o.transitions), conditions=len(o.places))


def transfer_annotation(bp: BranchingProcess, ann: LocalAnnotation) -> LocalAnnotation:
    """Pull the annotation back along the labels of the branching process."""
    dims = {c: ann.dim(bp.label_place[c]) for c in bp.occ.places}
    channels = {e: ann.channel(bp.label_event[e]) for e in bp.occ.transitions}
    h = {e: ann.h[bp.label_event[e]] for e in bp.occ.transitions
         if bp.label_event[e] in ann.h}
    return LocalAnnotation(dims, channels, h)


def cluster_bijection_check(net: Net, bp: BranchingProcess) -> CheckOutcome:
    """Conflict clusters agree between the net and its unfolded prefix.

    At every configuration of the prefix whose frontier lies strictly
    inside the depth budget, the clusters of enabled non-negative events,
    quotiented by labels, must coincide with the clusters of the
    corresponding net marking.
    """
    o = bp.occ
    for x in sorted(o.all_configurations(), key=lambda s: (len(s), sorted(s))):
        if max(causal_heights(o, x).values(), default=0) >= bp.budget.max_depth:
            continue  # frontier may be truncated here
        mb = marking_of_configuration(o, x)
        m = frozenset(bp.label_place[c] for c in mb)
        net_clusters = {frozenset(cl) for cl in marking_clusters(net, m)}
        occ_clusters = {frozenset(bp.label_event[e] for e in cl)
                        for cl in marking_clusters(o, mb)}
        if net_clusters != occ_clusters:
            return CheckOutcome.fail(
                f"clusters differ at marking {sorted(m)}: net "
                f"{sorted(map(sorted, net_clusters))} vs unfolding "
                f"{sorted(map(sorted, occ_clusters))}",
                marking=sorted(m))
    return CheckOutcome.ok()
