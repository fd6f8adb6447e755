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
    max_events.  Candidates are processed in sorted (label, pre-set)
    order, so the construction is deterministic.
    """
    if not net.safety_verified:
        raise SafetyUnverified("run verify_safety before unfolding")

    label_place, label_event = {}, {}
    hist = {}     # condition -> frozenset of events strictly below it
    depth = {}    # condition/event -> causal height
    consumers = {}  # condition -> set of events consuming it
    pre_e, post_e = {}, {}

    conds = []
    for p in sorted(net.initial_marking):
        c = _cond_id(p, None, 0)
        label_place[c] = p
        hist[c] = frozenset()
        depth[c] = 0
        consumers[c] = set()
        conds.append(c)

    def concurrent(c1, c2):
        if c1 == c2:
            return False
        if any(e in hist[c2] for e in consumers[c1]):
            return False
        if any(e in hist[c1] for e in consumers[c2]):
            return False
        for e1 in hist[c1] - hist[c2]:
            for e2 in hist[c2] - hist[c1]:
                if pre_e[e1] & pre_e[e2]:
                    return False
        return True

    exhausted = False
    while True:
        candidates = []
        for t in sorted(net.transitions):
            pre_places = sorted(net.pre(t))
            pools = [[c for c in conds if label_place[c] == p] for p in pre_places]
            for combo in itertools.product(*pools):
                if not all(concurrent(a, b)
                           for a, b in itertools.combinations(combo, 2)):
                    continue
                eid = _event_id(t, combo)
                if eid in label_event:
                    continue
                d = 1 + max((depth[c] for c in combo), default=0)
                if d > budget.max_depth:
                    exhausted = True
                    continue
                candidates.append((t, tuple(sorted(combo)), eid, d))
        if not candidates:
            break
        candidates.sort()
        grew = False
        for t, combo, eid, d in candidates:
            if eid in label_event:
                continue
            if len(label_event) >= budget.max_events:
                exhausted = True
                break
            label_event[eid] = t
            depth[eid] = d
            pre_e[eid] = frozenset(combo)
            h = frozenset().union(*(hist[c] for c in combo)) | {eid}
            post = []
            for i, p in enumerate(sorted(net.post(t))):
                c = _cond_id(p, eid, i)
                label_place[c] = p
                hist[c] = h
                depth[c] = d
                consumers[c] = set()
                conds.append(c)
                post.append(c)
            post_e[eid] = frozenset(post)
            for c in combo:
                consumers[c].add(eid)
            grew = True
        if not grew:
            break

    flow = set()
    for e, cs in pre_e.items():
        flow |= {(c, e) for c in cs}
    for e, cs in post_e.items():
        flow |= {(e, c) for c in cs}
    polarity = {e: net.pol(label_event[e]) for e in label_event}
    occ = OccurrenceNet(set(label_place), set(label_event), flow,
                        {c for c in conds if depth[c] == 0}, polarity)
    occ.safety_verified = True
    return BranchingProcess(occ, label_place, label_event, budget, exhausted)


def verify_branching_process(bp: BranchingProcess, net: Net) -> CheckOutcome:
    """The four homomorphism clauses plus the occurrence-net axioms."""
    out = is_occurrence_net(bp.occ)
    if not out:
        return CheckOutcome.fail(f"underlying net: {out.reason}")
    o = bp.occ
    # clause 1: labels preserve node kind and polarity
    for c in o.places:
        if bp.label_place.get(c) not in net.places:
            return CheckOutcome.fail(f"condition {c} not labeled by a place")
    for e in o.transitions:
        t = bp.label_event.get(e)
        if t not in net.transitions:
            return CheckOutcome.fail(f"event {e} not labeled by a transition")
        if o.pol(e) != net.pol(t):
            return CheckOutcome.fail(f"event {e} changes polarity of {t}")
    # clause 2: label restricted to pre/post-sets is a bijection
    for e in sorted(o.transitions):
        t = bp.label_event[e]
        for side, here, there in (("pre", o.pre(e), net.pre(t)),
                                  ("post", o.post(e), net.post(t))):
            labels = sorted(bp.label_place[c] for c in here)
            if labels != sorted(there):
                return CheckOutcome.fail(
                    f"{side}-set of {e} maps to {labels}, expected "
                    f"{sorted(there)}", event=e)
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
