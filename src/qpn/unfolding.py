"""Depth-bounded unfolding of safe Petri nets into branching processes.

The unfolding replays a net's token game as an occurrence net in which
every distinct causal way of firing a transition becomes its own event.
Identities are content-derived — an event ``t[c1|c2]`` is its label and
sorted pre-condition ids, a condition ``e>p.i`` its producing event, label
and index (``p.`` when initial) — so repeated runs and deepened budgets
produce literally identical ids on the shared prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .annotation import LocalAnnotation
from .errors import QpnError, SafetyUnverified
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


def _co_sets(pools, allowed, co):
    """Tuples of one condition per pool mask, pairwise concurrent, where
    ``co[i]`` is the mask of the conditions concurrent with condition i."""
    first = bits(pools[0] & allowed)
    if len(pools) == 1:
        return [(i,) for i in first]
    return [(i,) + rest for i in first for rest in _co_sets(pools[1:], allowed & co[i], co)]


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

    Each node's pre- and post-set is built when the node is created, and
    creation order is topological; both are handed to the occurrence net.
    """
    if not net.safety_verified:
        raise SafetyUnverified("run verify_safety before unfolding")
    causeless = [t for t in net.transitions if not net.pre(t)]
    if causeless:  # its events would have an empty pre-set
        raise QpnError(f"cannot unfold: transition {min(causeless)} has an empty pre-set")

    marked = sorted(net.initial_marking)
    initial = [f"{p}." for p in marked]
    new = (1 << len(initial)) - 1  # conditions of height h - 1
    # condition ids and co-set masks by bit position; place -> mask of its conditions
    conds, co = initial[:], [new ^ 1 << i for i in range(len(initial))]
    at = dict.fromkeys(net.places, 0) | {p: 1 << i for i, p in enumerate(marked)}
    label_place, label_event = dict(zip(initial, marked)), {}
    # conditions' post-sets are lists until the end
    pre, post = dict.fromkeys(initial, frozenset()), {c: [] for c in initial}
    order, flow = initial[:], []
    pre_places = {t: sorted(net.pre(t)) for t in net.transitions}
    post_places = {t: sorted(net.post(t)) for t in net.transitions}
    older = 0  # conditions of height below h - 1
    for height in itertools.count(1):
        # the choices with a condition of height h - 1, each found once:
        # the k-th pick is the first such condition, and one pre-place
        # needs no search
        candidates = []
        for t, ps in pre_places.items():
            if len(ps) == 1:
                candidates += [(t, (conds[i],), (i,)) for i in bits(at[ps[0]] & new)]
                continue
            pools = [at[p] for p in ps]
            for k, pool in enumerate(pools):
                split = [m & older for m in pools[:k]] + [pool & new] + pools[k + 1:]
                candidates += [(t, tuple(sorted([conds[i] for i in pick])), pick)
                               for pick in _co_sets(split, -1, co)]  # -1: every condition
        room = budget.max_events - len(label_event) if height <= budget.max_depth else 0
        exhausted = len(candidates) > room
        if not room or not candidates:
            break
        older, new = older | new, 0
        for t, pre_ids, pick in sorted(candidates)[:room]:
            e = f"{t}[{'|'.join(pre_ids)}]"
            label_event[e] = t
            base = co[pick[0]]
            for i in pick[1:]:
                base &= co[i]
            # its post-conditions: concurrent with base and with one another
            ps, first, made_by = post_places[t], len(conds), frozenset((e,))
            post_ids = [f"{e}>{p}.{j}" for j, p in enumerate(ps)]
            mask = ((1 << len(ps)) - 1) << first
            for i, (c, p) in enumerate(zip(post_ids, ps), first):
                co.append(base | mask ^ 1 << i)
                label_place[c] = p
                at[p] |= 1 << i
                pre[c], post[c] = made_by, []
            if base:
                for i in bits(base):
                    co[i] |= mask
            new |= mask
            conds += post_ids
            order.append(e)
            order += post_ids
            pre[e], post[e] = frozenset(pre_ids), frozenset(post_ids)
            for c in pre_ids:
                post[c].append(e)
                flow.append((c, e))
            for c in post_ids:
                flow.append((e, c))
        if exhausted:
            break

    for c in conds:
        post[c] = frozenset(post[c])
    polarity = {e: net.polarity[t] for e, t in label_event.items()}
    occ = OccurrenceNet(conds, label_event.keys(), flow, initial, polarity,
                        _adjacency=(pre, post), _order=order)
    occ.safety_verified = True
    return BranchingProcess(occ, label_place, label_event, budget, exhausted)


def verify_branching_process(bp: BranchingProcess, net: Net) -> CheckOutcome:
    """The four homomorphism clauses plus the occurrence-net axioms."""
    out = is_occurrence_net(bp.occ)
    if not out:
        return CheckOutcome.fail(f"underlying net: {out.reason}")
    o, label_place, label_event = bp.occ, bp.label_place, bp.label_event
    # clause 1: labels preserve node kind and polarity; the least
    # offending condition, then the least offending event, is named
    bad = [c for c in o.places if label_place.get(c) not in net.places]
    if bad:
        return CheckOutcome.fail(f"condition {min(bad)} not labeled by a place")
    for e in o.sorted_transitions:
        t = label_event.get(e)
        if t not in net.transitions:
            return CheckOutcome.fail(f"event {e} not labeled by a transition")
        if o.polarity[e] != net.polarity[t]:
            return CheckOutcome.fail(f"event {e} changes polarity of {t}")
    # clause 2: label restricted to pre/post-sets is a bijection; clause 4
    # (no duplicated transitions) is read in the same pass, but reported
    # after clause 3
    expected = {t: (sorted(net.pre(t)), sorted(net.post(t))) for t in net.transitions}
    place_of = label_place.__getitem__
    first, duplicate = {}, None  # (label, pre-set) -> its least event
    for e in o.sorted_transitions:
        t = label_event[e]
        got = sorted(map(place_of, o.pre(e))), sorted(map(place_of, o.post(e)))
        want = expected[t]
        if got != want:
            side, i = ("pre", 0) if got[0] != want[0] else ("post", 1)
            return CheckOutcome.fail(
                f"{side}-set of {e} maps to {got[i]}, expected {want[i]}", event=e)
        f = first.setdefault((t, o.pre(e)), e)
        if f != e and duplicate is None:
            duplicate = f"{f} and {e} duplicate {t} on the same pre-set"
    # clause 3: minimal conditions biject onto the initial marking
    labels = sorted(label_place[c] for c in o.initial_marking)
    if labels != sorted(net.initial_marking):
        return CheckOutcome.fail(
            f"minimal conditions map to {labels}, expected "
            f"{sorted(net.initial_marking)}")
    if duplicate:
        return CheckOutcome.fail(duplicate)
    return CheckOutcome.ok(events=len(o.transitions), conditions=len(o.places))


def transfer_annotation(bp: BranchingProcess, ann: LocalAnnotation) -> LocalAnnotation:
    """Pull the annotation back along the labels of the branching process."""
    label_place, label_event, h = bp.label_place, bp.label_event, ann.h
    dims = {c: ann.dims[label_place[c]] for c in bp.occ.places}
    channels = {e: ann.channels[label_event[e]] for e in bp.occ.transitions}
    return LocalAnnotation(dims, channels, {e: h[t] for e in bp.occ.transitions
                                            if (t := label_event[e]) in h})


def cluster_bijection_check(net: Net, bp: BranchingProcess) -> CheckOutcome:
    """Conflict clusters agree between the net and its unfolded prefix.

    At every configuration of the prefix whose frontier lies strictly
    inside the depth budget, the clusters of enabled non-negative events,
    quotiented by labels, must coincide with the clusters of the
    corresponding net marking.  A pass counts the configurations
    ``checked`` and those ``skipped`` at the budget.
    """
    o = bp.occ
    configs = sorted(o.all_configurations(), key=lambda s: (len(s), sorted(s)))
    inside = [x for x in configs  # a frontier at the budget may be truncated
              if max(causal_heights(o, x).values(), default=0) < bp.budget.max_depth]
    for x in inside:
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
    return CheckOutcome.ok(checked=len(inside), skipped=len(configs) - len(inside))
