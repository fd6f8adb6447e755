"""Composition of annotated nets: parallel product and event joins.

A join fuses a positive event (which emits a signal) with a negative event
(which absorbs one of the same dimension) into a single neutral event whose
channel routes the signal internally.  Drop-preserving joins do this for a
whole negative cluster at once, matched to a positive cluster by a
conflict-preserving bijection, and provably keep the net a QPN.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import TOL_CHANNEL_EQ, Channel, thread
from .annotation import LocalAnnotation, event_factors, space_dim, validate_signatures
from .checker import _drop_recurrence, _embedded_effect, single_extension_drop
from .errors import (
    BoundExceeded,
    PolarityMismatch,
    QpnError,
    SignalSpaceMismatch,
)
from .nets import (
    DEFAULT_MARKING_BOUND,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Net,
    component_clusters,
    component_markings,
    component_witness,
    conflict_components,
    flow_components,
    race_free,
    verify_safety,
)
from .outcome import CheckOutcome


@dataclass(frozen=True)
class AnnotatedNet:
    net: Net
    ann: LocalAnnotation


def parallel(a: AnnotatedNet, b: AnnotatedNet):
    """Disjoint union of two annotated nets.

    Ids are kept verbatim unless the two sides collide, in which case every
    id is prefixed with "L/" or "R/".  Returns (composite, provenance) where
    provenance maps each id of the result to (side, original id).
    """
    ids_a = a.net.places | a.net.transitions
    ids_b = b.net.places | b.net.transitions
    if ids_a & ids_b:
        ren_a = {i: f"L/{i}" for i in ids_a}
        ren_b = {i: f"R/{i}" for i in ids_b}
    else:
        ren_a = {i: i for i in ids_a}
        ren_b = {i: i for i in ids_b}
    provenance = {v: ("L", k) for k, v in ren_a.items()}
    provenance |= {v: ("R", k) for k, v in ren_b.items()}

    def side(x, ren):
        net, ann = x.net, x.ann
        return dict(
            places={ren[p] for p in net.places},
            transitions={ren[t] for t in net.transitions},
            flow={(ren[u], ren[v]) for u, v in net.flow},
            m0={ren[p] for p in net.initial_marking},
            pol={ren[t]: net.pol(t) for t in net.transitions},
            dims={ren[p]: ann.dim(p) for p in net.places},
            chans={ren[t]: ann.channel(t) for t in net.transitions},
            h={ren[t]: ann.h[t] for t in ann.h},
        )

    sa, sb = side(a, ren_a), side(b, ren_b)
    net = Net(sa["places"] | sb["places"], sa["transitions"] | sb["transitions"],
              sa["flow"] | sb["flow"], sa["m0"] | sb["m0"], sa["pol"] | sb["pol"])
    net.safety_verified = a.net.safety_verified and b.net.safety_verified
    ann = LocalAnnotation(sa["dims"] | sb["dims"], sa["chans"] | sb["chans"],
                          sa["h"] | sb["h"])
    return AnnotatedNet(net, ann), provenance


def _has_path(net: Net, src, dst) -> bool:
    seen, stack = set(), [src]
    while stack:
        n = stack.pop()
        for s in net.post(n):
            if s == dst:
                return True
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return False


def _joined_channel(net: Net, ann: LocalAnnotation, p, n) -> Channel:
    """Channel of the fused event: run the positive side, then feed its
    signal, the factor named p, into the negative side."""
    (pre_p, out_p), (in_n, post_n) = event_factors(net, p), event_factors(net, n)
    pre_n = in_n[:-1]  # n's own signal is p's
    steps = [(ann.channel(p), pre_p, out_p), (ann.channel(n), pre_n + [p], post_n)]
    return thread(sorted(pre_p + pre_n), steps, sorted(out_p[:-1] + post_n), ann.factor_dim)


def joined_id(p, n) -> str:
    return f"{p}*{n}"


def single_join(x: AnnotatedNet, p, n) -> AnnotatedNet:
    """Fuse positive event p with negative event n into one neutral event."""
    net, ann = x.net, x.ann
    if p == n:
        raise QpnError("cannot join an event with itself")
    if net.pol(p) != POSITIVE or net.pol(n) != NEGATIVE:
        raise PolarityMismatch(
            f"join needs a positive and a negative event, got "
            f"{p}:{net.pol(p)} and {n}:{net.pol(n)}")
    if ann.signal_dim(p) != ann.signal_dim(n):
        raise SignalSpaceMismatch(
            f"signal dimensions differ: {p} has {ann.signal_dim(p)}, "
            f"{n} has {ann.signal_dim(n)}")
    if net.pre(p) & net.pre(n) or net.post(p) & net.post(n):
        raise QpnError(f"{p} and {n} share places; join is ambiguous")
    if _has_path(net, p, n) or _has_path(net, n, p):
        raise QpnError(f"joining {p} and {n} would create a flow cycle")

    j = joined_id(p, n)
    if j in net.places | net.transitions:
        raise QpnError(f"id {j} already taken")
    transitions = (net.transitions - {p, n}) | {j}
    flow = {(u, v) for u, v in net.flow if p not in (u, v) and n not in (u, v)}
    flow |= {(c, j) for c in net.pre(p) | net.pre(n)}
    flow |= {(j, c) for c in net.post(p) | net.post(n)}
    polarity = {t: net.pol(t) for t in net.transitions if t not in (p, n)}
    polarity[j] = NEUTRAL
    new_net = Net(net.places, transitions, flow, net.initial_marking, polarity)

    channels = {t: c for t, c in ann.channels.items() if t not in (p, n)}
    channels[j] = _joined_channel(net, ann, p, n)
    h = {t: v for t, v in ann.h.items() if t not in (p, n)}
    new_ann = LocalAnnotation(dict(ann.dims), channels, h)
    out = validate_signatures(new_net, new_ann)
    if not out:
        raise QpnError(f"joined net has bad signatures: {out.reason}")
    return AnnotatedNet(new_net, new_ann)


@dataclass(frozen=True)
class JoinSpec:
    """Pairs (positive, negative) to fuse, one per element of the matched
    negative cluster."""

    pairs: tuple

    @property
    def negatives(self):
        return frozenset(n for _, n in self.pairs)

    @property
    def positives(self):
        return frozenset(p for p, _ in self.pairs)


def validate_drop_preserving(x: AnnotatedNet, spec: JoinSpec) -> CheckOutcome:
    """Check the join spec against the cluster-matching clauses.

    The negatives must form a whole (maximal) cluster of the negative
    conflict graph; the positives must be strictly positive and lie inside
    one non-negative cluster; the pairing must be a bijection that carries
    conflicts of the negative side to conflicts of the positive side and
    matches signal dimensions.  An id that is no transition of the net
    fails first, located by its pair's index (``pair`` in the data).
    """
    net, ann = x.net, x.ann
    for i, pair in enumerate(spec.pairs):
        for t in pair:
            if t not in net.transitions:
                return CheckOutcome.fail(f"pairs[{i}]: unknown transition {t!r}",
                                         witness=t, pair=i)
    ps = [p for p, _ in spec.pairs]
    ns = [n for _, n in spec.pairs]
    if len(set(ps)) != len(ps) or len(set(ns)) != len(ns):
        return CheckOutcome.fail("pairing is not a bijection")
    for p, n in spec.pairs:
        if net.pol(p) != POSITIVE:
            return CheckOutcome.fail(f"{p} is not positive", witness=p)
        if net.pol(n) != NEGATIVE:
            return CheckOutcome.fail(f"{n} is not negative", witness=n)
        if ann.signal_dim(p) != ann.signal_dim(n):
            return CheckOutcome.fail(
                f"signal dimensions differ on pair ({p}, {n})", witness=(p, n))
    neg_all = [t for t in net.transitions if net.pol(t) == NEGATIVE]
    neg_comps = conflict_components(net, neg_all)
    if spec.negatives not in neg_comps:
        return CheckOutcome.fail(
            f"{sorted(spec.negatives)} is not a maximal negative cluster")
    non_neg = [t for t in net.transitions if net.pol(t) != NEGATIVE]
    if not any(spec.positives <= comp for comp in conflict_components(net, non_neg)):
        return CheckOutcome.fail(
            f"{sorted(spec.positives)} does not sit inside one cluster")
    for (p1, n1), (p2, n2) in itertools.combinations(spec.pairs, 2):
        if net.pre(n1) & net.pre(n2) and not net.pre(p1) & net.pre(p2):
            return CheckOutcome.fail(
                f"conflict {n1} ~ {n2} is not carried to {p1} ~ {p2}",
                witness=((n1, n2), (p1, p2)))
    return CheckOutcome.ok()


def drop_preserving_join(x: AnnotatedNet, spec: JoinSpec, force: bool = False,
                         bound: int = DEFAULT_MARKING_BOUND) -> AnnotatedNet:
    """Fold single joins over the spec's pairs (sorted order; the result is
    independent of it).  The output is re-verified safe within ``bound``
    markings per component (BoundExceeded past it).  ``force`` joins past
    a failed spec check, but never ids that are no transition."""
    out = validate_drop_preserving(x, spec)
    if not out and (not force or "pair" in out.data):
        raise QpnError(f"invalid join spec: {out.reason}")
    result = x
    for p, n in sorted(spec.pairs):
        result = single_join(result, p, n)
    safe = verify_safety(result.net, bound)
    if not safe:
        error = BoundExceeded if safe.data.get("bound_exceeded") else QpnError
        raise error(f"joined net failed safety: {safe.reason}")
    return result


def check_join_preservation(before: AnnotatedNet, after: AnnotatedNet,
                            spec: JoinSpec) -> CheckOutcome:
    """Numerically compare drop structure across a join.

    At every reachable marking of the joined net, the drop effect of each
    cluster of enabled non-negative events, on its own pre-places, must
    equal the drop computed in the original net from the pre-image family
    within TOL_CHANNEL_EQ, where each joined event stands for its positive
    member extended by the identity on the negative member's pre-places.
    A cluster's comparison depends on its events only, so each distinct
    cluster is compared once.
    Also checks the marking correspondence, that race-freeness survived,
    and that every new transition is one the spec joins.

    A join only merges flow components (splitting one fails), so a marking
    of a joined-net component was reachable before iff it lies on the
    original ones inside it and its share of each was.  Each component is
    walked on its own (:func:`component_clusters`), and a failure is named
    at the :func:`component_witness` of the unreachable or differing ones.
    """
    rf = race_free(after.net)
    if not rf:
        return CheckOutcome.fail(f"joined net is not race-free: {rf.reason}")
    joined = {joined_id(p, n): (p, n) for p, n in spec.pairs}
    if stray := after.net.transitions - before.net.transitions - joined.keys():
        return CheckOutcome.fail(
            f"{min(stray)} is neither in the original net nor joined by the spec")

    @functools.cache
    def error(fam):
        """max |d_after - d_before| on fam's pre-places, or None within tolerance."""
        local = frozenset().union(*map(after.net.pre, fam))
        d = single_extension_drop(after.net, after.ann, local, fam) \
            - _preimage_drop(before, local, fam, joined)
        err = float(np.max(np.abs(d)))
        return err if err > TOL_CHANNEL_EQ * max(1, len(d)) else None

    inner = list(zip(flow_components(before.net), component_markings(before.net)))
    fails = []  # per part: {sorted marking: () if unreachable, else (cluster, error)}
    for (places, _), part in zip(flow_components(after.net), component_clusters(after.net)):
        inside = [(ps, ms) for (ps, _), ms in inner if ps & places]
        if not (covered := frozenset().union(*(ps for ps, _ in inside))) <= places:
            return CheckOutcome.fail(f"the join splits the component of {min(covered - places)}")
        fails.append(bad := {})
        for key, clusters in part.items():
            m = frozenset(key)
            if not m <= covered or any(m & ps not in ms for ps, ms in inside):
                bad[key] = ()  # reachability is checked before drops
            elif failed := [(fam, err) for fam in clusters if (err := error(fam)) is not None]:
                bad[key] = failed[0]
    shares = [after.net.initial_marking & ps for ps, _ in flow_components(after.net)]
    if (found := component_witness(fails, shares)) is None:
        return CheckOutcome.ok()
    m, fail = found
    if not fail:
        return CheckOutcome.fail(f"marking {list(m)} unreachable before the join")
    fam, err = fail
    return CheckOutcome.fail(f"drop differs by {err:.2e} at {list(m)} on {list(fam)}",
                             error=err)


def _preimage_drop(before: AnnotatedNet, m, fam, joined):
    """The drop recurrence in the original net, on the places ``m``: each
    joined event stands for its positive member, with that member's effect
    and pre-set (the negative member is oblivious, so it adds the identity
    and no conflict)."""
    orig = {e: joined.get(e, (e, None))[0] for e in fam}
    effs = {e: _embedded_effect(before.net, before.ann, m, orig[e]) for e in fam}
    return _drop_recurrence(fam, lambda e: before.net.pre(orig[e]), effs,
                            space_dim(before.ann, m))
