"""Composition of annotated nets: parallel product and event joins.

A join fuses a positive event (which emits a signal) with a negative event
(which absorbs one of the same dimension) into a single neutral event whose
channel routes the signal internally.  Drop-preserving joins do this for a
whole negative cluster at once, matched to a positive cluster by a
conflict-preserving bijection, and provably keep the net a QPN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Channel, FactorPermutation, effect, embed_operator
from .annotation import LocalAnnotation, marking_factors, validate_signatures
from .checker import TOL_DROP_EQ, single_extension_drop
from .errors import (
    PolarityMismatch,
    QpnError,
    SignalSpaceMismatch,
)
from .nets import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Net,
    conflict_components,
    marking_clusters,
    race_free,
    reachable_markings,
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
    """Channel of the fused event: run the positive side, feed its signal
    into the negative side, with all factor shuffles made explicit."""
    pre_p, pre_n = sorted(net.pre(p)), sorted(net.pre(n))
    post_p, post_n = sorted(net.post(p)), sorted(net.post(n))
    h = ann.signal_dim(p)
    dims = {c: ann.dim(c) for c in pre_p + pre_n + post_p + post_n}

    def perm(now, want):
        return FactorPermutation.between(now, want, lambda w: h if w == "H" else dims[w])

    pre_all = sorted(pre_p + pre_n)
    post_all = sorted(post_p + post_n)
    eye_in = np.eye(math.prod(dims[c] for c in pre_n), dtype=complex)
    step1 = np.stack([np.kron(k, eye_in)
                      for k in ann.channel(p).kraus])  # [•p | •n] -> [p• | H | •n]
    # precompose with sorted union -> [•p | •n]: K·P = (P⁻¹·Kᵀ)ᵀ, as P is real
    kraus = perm(pre_p + pre_n, pre_all).permute(
        step1.transpose(0, 2, 1)).transpose(0, 2, 1)
    kraus = perm(post_p + ["H"] + pre_n, post_p + pre_n + ["H"]).permute(kraus)
    eye_mid = np.eye(math.prod(dims[c] for c in post_p), dtype=complex)
    step2 = np.stack([np.kron(eye_mid, k)
                      for k in ann.channel(n).kraus])  # -> [p• | n•]
    kraus = (step2[:, None] @ kraus[None]).reshape(-1, step2.shape[1], kraus.shape[2])
    kraus = perm(post_p + post_n, post_all).permute(kraus)
    din = math.prod(dims[c] for c in pre_all)
    dout = math.prod(dims[c] for c in post_all)
    return Channel(din, dout, tuple(kraus))


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

    def match(self, n):
        for p, m in self.pairs:
            if m == n:
                return p
        raise KeyError(n)


def validate_drop_preserving(x: AnnotatedNet, spec: JoinSpec) -> CheckOutcome:
    """Check the join spec against the cluster-matching clauses.

    The negatives must form a whole (maximal) cluster of the negative
    conflict graph; the positives must be strictly positive and lie inside
    one non-negative cluster; the pairing must be a bijection that carries
    conflicts of the negative side to conflicts of the positive side and
    matches signal dimensions.
    """
    net, ann = x.net, x.ann
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


def drop_preserving_join(x: AnnotatedNet, spec: JoinSpec,
                         force: bool = False) -> AnnotatedNet:
    """Fold single joins over the spec's pairs (sorted order; the result is
    independent of it).  The output is re-verified safe."""
    out = validate_drop_preserving(x, spec)
    if not out and not force:
        raise QpnError(f"invalid join spec: {out.reason}")
    result = x
    for p, n in sorted(spec.pairs):
        result = single_join(result, p, n)
    safe = verify_safety(result.net)
    if not safe:
        raise QpnError(f"joined net failed safety: {safe.reason}")
    return result


def check_join_preservation(before: AnnotatedNet, after: AnnotatedNet,
                            spec: JoinSpec, tol: float = TOL_DROP_EQ) -> CheckOutcome:
    """Numerically compare drop structure across a join.

    At every reachable marking of the joined net, the drop effect of the
    enabled non-negative events must equal the drop computed in the
    original net from the pre-image family, where each joined event stands
    for its positive member extended by the identity on the negative
    member's pre-places.  Also checks the marking correspondence and that
    race-freeness survived.
    """
    rf = race_free(after.net)
    if not rf:
        return CheckOutcome.fail(f"joined net is not race-free: {rf.reason}")
    before_markings = reachable_markings(before.net)
    joined = {joined_id(p, n): (p, n) for p, n in spec.pairs}
    for m in sorted(reachable_markings(after.net), key=sorted):
        if m not in before_markings:
            return CheckOutcome.fail(
                f"marking {sorted(m)} unreachable before the join")
        for cluster in marking_clusters(after.net, m):
            fam = sorted(cluster)
            d_after = single_extension_drop(after.net, after.ann, m, fam)
            d_before = _preimage_drop(before, after.net, m, fam, joined)
            err = float(np.max(np.abs(d_after - d_before)))
            if err > tol * max(1, d_after.shape[0]):
                return CheckOutcome.fail(
                    f"drop differs by {err:.2e} at {sorted(m)} on {fam}",
                    error=err)
    return CheckOutcome.ok()


def _preimage_drop(before: AnnotatedNet, after_net: Net, m, fam, joined):
    """Inclusion-exclusion drop using the original channels, with each
    joined event contributing its positive member's effect and identity on
    the rest of its pre-set (the negative member is oblivious)."""
    ann = before.ann
    factors = marking_factors(ann, m)
    ids = [p for p, _ in factors]
    dims = [d for _, d in factors]
    effs = {}
    for e in fam:
        src = joined.get(e, (e, None))[0]
        pos = [ids.index(c) for c in sorted(before.net.pre(src))]
        effs[e] = embed_operator(effect(ann.channel(src)), dims, pos)
    dim = int(np.prod(dims)) if dims else 1
    total = np.eye(dim, dtype=complex)
    for r in range(1, len(fam) + 1):
        for combo in itertools.combinations(fam, r):
            if any(after_net.pre(a) & after_net.pre(b)
                   for a, b in itertools.combinations(combo, 2)):
                continue
            term = np.eye(dim, dtype=complex)
            for e in combo:
                term = term @ effs[e]
            total = total + (-1) ** r * term
    return (total + total.conj().T) / 2
