"""Quantum annotations on nets and evaluation of interval operators.

An annotation assigns a Hilbert-space dimension to every place, a channel
to every transition and a signal dimension to every non-neutral transition.
Tensor factor order is always lexicographic on place id, with the signal
factor last; that single convention is what makes independently computed
operators comparable as matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MAX_TOTAL_DIM,
    Channel,
    FactorPermutation,
    channels_close,
    compose_leading,
    is_cptni,
)
from .errors import BoundExceeded, SignatureMismatch
from .nets import (
    NEGATIVE,
    POSITIVE,
    MarkingInterval,
    Net,
    OccurrenceNet,
    causal_heights,
    interval,
)
from .outcome import CheckOutcome


@dataclass(frozen=True)
class LocalAnnotation:
    """Per-place dimensions, per-transition channels and signal dimensions.

    ``h`` maps non-neutral transitions to the dimension of their
    environment signal space; neutral transitions implicitly have h = 1
    and need no entry.
    """

    dims: dict
    channels: dict
    h: dict = field(default_factory=dict)

    def dim(self, place) -> int:
        return self.dims[place]

    def signal_dim(self, t) -> int:
        return self.h.get(t, 1)

    def channel(self, t) -> Channel:
        return self.channels[t]


def space_dim(ann: LocalAnnotation, places) -> int:
    return math.prod(ann.dim(p) for p in places)


def marking_factors(ann: LocalAnnotation, m):
    """Ordered tensor factors of the marking space Q(m)."""
    return [(p, ann.dim(p)) for p in sorted(m)]


def signature(net: Net, ann: LocalAnnotation, t):
    """(dim_in, dim_out) the channel on transition t must have.

    Input: condition factors of the pre-set (sorted), then the signal
    factor if t is negative.  Output: post-set factors, then the signal
    factor if t is positive.
    """
    din = space_dim(ann, net.pre(t))
    dout = space_dim(ann, net.post(t))
    if net.pol(t) == NEGATIVE:
        din *= ann.signal_dim(t)
    elif net.pol(t) == POSITIVE:
        dout *= ann.signal_dim(t)
    return din, dout


def validate_signatures(net: Net, ann: LocalAnnotation) -> CheckOutcome:
    """Shape and well-formedness checks tying the annotation to the net."""
    missing = net.places - set(ann.dims)
    if missing:
        return CheckOutcome.fail(f"places without dimension: {sorted(missing)}")
    missing = net.transitions - set(ann.channels)
    if missing:
        return CheckOutcome.fail(f"transitions without channel: {sorted(missing)}")
    for p in sorted(net.places):
        if ann.dim(p) < 1:
            return CheckOutcome.fail(f"dimension of {p} is {ann.dim(p)}")
    for t in sorted(net.transitions):
        if ann.signal_dim(t) < 1:
            return CheckOutcome.fail(f"signal dimension of {t} is {ann.signal_dim(t)}")
        if net.pol(t) == "0" and t in ann.h and ann.h[t] != 1:
            return CheckOutcome.fail(f"neutral transition {t} has signal dimension "
                                     f"{ann.h[t]} != 1")
        want = signature(net, ann, t)
        got = (ann.channel(t).dim_in, ann.channel(t).dim_out)
        if want != got:
            return CheckOutcome.fail(
                f"channel on {t} has signature {got}, expected {want}",
                transition=t)
    return CheckOutcome.ok()


def annotation_is_cptni(net: Net, ann: LocalAnnotation) -> CheckOutcome:
    """Every local channel must be completely positive and trace non-increasing."""
    for t in sorted(net.transitions):
        out = is_cptni(ann.channel(t))
        if not out:
            return CheckOutcome.fail(f"channel on {t}: {out.reason}",
                                     transition=t, **out.data)
    return CheckOutcome.ok()


def check_local_obliviousness(net: Net, ann: LocalAnnotation) -> CheckOutcome:
    """Negative transitions must act as the identity on state plus signal.

    Checked extensionally, so any Kraus presentation of the identity is
    accepted.  A quick dimension count runs first to give a sharper
    diagnostic when the signature alone already rules it out.
    """
    for t in sorted(net.transitions):
        if net.pol(t) != NEGATIVE:
            continue
        din, dout = signature(net, ann, t)
        if din != dout:
            return CheckOutcome.fail(
                f"negative transition {t}: output dimension {dout} != "
                f"input dimension {din}", transition=t)
        if not channels_close(ann.channel(t), Channel.identity(din)):
            return CheckOutcome.fail(
                f"negative transition {t} is not the identity channel",
                transition=t)
    return CheckOutcome.ok()


# --------------------------------------------------------------------------
# wires and layer graphs

# A wire is ("p", place) carrying dims[place], ("h-", event) carrying the
# environment input of a negative event, or ("h+", event) carrying the
# signal output of a positive event.


def _wire_dim(ann: LocalAnnotation, wire) -> int:
    kind, ident = wire
    return ann.dim(ident) if kind == "p" else ann.signal_dim(ident)


@dataclass(frozen=True)
class LayerGraph:
    """The interval operator as a string diagram sliced into layers.

    ``layers[i]`` is the ordered wire list between the i-th and (i+1)-th
    rounds of events; ``events[i]`` are the events fired between layer i
    and layer i+1.  Layer 0 carries the source marking and all environment
    inputs of the interval's negative events; the last layer carries the
    target marking and all signal outputs, in normalized order.
    """

    layers: tuple
    events: tuple

    def wire_dims(self, ann: LocalAnnotation):
        return [tuple(_wire_dim(ann, w) for w in layer) for layer in self.layers]


def layer_graph(o: OccurrenceNet, ann: LocalAnnotation, iv: MarkingInterval) -> LayerGraph:
    """Slice the interval [m; m'] into layers of parallel events."""
    height = causal_heights(o, iv.sigma)
    rounds = [sorted(e for e in iv.sigma if height[e] == d)
              for d in range(1, max(height.values(), default=0) + 1)]

    wires = [("p", p) for p in sorted(iv.from_marking)]
    wires += [("h-", e) for e in sorted(iv.sigma) if o.pol(e) == NEGATIVE]
    layers = [tuple(wires)]
    for rnd in rounds:
        for e in rnd:
            _, produced, rest = _fire_wires(o, wires, e)
            wires = produced + rest
        layers.append(tuple(wires))
    final = [("p", p) for p in sorted(iv.to_marking)]
    final += [("h+", e) for e in sorted(iv.sigma) if o.pol(e) == POSITIVE]
    if set(final) != set(wires):
        raise SignatureMismatch("layer graph does not close on the target marking")
    if layers[-1] != tuple(final):
        layers.append(tuple(final))
        rounds.append([])
    return LayerGraph(tuple(layers), tuple(tuple(r) for r in rounds))


def _fire_wires(o: OccurrenceNet, wires, e):
    """The wire-threading rule: firing e consumes its sorted pre-set wires,
    then its environment input if negative, and puts its sorted post-set
    wires, then its signal output if positive, in front of the untouched
    rest.  Returns (consumed, produced, rest)."""
    consumed = [("p", c) for c in sorted(o.pre(e))]
    if o.pol(e) == NEGATIVE:
        consumed.append(("h-", e))
    produced = [("p", c) for c in sorted(o.post(e))]
    if o.pol(e) == POSITIVE:
        produced.append(("h+", e))
    rest = [w for w in wires if w not in consumed]
    return consumed, produced, rest


def walk_interval(o: OccurrenceNet, ann: LocalAnnotation, iv: MarkingInterval,
                  start, fire):
    """Thread a value through the events of iv in layer order.

    ``start(dim)`` builds the value on layer 0 once its dimension is within
    the bound; ``fire(x, e, perm)`` applies e's channel to x after ``perm``,
    which takes the current wires to e's consumed wires followed by the
    rest.  Returns (value, its wires, the interval's final wires).
    """
    graph = layer_graph(o, ann, iv)
    wires = list(graph.layers[0])
    dim = math.prod(_wire_dim(ann, w) for w in wires)
    if dim > MAX_TOTAL_DIM:
        raise BoundExceeded(f"interval space dimension {dim} exceeds "
                            f"{MAX_TOTAL_DIM}")
    x = start(dim)
    for rnd in graph.events:
        for e in rnd:
            consumed, produced, rest = _fire_wires(o, wires, e)
            x = fire(x, e, FactorPermutation.between(
                wires, consumed + rest, lambda w: _wire_dim(ann, w)))
            wires = produced + rest
    return x, wires, list(graph.layers[-1])


class GlobalValuation:
    """Interval operators of an annotated occurrence net, with memoization.

    Operators are evaluated by :func:`walk_interval`: each firing permutes
    the consumed wires to the front and applies the event's channel to
    them, leaving the remaining wires alone.  The running Kraus list is one
    stacked (n, dim_out, dim_in) array.  Results are cached per (source
    marking, target marking) pair.
    """

    def __init__(self, o: OccurrenceNet, ann: LocalAnnotation):
        self.net = o
        self.ann = ann
        self._cache = {}

    def q(self, m, m2) -> Channel:
        iv = interval(self.net, frozenset(m), frozenset(m2))
        return self.q_interval(iv)

    def q_interval(self, iv: MarkingInterval) -> Channel:
        if iv.key in self._cache:
            return self._cache[iv.key]
        chan = self._evaluate(iv)
        self._cache[iv.key] = chan
        return chan

    def _evaluate(self, iv: MarkingInterval) -> Channel:
        ann = self.ann
        kraus, wires, final = walk_interval(
            self.net, ann, iv, lambda dim: np.eye(dim, dtype=complex)[None],
            lambda ks, e, perm: compose_leading(ann.channel(e), perm.permute(ks)))
        kraus = FactorPermutation.between(
            wires, final, lambda w: _wire_dim(ann, w)).permute(kraus)
        _, dout, din = kraus.shape
        return Channel(din, dout, kraus)
