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

from .algebra import (TOL_PSD, TOL_TNI_HERM, Channel, channels_close, effect, is_cptni,
                      min_eigenvalues, thread)
from .nets import (
    NEGATIVE,
    POSITIVE,
    MarkingInterval,
    Net,
    OccurrenceNet,
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
    ts, tni = sorted(net.transitions), {}
    for d in {ann.channel(t).dim_in for t in ts}:  # I - effect: one solve per dimension
        group = [t for t in ts if ann.channel(t).dim_in == d]
        ops = np.eye(d, dtype=complex) - [effect(ann.channel(t)) for t in group]
        tni.update(zip(group, min_eigenvalues(ops, TOL_TNI_HERM)))
    for t in ts:
        if not tni[t] >= -TOL_PSD:  # is_cptni's outcome, or its error on NaN
            out = is_cptni(ann.channel(t))
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
# interval operators

# A wire is ("p", place) carrying dims[place], ("h-", event) carrying the
# environment input of a negative event, or ("h+", event) carrying the
# signal output of a positive event.


class GlobalValuation:
    """Interval operators of an annotated occurrence net, with memoization.

    An interval's events fire through `thread` in its firing order
    ``iv.events`` on the source marking's wires followed by the environment
    inputs of its negative events; the result is put on the target
    marking's wires followed by the signal outputs of its positive events.
    Results are cached per (source marking, target marking) pair.
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
        o, ann = self.net, self.ann

        def dim(wire):
            kind, ident = wire
            return ann.dim(ident) if kind == "p" else ann.signal_dim(ident)

        def wires(places, events, pol):
            """The sorted place wires, then the signal wires of those
            ``events`` whose polarity is ``pol``."""
            kind = "h-" if pol == NEGATIVE else "h+"
            return ([("p", p) for p in sorted(places)]
                    + [(kind, e) for e in events if o.pol(e) == pol])

        steps = [(ann.channel(e), wires(o.pre(e), [e], NEGATIVE),
                  wires(o.post(e), [e], POSITIVE))
                 for e in iv.events]
        events = sorted(iv.sigma)
        return thread(wires(iv.from_marking, events, NEGATIVE), steps,
                      wires(iv.to_marking, events, POSITIVE), dim)
