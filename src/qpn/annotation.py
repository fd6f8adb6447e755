"""Quantum annotations on nets and evaluation of interval operators.

An annotation assigns a Hilbert-space dimension to every place, a channel
to every transition and a signal dimension to every non-neutral transition.
A signal factor is named by its event's id, which no place shares.  Every
channel's factors are laid out by `event_factors`: its sorted pre-set, then
the signal of a negative event; its sorted post-set, then the signal of a
positive event.  That single convention is what makes independently
computed operators comparable as matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import (TOL_CHANNEL_EQ, TOL_PSD, Channel, identity_deviation, is_cptni,
                      thread, tni_min_eigenvalues)
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

    def factor_dim(self, x) -> int:
        """The dimension of a place, or of the signal named by the event x."""
        return self.dims[x] if x in self.dims else self.signal_dim(x)

    def channel(self, t) -> Channel:
        return self.channels[t]


def space_dim(ann: LocalAnnotation, places) -> int:
    return math.prod(ann.dim(p) for p in places)


def event_factors(net: Net, t):
    """(ins, outs), the factors of the channel on transition t: the sorted
    pre-set, then the signal t if t is negative; the sorted post-set, then
    the signal t if t is positive."""
    ins, outs, pol = sorted(net.pre(t)), sorted(net.post(t)), net.pol(t)
    if pol == NEGATIVE:
        ins.append(t)
    elif pol == POSITIVE:
        outs.append(t)
    return ins, outs


def signature(net: Net, ann: LocalAnnotation, t):
    """(dim_in, dim_out) the channel on transition t must have."""
    ins, outs = event_factors(net, t)
    return math.prod(map(ann.factor_dim, ins)), math.prod(map(ann.factor_dim, outs))


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
    ts = sorted(net.transitions)
    for t, lo in zip(ts, tni_min_eigenvalues([ann.channel(t) for t in ts])):
        if not lo >= -TOL_PSD:  # is_cptni's outcome, or its error on NaN
            out = is_cptni(ann.channel(t))
            return CheckOutcome.fail(f"channel on {t}: {out.reason}",
                                     transition=t, **out.data)
    return CheckOutcome.ok()


def check_local_obliviousness(net: Net, ann: LocalAnnotation) -> CheckOutcome:
    """Negative transitions must act as the identity on state plus signal.

    Checked extensionally, on the Choi tensor (`identity_deviation`), so
    any Kraus presentation of the identity is accepted; the tolerance is
    `channels_close`'s.  A quick dimension count runs first to give a
    sharper diagnostic when the signature alone already rules it out.
    """
    for t in sorted(net.transitions):
        if net.pol(t) != NEGATIVE:
            continue
        din, dout = signature(net, ann, t)
        if din != dout:
            return CheckOutcome.fail(
                f"negative transition {t}: output dimension {dout} != "
                f"input dimension {din}", transition=t)
        if not identity_deviation(ann.channel(t)) <= TOL_CHANNEL_EQ * max(1, din):
            return CheckOutcome.fail(
                f"negative transition {t} is not the identity channel",
                transition=t)
    return CheckOutcome.ok()


# --------------------------------------------------------------------------
# interval operators


class GlobalValuation:
    """Interval operators of an annotated occurrence net, with memoization.

    An interval's events fire through `thread` in its firing order
    ``iv.events``, each on its `event_factors`.  The input is the sorted
    source marking, then the signals of the negative events in id order;
    the output is the sorted target marking, then the signals of the
    positive events in id order.  Results are cached per (source marking,
    target marking) pair.
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
        events = sorted(iv.sigma)
        steps = [(ann.channel(e), *event_factors(o, e)) for e in iv.events]
        return thread(sorted(iv.from_marking) + [e for e in events if o.pol(e) == NEGATIVE],
                      steps,
                      sorted(iv.to_marking) + [e for e in events if o.pol(e) == POSITIVE],
                      ann.factor_dim)
