"""Reference implementations that only the test suite reads.

Each is a slower or more literal form of something `qpn` computes, kept
to hold the library to it; nothing in `qpn` imports this module.

- The inductive forms of the drop condition of quantum event structures
  (Clairambault, de Visme & Winskel 2019): `drop_inductive`, which peels
  off the last extension, `recursive_sum_check`, the identity over a
  grown last extension, and `expand_drop`, which rewrites toward
  single-extension terms.  `checker.drop_effect`, the inclusion-exclusion
  sum, is what they are held to.
- The Kraus algebra of sequential and parallel composition,
  `kraus_compose` and `kraus_tensor`: the oracles of the firing kernel
  `algebra.thread`.
- `to_document`, the canonical document of an annotated net: written by
  `netfile._write_json`, the bytes `netfile.save_net` must write.
- `_fire_state`, one firing of `semantics._fire` on the sorted marking
  space, for replaying sampled runs.
"""

from __future__ import annotations

import math

import numpy as np

from qpn.algebra import TOL_CHANNEL_EQ, Channel, _check_total_dim, hermitize
from qpn.annotation import GlobalValuation, LocalAnnotation, space_dim
from qpn.checker import _check_extensions, drop_effect
from qpn.errors import DimensionMismatch, IncompatibleExtension
from qpn.netfile import FORMAT, VERSION, matrix_to_json
from qpn.nets import Net, fire, marking_of_configuration
from qpn.outcome import CheckOutcome
from qpn.semantics import _fire, _firing, _moved


# --------------------------------------------------------------------------
# inductive forms of the drop function


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
# Kraus algebra


def kraus_compose(g: Channel, f: Channel) -> Channel:
    """Sequential composition g after f, as the Kraus set {G_j K_i}."""
    if f.dim_out != g.dim_in:
        raise DimensionMismatch(
            f"cannot compose: inner dims {f.dim_out} != {g.dim_in}"
        )
    ks = tuple(gj @ ki for gj in g.kraus for ki in f.kraus)
    return Channel(f.dim_in, g.dim_out, ks)


def kraus_tensor(f: Channel, g: Channel) -> Channel:
    """Parallel composition, Kraus set {K_i x G_j}."""
    _check_total_dim(f.dim_in * g.dim_in)
    _check_total_dim(f.dim_out * g.dim_out)
    ks = tuple(np.kron(ki, gj) for ki in f.kraus for gj in g.kraus)
    return Channel(f.dim_in * g.dim_in, f.dim_out * g.dim_out, ks)


# --------------------------------------------------------------------------
# the net file document


def to_document(net: Net, ann: LocalAnnotation, metadata: dict | None = None,
                labels: dict | None = None) -> dict:
    """The canonical document of an annotated net."""
    labels = labels or {}
    places = []
    for p in sorted(net.places):
        entry = {"id": p, "dim": ann.dim(p)}
        if p in labels:
            entry["label"] = labels[p]
        places.append(entry)
    transitions = []
    for t in sorted(net.transitions):
        entry = {"id": t, "polarity": net.pol(t), "h": ann.signal_dim(t),
                 "kraus": [matrix_to_json(k) for k in ann.channel(t).kraus]}
        if t in labels:
            entry["label"] = labels[t]
        transitions.append(entry)
    return {
        "format": FORMAT,
        "version": VERSION,
        "metadata": dict(metadata or {}),
        "places": places,
        "transitions": transitions,
        "flow": sorted([a, b] for a, b in net.flow),
        "initial_marking": sorted(net.initial_marking),
    }


# --------------------------------------------------------------------------
# state firing


def _fire_state(net: Net, ann: LocalAnnotation, m, e, rho, env=None):
    """`semantics._fire` on the marking space Q(m) in its sorted factor
    order: returns (new marking, new state on its sorted factors)."""
    m2, how = fire(net, m, e), _firing(net, ann, tuple(sorted(m)), e)
    rho = _fire(net, ann, how, e, rho, env)
    return m2, _moved(how[2], tuple(sorted(m2)), rho, ann.dim)
