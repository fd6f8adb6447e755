"""Probability readings of the quantum valuation.

The trace of an interval channel applied to an input state is the
probability that the corresponding events all fire; trace non-increase
makes this a sub-probability over runs.  `run_probability` computes it
exactly; `sample_execution` is a Monte Carlo sampler whose branch
frequencies converge to those values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (TOL_PSD, FactorPermutation, _check_total_dim, apply_leading,
                      as_matrix, partial_trace)
from .annotation import LocalAnnotation, space_dim
from .checker import _embedded_effect, single_extension_drop
from .errors import DimensionMismatch, MissingEnvInput, NotAQpn, NotEnabled
from .nets import (
    NEGATIVE,
    POSITIVE,
    MarkingInterval,
    Net,
    OccurrenceNet,
    fire,
    is_clique,
    marking_clusters,
)
from .outcome import CheckOutcome

# Branches with probability below this are treated as impossible.
MIN_BRANCH_PROB = 1e-12


def _checked_state(ann: LocalAnnotation, m, rho0) -> np.ndarray:
    """rho0 as a matrix, checked to be an operator on the marking space Q(m)."""
    rho = as_matrix(rho0)
    dim = space_dim(ann, m)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(
            f"initial state has shape {rho.shape}, marking space is {dim}")
    return rho


def run_probability(o: OccurrenceNet, ann: LocalAnnotation, iv: MarkingInterval,
                    rho0, env_inputs: dict | None = None) -> float:
    """Probability that all events of the interval fire, starting from rho0.

    env_inputs must give a unit-trace state for every negative event of the
    interval.  The state is pushed forward through `_fire`, event by event
    in the interval's firing order ``iv.events`` (causal height, then id),
    the order `GlobalValuation` fires them in: a negative event's environment state joins it when the
    event fires and a positive event's signal is traced out at once, since
    no later event acts on either.  No interval channel is built.
    """
    env_inputs = env_inputs or {}
    rho = _checked_state(ann, iv.from_marking, rho0)
    for e in sorted(iv.sigma):
        if o.pol(e) != NEGATIVE:
            continue
        if e not in env_inputs:
            raise MissingEnvInput(f"no environment state for negative event {e}")
        env = as_matrix(env_inputs[e])
        h = ann.signal_dim(e)
        if env.shape != (h, h):
            raise DimensionMismatch(
                f"environment state for {e} has shape {env.shape}, expected {h}")
    order = sorted(iv.from_marking)
    for e in iv.events:
        order, rho = _fire(o, ann, order, e, rho, env_inputs.get(e))
    return float(np.real(np.trace(rho)))


def sub_probability_check(net: Net, ann: LocalAnnotation, m, cluster,
                          rho=None, tol: float = TOL_PSD) -> CheckOutcome:
    """Branch probabilities of a cluster sum to at most one.

    For a clique the branch probabilities add up to exactly
    1 - tr(drop * rho); for general clusters only the positivity of the
    drop expectation (the halting residue) is asserted.  Both are read on
    the reduced state of the cluster's pre-places; rho defaults to the
    maximally mixed state.
    """
    m = frozenset(m)
    cluster = sorted(cluster)
    for e in cluster:
        if not net.pre(e) <= m:
            raise NotEnabled(f"{e} is not enabled at {sorted(m)}")
    pre = sorted(set().union(*(net.pre(e) for e in cluster)))
    dim = space_dim(ann, m)
    if rho is None:
        rho = np.eye(space_dim(ann, pre), dtype=complex) / space_dim(ann, pre)
    else:
        rho = as_matrix(rho)
        if rho.shape != (dim, dim):
            raise DimensionMismatch(f"state has shape {rho.shape}, marking space is {dim}")
        _, _, rho = _reduced(ann, sorted(m), pre, rho)
    branch = dict(zip(cluster, _branch_weights(net, ann, pre, cluster, rho)))
    total = sum(branch.values())
    clique = bool(cluster) and is_clique(net, cluster)  # a singleton is one
    d = single_extension_drop(net, ann, pre, cluster)
    residue = float(np.real(np.trace(d @ rho)))
    if clique and abs((1.0 - residue) - total) > 1e-10 * max(1, dim):
        return CheckOutcome.fail(
            f"branch sum {total} != 1 - residue {1 - residue}",
            branches=branch, residue=residue)
    if residue < -tol:
        return CheckOutcome.fail(f"negative halting residue {residue}",
                                 branches=branch, residue=residue)
    if total > 1 + tol and clique:
        return CheckOutcome.fail(f"branch probabilities sum to {total}",
                                 branches=branch, residue=residue)
    return CheckOutcome.ok(branches=branch, residue=residue, total=total)


@dataclass
class RunState:
    marking: frozenset
    state: np.ndarray  # sub-density operator on the marking space
    log: list = field(default_factory=list)
    halted: str = ""  # "", "residual", "deadlock", "max_steps"


def maximally_mixed_policy(ann: LocalAnnotation):
    def policy(log, event):
        h = ann.signal_dim(event)
        return np.eye(h, dtype=complex) / h
    return policy


# Stands for a negative event's environment factor in a factor order.
_ENV = object()


def _moved(order, want, rho, dim):
    """rho on the factors listed as ``order``, reordered to ``want``; rho
    itself when the two orders agree."""
    if order == want:
        return rho
    return FactorPermutation.between(order, want, dim).permute(rho, two_sided=True)


def _reduced(ann: LocalAnnotation, order, pre, rho):
    """Bring the sorted places ``pre`` of rho, a state on the places listed
    in ``order``, in front of the rest; returns the new order, the state on
    it and the reduced state on ``pre``."""
    front = set(pre)
    rest = [p for p in order if p not in front]
    rho = _moved(order, pre + rest, rho, ann.dim)
    return pre + rest, rho, partial_trace(
        rho, [space_dim(ann, pre), space_dim(ann, rest)], [1])


def _branch_weights(net: Net, ann: LocalAnnotation, pre, cluster, rho_pre):
    """tr(E_e · rho_pre) for each e of the cluster, with E_e e's effect on
    the sorted places ``pre`` that rho_pre lives on."""
    return [float(np.real(np.trace(_embedded_effect(net, ann, pre, e) @ rho_pre)))
            for e in cluster]


def _fire(net: Net, ann: LocalAnnotation, order, e, rho, env=None):
    """Fire e on rho, a state on the places listed in ``order``.

    The sorted pre-places of e are brought in front of the rest, with a
    negative event's environment state between them, and e's channel acts
    on those leading factors; positive signal outputs are traced out.  The
    joined state's dimension is checked against the cap before it is built.
    Returns the new factor order, [post, rest], and the state on it.
    """
    pre = sorted(net.pre(e))
    rest = [p for p in order if p not in net.pre(e)]
    now, want = list(order), pre + rest
    h = ann.signal_dim(e)
    if net.pol(e) == NEGATIVE:
        _check_total_dim(rho.shape[0] * h)
        rho = np.kron(rho, as_matrix(env))
        now, want = now + [_ENV], pre + [_ENV] + rest
    rho = _moved(now, want, rho, lambda x: h if x is _ENV else ann.dim(x))
    rho = apply_leading(ann.channel(e), rho)
    post = sorted(net.post(e))
    if net.pol(e) == POSITIVE:
        # output factors [post, H, rest]; drop the signal
        rho = partial_trace(rho, [space_dim(ann, post), h, space_dim(ann, rest)], [1])
    return post + rest, rho


def _fire_state(net: Net, ann: LocalAnnotation, m, e, rho, env=None):
    """`_fire` on the marking space Q(m) in its sorted factor order:
    returns (new marking, new state on its sorted factors)."""
    m2 = fire(net, m, e)
    order, rho = _fire(net, ann, sorted(m), e, rho, env)
    return m2, _moved(order, sorted(m2), rho, ann.dim)


def sample_execution(net: Net, ann: LocalAnnotation, rho0,
                     env_policy=None, seed: int = 0,
                     max_steps: int = 1000) -> RunState:
    """Sample one execution; reproducible given the seed.

    Negative transitions fire deterministically (they are oblivious),
    consuming states from env_policy.  Among non-negative transitions the
    canonically least conflict cluster is resolved by sampling a branch
    with its effect's expectation, or halting with the residual
    probability.  The state is renormalized after each sampled branch.

    Between steps the state keeps the factor order its last firing left
    (post-places first); each cluster's pre-places are brought to the
    front once and all its branch probabilities read off their reduced
    state.  The returned state is on the sorted marking.
    """
    if not net.safety_verified:
        raise NotAQpn("net must be safety-verified before sampling")
    env_policy = env_policy or maximally_mixed_policy(ann)
    rng = np.random.Generator(np.random.Philox(seed))
    negatives = [t for t in sorted(net.transitions) if net.pol(t) == NEGATIVE]
    m = frozenset(net.initial_marking)
    order, rho = sorted(m), _checked_state(ann, m, rho0).copy()
    log, halted = [], "max_steps"

    for step in range(max_steps):
        t = next((t for t in negatives if net.pre(t) <= m), None)
        if t is not None:
            env = env_policy(log, t)
            m, (order, rho) = fire(net, m, t), _fire(net, ann, order, t, rho, env)
            log.append({"step": step, "event": t, "prob": 1.0, "kind": "env"})
            continue

        clusters = marking_clusters(net, m)
        if not clusters:
            halted = "deadlock"
            break
        cluster = sorted(clusters[0])
        pre = sorted(set().union(*(net.pre(e) for e in cluster)))
        order, rho, rho_pre = _reduced(ann, order, pre, rho)
        tr = float(np.real(np.trace(rho_pre)))
        probs = [w / tr for w in _branch_weights(net, ann, pre, cluster, rho_pre)]
        probs = [p if p >= MIN_BRANCH_PROB else 0.0 for p in probs]
        residual = max(1.0 - sum(probs), 0.0)
        choice = rng.choice(len(cluster) + 1, p=_normalize(probs + [residual]))
        if choice == len(cluster):
            halted = "residual"
            log.append({"step": step, "cluster": cluster, "event": "HALT",
                        "prob": residual})
            break
        e = cluster[choice]
        log.append({"step": step, "cluster": cluster, "event": e,
                    "prob": probs[choice]})
        m, (order, rho) = fire(net, m, e), _fire(net, ann, order, e, rho)
        rho = rho / probs[choice]

    return RunState(m, _moved(order, sorted(m), rho, ann.dim), log, halted)


def _normalize(ps):
    ps = np.asarray(ps, dtype=float)
    total = ps.sum()
    if total <= 0:
        raise ValueError("no branch has positive probability")
    return ps / total
