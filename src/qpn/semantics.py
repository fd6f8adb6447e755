"""Probability readings of the quantum valuation.

The trace of an interval channel applied to an input state is the
probability that the corresponding events all fire; trace non-increase
makes this a sub-probability over runs.  `run_probability` computes it
exactly; `sample_execution` is a Monte Carlo sampler whose branch
frequencies converge to those values.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .algebra import (TOL_PSD, FactorPermutation, _check_total_dim, _kron, apply_leading,
                      as_matrix, partial_trace)
from .annotation import LocalAnnotation, event_factors, space_dim
from .checker import _embedded_effect, single_extension_drop
from .errors import DimensionMismatch, MissingEnvInput, NotAQpn, NotEnabled
from .nets import NEGATIVE, MarkingInterval, Net, OccurrenceNet, fire, is_clique, marking_clusters
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
    the order `GlobalValuation` fires them in: a negative event's environment
    state joins it when the event fires and a positive event's signal is
    traced out at once, since no later event acts on either.  No interval
    channel is built.
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
    order = tuple(sorted(iv.from_marking))
    for e in iv.events:
        how = _firing(o, ann, order, e)
        rho, order = _fire(o, ann, how, e, rho, env_inputs.get(e)), how[2]
    return float(rho.trace().real)


def sub_probability_check(net: Net, ann: LocalAnnotation, m, cluster,
                          rho=None, tol: float = TOL_PSD) -> CheckOutcome:
    """Branch probabilities of a cluster sum to at most one.

    For a clique the branch probabilities add up to exactly
    1 - tr(drop * rho); for general clusters only the positivity of the
    drop expectation (the halting residue) is asserted.  Both are read on
    the reduced state of the cluster's pre-places, by the sampler's step
    plan (built here, not kept); rho defaults to the maximally mixed state.
    """
    m = frozenset(m)
    cluster = sorted(cluster)
    for e in cluster:
        if not net.pre(e) <= m:
            raise NotEnabled(f"{e} is not enabled at {sorted(m)}")
    step = _step(net, ann, tuple(sorted(m)), cluster)
    dim = space_dim(ann, m)
    if rho is None:
        rho = np.eye(step.dims[0], dtype=complex) / step.dims[0]
    else:
        rho = as_matrix(rho)
        if rho.shape != (dim, dim):
            raise DimensionMismatch(f"state has shape {rho.shape}, marking space is {dim}")
        rho = _read(step, rho)[1]
    branch = dict(zip(cluster, np.einsum("kij,ji->k", step.effects, rho).real.tolist()))
    total = sum(branch.values())
    clique = bool(cluster) and is_clique(net, cluster)  # a singleton is one
    d = single_extension_drop(net, ann, step.pre, cluster)
    residue = float(np.real(np.trace(d @ rho)))
    if clique and abs((1.0 - residue) - total) > 1e-10 * max(1, dim):
        return CheckOutcome.fail(
            f"branch sum {total} != 1 - residue {1 - residue}",
            branches=branch, residue=residue)
    if residue < -tol:
        return CheckOutcome.fail(f"negative halting residue {residue}",
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


def _moved(order, want, rho, dim):
    """rho on the factors listed as ``order``, reordered to ``want`` if they differ."""
    if order == want:
        return rho
    return FactorPermutation.between(order, want, dim).permute(rho, two_sided=True)


_Step = namedtuple("_Step", "env cluster pre perm dims effects order firings",
                   defaults=("", (), (), None, (), None, (), ()))


def _firing(net: Net, ann: LocalAnnotation, order, e) -> tuple:
    """Plan firing e on a state on the places listed in ``order``, as
    (perm, traced, new order), from e's `event_factors`: perm brings e's
    inputs in front of the rest, where a negative event's environment
    factor joins the state last, or is None if they lead; traced are the
    [post, signal, rest] dims of a positive event's output; the new order
    is [post, rest]."""
    (ins, outs), pre, h = event_factors(net, e), net.pre(e), ann.signal_dim(e)
    rest = [p for p in order if p not in pre]
    now, want = (*order, *ins[len(pre):]), tuple(ins + rest)
    perm = None if now == want else FactorPermutation.between(
        now, want, lambda x: h if x == e else ann.dim(x))
    post = outs[:len(net.post(e))]
    traced = [space_dim(ann, post), h, space_dim(ann, rest)] if outs != post else None
    return perm, traced, tuple(post + rest)


def _fire(net: Net, ann: LocalAnnotation, how, e, rho, env=None):
    """Fire e on rho as `_firing` planned it in ``how``: the state on its new
    order.  The joined state's dimension is checked against the cap first."""
    perm, traced, _ = how
    if net.pol(e) == NEGATIVE:
        _check_total_dim(rho.shape[0] * ann.signal_dim(e))
        rho = _kron(rho, as_matrix(env))
    if perm is not None:
        rho = perm.permute(rho, two_sided=True)
    rho = apply_leading(ann.channel(e), rho)
    return rho if traced is None else partial_trace(rho, traced, [1])


def _fire_state(net: Net, ann: LocalAnnotation, m, e, rho, env=None):
    """`_fire` on the marking space Q(m) in its sorted factor order:
    returns (new marking, new state on its sorted factors)."""
    m2, how = fire(net, m, e), _firing(net, ann, tuple(sorted(m)), e)
    rho = _fire(net, ann, how, e, rho, env)
    return m2, _moved(how[2], tuple(sorted(m2)), rho, ann.dim)


def _step(net: Net, ann: LocalAnnotation, order, cluster=None) -> _Step:
    """Plan the sampling step at the marking listed as ``order``: the least
    enabled negative event ``env`` and its firing; else the least (or the
    given) cluster, the ``perm`` to ``order`` = [pre, rest] (None if its
    ``pre``-places lead), the partial trace's ``dims``, its ``effects``
    stacked on pre and, unless given, its events' firings; else a deadlock."""
    m, fires = frozenset(order), cluster is None
    if fires:
        t = next((t for t in net.sorted_transitions
                  if net.pol(t) == NEGATIVE and net.pre(t) <= m), None)
        if t is not None:
            return _Step(env=t, firings=(_firing(net, ann, order, t),))
        clusters = marking_clusters(net, m)
        if not clusters:
            return _Step()
        cluster = sorted(clusters[0])
    front = set().union(*(net.pre(e) for e in cluster))
    pre = sorted(front)
    after = tuple(pre + [p for p in order if p not in front])
    perm = None if order == after else FactorPermutation.between(order, after, ann.dim)
    d = space_dim(ann, pre)
    effects = np.array([_embedded_effect(net, ann, pre, e) for e in cluster],
                       dtype=complex).reshape(-1, d, d)
    return _Step("", tuple(cluster), pre, perm, (d, space_dim(ann, after[len(pre):])), effects,
                 after, tuple(_firing(net, ann, after, e) for e in cluster)
                 if fires else ())


def _read(step: _Step, rho):
    """rho brought to ``step.order``, and its reduced state on ``step.pre``."""
    if step.perm is not None:
        rho = step.perm.permute(rho, two_sided=True)
    return rho, partial_trace(rho, step.dims, [1])


def sample_execution(net: Net, ann: LocalAnnotation, rho0, env_policy=None, seed: int = 0,
                     max_steps: int = 1000) -> RunState:
    """Sample one execution; reproducible given the seed.

    Negative transitions fire deterministically (they are oblivious),
    consuming states from env_policy.  Among non-negative transitions the
    canonically least conflict cluster is resolved by sampling a branch
    with its effect's expectation, or halting with the residual
    probability.  The state is renormalized after each sampled branch and
    keeps the factor order its last firing left; it is returned on the
    sorted marking.  Each step is planned once per (marking, factor order)
    by `_step`, and the plans are kept on the net for the annotation object
    ``ann`` until the net is sampled under another.
    """
    if not net.safety_verified:
        raise NotAQpn("net must be safety-verified before sampling")
    env_policy = env_policy or maximally_mixed_policy(ann)
    rng = np.random.Generator(np.random.Philox(seed))
    if net._plans is None or net._plans[0] is not ann:
        net._plans = (ann, {})
    plans = net._plans[1]
    m = frozenset(net.initial_marking)
    order, rho = tuple(sorted(m)), _checked_state(ann, m, rho0).copy()
    log, halted = [], "max_steps"
    for step in range(max_steps):
        plan = plans.get(order) or plans.setdefault(order, _step(net, ann, order))
        if plan.env:
            e, how = plan.env, plan.firings[0]
            rho = _fire(net, ann, how, e, rho, env_policy(log, e))
            log.append({"step": step, "event": e, "prob": 1.0, "kind": "env"})
        elif not plan.cluster:
            halted = "deadlock"
            break
        else:
            order, (rho, rho_pre) = plan.order, _read(plan, rho)
            tr = float(np.real(np.trace(rho_pre)))
            weights = np.einsum("kij,ji->k", plan.effects, rho_pre).real.tolist()
            probs = [w / tr if w / tr >= MIN_BRANCH_PROB else 0.0 for w in weights]
            ps = probs + [max(1.0 - sum(probs), 0.0)]  # the last is the residual
            p = np.array(ps)  # its sum is positive
            choice = rng.choice(len(ps), p=p / p.sum())
            halt = choice == len(plan.cluster)
            e = "HALT" if halt else plan.cluster[choice]
            log.append({"step": step, "cluster": list(plan.cluster), "event": e,
                        "prob": ps[choice]})
            if halt:
                halted = "residual"
                break
            how = plan.firings[choice]
            rho = _fire(net, ann, how, e, rho) / ps[choice]
        order = how[2]
    return RunState(frozenset(order), _moved(order, tuple(sorted(order)), rho, ann.dim),
                    log, halted)

