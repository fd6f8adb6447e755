"""Probability readings of the quantum valuation.

The trace of an interval channel applied to an input state is the
probability that the corresponding events all fire; trace non-increase
makes this a sub-probability over runs.  `run_probability` computes it
exactly; `sample_execution` is a Monte Carlo sampler whose branch
frequencies converge to those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import TOL_PSD, FactorPermutation, apply, as_matrix, effect, partial_trace
from .annotation import GlobalValuation, LocalAnnotation, marking_factors
from .checker import _embedded_effect, clique_drop, single_extension_drop
from .errors import DimensionMismatch, MissingEnvInput, NotAQpn
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


def run_probability(o: OccurrenceNet, ann: LocalAnnotation, iv: MarkingInterval,
                    rho0, env_inputs: dict | None = None,
                    gv: GlobalValuation | None = None) -> float:
    """Probability that all events of the interval fire, starting from rho0.

    env_inputs must give a unit-trace state for every negative event of the
    interval; they are tensored after the marking factors in sorted event
    order, matching the interval channel's input signature.
    """
    env_inputs = env_inputs or {}
    gv = gv or GlobalValuation(o, ann)
    chan = gv.q_interval(iv)
    rho = as_matrix(rho0)
    dim_m = math.prod(d for _, d in marking_factors(ann, iv.from_marking))
    if rho.shape != (dim_m, dim_m):
        raise DimensionMismatch(
            f"initial state has shape {rho.shape}, marking space is {dim_m}")
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
        rho = np.kron(rho, env)
    return float(np.real(np.trace(apply(chan, rho))))


def sub_probability_check(net: Net, ann: LocalAnnotation, m, cluster,
                          rho=None, tol: float = TOL_PSD) -> CheckOutcome:
    """Branch probabilities of a cluster sum to at most one.

    For a clique the branch probabilities add up to exactly
    1 - tr(drop * rho); for general clusters only the positivity of the
    drop expectation (the halting residue) is asserted.
    """
    m = frozenset(m)
    cluster = sorted(cluster)
    dim = math.prod(d for _, d in marking_factors(ann, m))
    rho = as_matrix(rho) if rho is not None else np.eye(dim, dtype=complex) / dim
    branch = {e: float(np.real(np.trace(
        _embedded_effect(net, ann, m, e) @ rho))) for e in cluster}
    total = sum(branch.values())
    clique = bool(cluster) and is_clique(net, cluster)  # a singleton is one
    d = clique_drop(net, ann, m, cluster) if clique else \
        single_extension_drop(net, ann, m, cluster)
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

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.state)))


def maximally_mixed_policy(ann: LocalAnnotation):
    def policy(log, event):
        h = ann.signal_dim(event)
        return np.eye(h, dtype=complex) / h
    return policy


def _fire_state(net: Net, ann: LocalAnnotation, m, e, rho, env=None):
    """Apply the channel of e on the full marking space and return
    (new marking, new state); positive signal outputs are traced out."""
    m2 = fire(net, m, e)
    ids = sorted(m)
    pre = sorted(net.pre(e))
    rest = [p for p in ids if p not in pre]
    rho1 = FactorPermutation.between(ids, pre + rest, ann.dim).permute(
        rho, two_sided=True)  # [pre, rest]

    rest_dim = math.prod(ann.dim(p) for p in rest)
    if net.pol(e) == NEGATIVE:
        h = ann.signal_dim(e)
        pre_dim = math.prod(ann.dim(p) for p in pre)
        rho1 = np.kron(rho1, as_matrix(env))  # [pre, rest, H]
        rho1 = FactorPermutation((pre_dim, rest_dim, h), (0, 2, 1)).permute(
            rho1, two_sided=True)  # [pre, H, rest]
    ks = [np.kron(k, np.eye(rest_dim, dtype=complex))
          for k in ann.channel(e).kraus]
    rho2 = sum(k @ rho1 @ k.conj().T for k in ks)

    post = sorted(net.post(e))
    post_dim = math.prod(ann.dim(p) for p in post)
    if net.pol(e) == POSITIVE:
        h = ann.signal_dim(e)
        # output factors [post, H, rest]; drop the signal
        rho2 = partial_trace(rho2, [post_dim, h, rest_dim], [1])
    # reorder [post, rest] into sorted(m2)
    return m2, FactorPermutation.between(post + rest, sorted(m2), ann.dim).permute(
        rho2, two_sided=True)


def sample_execution(net: Net, ann: LocalAnnotation, rho0,
                     env_policy=None, seed: int = 0,
                     max_steps: int = 1000) -> RunState:
    """Sample one execution; reproducible given the seed.

    Negative transitions fire deterministically (they are oblivious),
    consuming states from env_policy.  Among non-negative transitions the
    canonically least conflict cluster is resolved by sampling a branch
    with its effect's expectation, or halting with the residual
    probability.  The state is renormalized after each sampled branch.
    """
    if not net.safety_verified:
        raise NotAQpn("net must be safety-verified before sampling")
    env_policy = env_policy or maximally_mixed_policy(ann)
    rng = np.random.Generator(np.random.Philox(seed))
    st = RunState(frozenset(net.initial_marking), as_matrix(rho0).copy())

    for step in range(max_steps):
        fired_negative = False
        for t in sorted(net.transitions):
            if net.pol(t) == NEGATIVE and net.pre(t) <= st.marking:
                env = env_policy(st.log, t)
                st.marking, st.state = _fire_state(net, ann, st.marking, t,
                                                   st.state, env)
                st.log.append({"step": step, "event": t, "prob": 1.0,
                               "kind": "env"})
                fired_negative = True
                break
        if fired_negative:
            continue

        clusters = marking_clusters(net, st.marking)
        if not clusters:
            st.halted = "deadlock"
            return st
        cluster = sorted(clusters[0])
        tr = st.trace
        probs = []
        for e in cluster:
            eff = _embedded_effect(net, ann, st.marking, e)
            p = float(np.real(np.trace(eff @ st.state))) / tr
            probs.append(max(p, 0.0) if p >= MIN_BRANCH_PROB else 0.0)
        residual = max(1.0 - sum(probs), 0.0)
        choice = rng.choice(len(cluster) + 1, p=_normalize(probs + [residual]))
        if choice == len(cluster):
            st.halted = "residual"
            st.log.append({"step": step, "cluster": cluster, "event": "HALT",
                           "prob": residual})
            return st
        e = cluster[choice]
        st.log.append({"step": step, "cluster": cluster, "event": e,
                       "prob": probs[choice]})
        st.marking, st.state = _fire_state(net, ann, st.marking, e, st.state)
        st.state = st.state / probs[choice]

    st.halted = "max_steps"
    return st


def _normalize(ps):
    ps = np.asarray(ps, dtype=float)
    total = ps.sum()
    if total <= 0:
        raise ValueError("no branch has positive probability")
    return ps / total
