"""The four benchmark workloads: seeded inputs, the operation, the reference.

Every workload is built from its seed alone.  Inputs are generated here or
by ``tests/gen.py`` (loaded as-is), composed with ``qpn.compose.parallel``
during set-up, and handed to ``qpn`` through its public entry points.  Each
workload carries a reference for every operation that is computed without
the code under test: closed-form products of branch weights, local
eigenvalue problems solved with numpy, and a state-machine unfolder written
out here.

A workload is a fixed *cycle* of operations.  The timed loop repeats whole
cycles, so every run measures the same mix of input sizes whatever the seed.
Shapes are fixed per slot; the seed picks the numbers (channels, weights,
states, which place of a ring branches).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qpn import cli, nets, semantics
from qpn.algebra import Channel
from qpn.annotation import LocalAnnotation
from qpn.compose import AnnotatedNet, parallel
from qpn.demo import branching_demo
from qpn.netfile import save_net

# Positivity tolerance of `qpn check` (its --tol-psd default).
TOL_PSD = 1e-9
# An exact probability and its evaluation must agree to this.
TOL_PROB = 1e-9
# Sampled frequencies must lie within this many standard errors.
FREQ_SIGMAS = 5.0


@dataclass
class Op:
    """One user-facing operation of a cycle.

    ``run(i)`` performs it (``i`` is the op's index in the run) and returns
    its output; ``check(out, expected)`` judges that output against
    ``expected``, which set-up computed without the code under test.
    ``digest(out)``, if given, is what the run keeps of the output for
    the workload's aggregate check; other outputs are dropped once checked.
    """

    label: str
    run: Callable[[int], object]
    check: Callable[[object, object], bool]
    expected: object
    digest: Callable[[object], object] | None = None


@dataclass
class Workload:
    name: str
    ops: list
    # Latency percentile reported as op_tail_ms.  Fixed per workload so
    # that runs of faster or slower code compare the same statistic; a run
    # executes at least enough ops to leave ten beyond it.
    tail_percentile: float
    # Judges outputs that only make sense together (sampled frequencies);
    # returns the indices of records that fail it.
    judge_all: Callable[[list], set] = field(default=lambda records: set())


def _compose(parts):
    """Parallel composition of ``parts``; also returns, per part, the map
    from its own ids to the composite's ids (``parallel`` renames on
    collisions)."""
    acc = parts[0]
    maps = [{i: i for i in acc.net.places | acc.net.transitions}]
    for part in parts[1:]:
        acc, prov = parallel(acc, part)
        left = {old: new for new, (side, old) in prov.items() if side == "L"}
        right = {old: new for new, (side, old) in prov.items() if side == "R"}
        maps = [{k: left[v] for k, v in m.items()} for m in maps]
        maps.append(right)
    nets.verify_safety(acc.net)
    return acc, maps


def _cli(argv):
    """Run ``qpn <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --------------------------------------------------------------------------
# check: `qpn check net.json` on parallel compositions


def path_cluster(tag: str, weight: float = 0.3) -> AnnotatedNet:
    """Marked dim-2 places a, b, c and events with pre-sets {a}, {a,b},
    {b,c}, each carrying the identity scaled by ``weight``."""
    a, b, c = f"{tag}a", f"{tag}b", f"{tag}c"
    pre = {f"{tag}x": (a,), f"{tag}y": (a, b), f"{tag}z": (b, c)}
    dims = {a: 2, b: 2, c: 2}
    flow, chans = set(), {}
    for t, ps in pre.items():
        out = f"{t}o"
        dims[out] = 2 ** len(ps)
        flow |= {(p, t) for p in ps} | {(t, out)}
        chans[t] = Channel.identity(2 ** len(ps)).scaled(weight)
    pol = {t: "0" for t in pre}
    net = nets.Net(set(dims), set(pre), flow, {a, b, c}, pol)
    nets.verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(dims, chans, {}))


def _path_cluster_min(weight: float) -> float:
    """Least drop eigenvalue of `path_cluster`: every effect is weight * I,
    so each family's drop is the scalar sum over its conflict-free subsets
    of (-weight)^|subset| (x~y share a, y~z share b)."""
    conflict = {("x", "y"), ("y", "z")}
    families = [("x",), ("y",), ("z",), ("x", "y"), ("x", "z"), ("y", "z"),
                ("x", "y", "z")]
    best = math.inf
    for fam in families:
        total = 0.0
        for mask in range(1 << len(fam)):
            sub = [fam[i] for i in range(len(fam)) if mask >> i & 1]
            if any((u, v) in conflict for u in sub for v in sub):
                continue
            total += (-weight) ** len(sub)
        best = min(best, total)
    return best


def _state_machine_rings(an: AnnotatedNet):
    """Rings of a `random_state_machine`: per ring, its places in id order
    and, per place, the transitions leaving it."""
    consumers = {p: [] for p in an.net.places}
    for a, b in an.net.flow:
        if a in consumers:
            consumers[a].append(b)
    rings = {}
    for p in sorted(an.net.places):
        rings.setdefault(p.split("p")[0], []).append(p)
    return [(ps, {p: sorted(consumers[p]) for p in ps}) for _, ps in sorted(rings.items())]


def _ring_signature(an: AnnotatedNet):
    """(places, dim, branching places, negative transitions) per ring."""
    sig = []
    for ps, cons in _state_machine_rings(an):
        fan = sum(len(cons[p]) == 2 for p in ps)
        neg = sum(an.net.polarity[t] == "-" for p in ps for t in cons[p])
        sig.append((len(ps), an.ann.dims[ps[0]], fan, neg))
    return tuple(sorted(sig))


class StateMachines:
    """`random_state_machine` draws, taken by ring signature.

    Slots ask for fixed signatures so that every seed yields the same
    amount of work.  A fixed number of draws is made up front, so set-up
    time does not depend on how soon a signature turns up; a signature
    that runs out is drawn for on demand, which is rare.
    """

    DRAWS = 500

    def __init__(self, gen, rng):
        self.gen, self.rng = gen, rng
        self.draws = [self._draw() for _ in range(self.DRAWS)]

    def _draw(self):
        an = self.gen.random_state_machine(self.rng)
        return _ring_signature(an), an

    def take(self, want) -> AnnotatedNet:
        for i, (sig, an) in enumerate(self.draws):
            if sig == want:
                del self.draws[i]
                return an
        for _ in range(20_000):
            sig, an = self._draw()
            if sig == want:
                return an
        raise RuntimeError(f"no state machine with signature {want}")


def _effect(chan: Channel) -> np.ndarray:
    return sum(k.conj().T @ k for k in chan.kraus)


def _state_machine_min(an: AnnotatedNet) -> float:
    """Least drop eigenvalue of a state machine: each place's non-negative
    consumers form a clique on that single place, whose drop is I minus
    the sum of their effects."""
    best = math.inf
    for ps, cons in _state_machine_rings(an):
        for p in ps:
            effs = [_effect(an.ann.channels[t]) for t in cons[p]
                    if an.net.polarity[t] != "-"]
            if effs:
                d = np.eye(an.ann.dims[p]) - sum(effs)
                best = min(best, float(np.linalg.eigvalsh((d + d.conj().T) / 2).min()))
    return best


# Ring signatures of the state-machine components (common draws of
# `random_state_machine`): (places, dim, branching places, negatives).
SM_A = ((2, 3, 1, 0),)
SM_B = ((3, 2, 1, 0),)
SM_C = ((3, 2, 2, 0),)
SM_D = ((3, 2, 1, 1),)

# One cycle of the check workload: components per composite.  "P" is the
# path cluster, ("K", k) a k-clique, and a tuple a state-machine signature.
# The largest marking space is 8 * 8 * 2 = 128 dims.  The cycle is laid
# out by cost so that the median falls among eight composites of 40-60 ms
# and p90 on the second costliest, never between two cost groups.
CHECK_CYCLE = [
    # cheap
    [("K", 2), ("K", 3), SM_A],
    [SM_B, SM_A, ("K", 8)],
    [SM_A, SM_D, ("K", 5)],
    # 40-60 ms
    [("K", 4), ("K", 5), SM_B],
    [("K", 3), ("K", 8), SM_D],
    [SM_D, SM_C, ("K", 9)],
    [SM_C, SM_B, ("K", 7)],
    [SM_D, SM_B, ("K", 6)],
    [SM_C, SM_D, ("K", 10)],
    [SM_A, SM_C, ("K", 10)],
    [SM_B, SM_D, ("K", 9)],
    # the path cluster
    ["P", ("K", 2), SM_A],
    ["P", ("K", 3), SM_B],
    ["P", ("K", 4), SM_B],
    ["P", ("K", 6), SM_D],
    ["P", ("K", 10), SM_C],
    ["P", "P", ("K", 2)],
]


def _check_output(out, expected) -> bool:
    code, text = out
    want_code, want_min = expected
    drop = [ln for ln in text.splitlines() if ln.split(" ")[1:2] == ["drop"]]
    if code != want_code or len(drop) != 1 or "min_eig=" not in drop[0]:
        return False
    got = float(drop[0].split("min_eig=")[1].rstrip(")"))
    return abs(got - want_min) <= TOL_PSD


def build_check(gen, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    machines = StateMachines(gen, rng)
    ops = []
    for slot, spec in enumerate(CHECK_CYCLE):
        parts, mins = [], []
        for j, comp in enumerate(spec):
            if comp == "P":
                parts.append(path_cluster(f"P{j}"))
                mins.append(_path_cluster_min(0.3))
            elif comp[0] == "K":
                # branch weights summing to 0.9 / 1.0 pass, to 1.15 fail
                total = float(rng.choice([0.9, 1.0, 1.15]))
                w = rng.uniform(0.5, 1.5, size=comp[1])
                w = w / w.sum() * total
                parts.append(gen.clique_net(rng, comp[1], weights=list(w)))
                mins.append(1.0 - float(w.sum()))
            else:
                an = machines.take(comp)
                parts.append(an)
                mins.append(_state_machine_min(an))
        an, _ = _compose(parts)
        path = os.path.join(workdir, f"check{slot}.json")
        save_net(path, an.net, an.ann)
        want_min = min(mins)
        expected = (0 if want_min >= -TOL_PSD else 1, want_min)
        label = f"{slot}:" + "+".join(c if isinstance(c, str) else
                                      f"K{c[1]}" if c[0] == "K" else "SM" for c in spec)
        ops.append(Op(label, lambda i, p=path: _cli(["check", p]),
                      _check_output, expected))
    return Workload("check", ops, tail_percentile=90)


# --------------------------------------------------------------------------
# prob: exact run probability over parallel wires of weighted channels

# (wires, events per wire, wires that open with an environment input and
# close with a signal output).  Interval evaluation multiplies Kraus lists:
# a plain wire of k events carries 2^k operators, a signal wire 2^(k-1).
PROB_CYCLE = [
    (2, 5, 1), (3, 3, 1), (4, 3, 2), (2, 6, 1), (3, 4, 1), (2, 6, 0),
    (3, 4, 0), (2, 7, 0), (3, 5, 0), (2, 8, 0), (4, 4, 0),
]


def wires(gen, rng, w: int, k: int, n_signal: int):
    """``w`` disjoint chains of ``k`` events; every non-identity channel is
    ``random_cptni(weight=p)``, whose effect is exactly p * I."""
    dims, flow, pol, chans, h = {}, set(), {}, {}, {}
    start, end, product = set(), set(), 1.0
    signal = set(rng.choice(w, size=n_signal, replace=False).tolist())
    for j in range(w):
        cs = [f"w{j}c{i}" for i in range(k + 1)]
        sig = j in signal
        for i, c in enumerate(cs):
            dims[c] = 1 if sig and i in (0, k) else 2
        start.add(cs[0])
        end.add(cs[-1])
        for i in range(k):
            e = f"w{j}e{i}"
            flow |= {(cs[i], e), (e, cs[i + 1])}
            if sig and i == 0:
                pol[e], chans[e], h[e] = "-", Channel.identity(2), 2
                continue
            p = float(rng.uniform(0.5, 1.0))
            product *= p
            if sig and i == k - 1:
                pol[e], h[e] = "+", 2
                chans[e] = gen.random_cptni(rng, 2, 2, weight=p)
            else:
                pol[e] = "0"
                chans[e] = gen.random_cptni(rng, dims[cs[i]], dims[cs[i + 1]], weight=p)
    o = nets.OccurrenceNet(set(dims), set(pol), flow, start, pol)
    nets.verify_safety(o)
    return o, LocalAnnotation(dims, chans, h), frozenset(start), frozenset(end), product


def _prob_op(o, ann, start, end, rho, env):
    def run(i):
        iv = nets.interval(o, start, end)
        return semantics.run_probability(o, ann, iv, rho, env)
    return run


def build_prob(gen, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for w, k, n_signal in PROB_CYCLE:
        o, ann, start, end, product = wires(gen, rng, w, k, n_signal)
        dim = math.prod(ann.dims[p] for p in start)
        rho = gen.random_density(rng, dim)
        env = {e: gen.random_density(rng, 2)
               for e in sorted(o.transitions) if o.polarity[e] == "-"}
        ops.append(Op(f"{w}x{k}" + ("s" * n_signal),
                      _prob_op(o, ann, start, end, rho, env),
                      lambda out, want: abs(out - want) <= TOL_PROB, product))
    return Workload("prob", ops, tail_percentile=75)


# --------------------------------------------------------------------------
# sample: Monte Carlo executions of branching_demo beside weighted cliques

# Clique components (size, place dim) beside `branching_demo`, and runs of
# each net per cycle.  Marking spaces run from 16 to 128 dims.  The one run
# of the largest net is the top 1.2% of a cycle, so p99.5 falls on it.
SAMPLE_CYCLE = [
    ([(4, 4)], 10),
    ([(3, 2), (2, 2)], 40),
    ([(2, 2), (5, 4)], 33),
    ([(3, 4), (2, 4)], 1),
]


def _sample_classes(parts_weights):
    """Exact probability of every run class (the set of fired events): the
    product of one branch weight per component."""
    classes = {frozenset(): 1.0}
    for weights in parts_weights:
        classes = {cls | {e}: p * w for cls, p in classes.items()
                   for e, w in weights.items()}
    return classes


def _fired(out):
    return frozenset(rec["event"] for rec in out.log)


def _sample_output(out, expected) -> bool:
    weights, classes, fixed = expected
    if out.halted != "deadlock":
        return False
    fired = _fired(out) - fixed
    for rec in out.log:
        if rec.get("kind") == "env":
            continue
        if abs(rec["prob"] - weights.get(rec["event"], math.inf)) > TOL_PROB:
            return False
    return fired in classes


def _sample_frequencies(records) -> set:
    """Every run class of every net must have a frequency within
    FREQ_SIGMAS standard errors of its exact probability; runs of a class
    that misses fail."""
    by_net = {}
    for idx, rec in enumerate(records):
        by_net.setdefault(id(rec.op), []).append(idx)
    bad = set()
    for idxs in by_net.values():
        weights, classes, fixed = records[idxs[0]].op.expected
        seen = {}
        for idx in idxs:
            fired = records[idx].out
            if fired is not None:
                seen.setdefault(fired - fixed, []).append(idx)
        n = len(idxs)
        for cls, p in classes.items():
            got = len(seen.get(cls, []))
            se = math.sqrt(p * (1 - p) / n)
            if abs(got / n - p) > FREQ_SIGMAS * se:
                bad |= set(seen.get(cls, [])) or set(idxs)
    return bad


def build_sample(gen, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for cliques, runs in SAMPLE_CYCLE:
        parts = [branching_demo()]
        for k, d in cliques:
            w = rng.uniform(0.5, 1.5, size=k)
            parts.append(gen.clique_net(rng, k, d, weights=list(w / w.sum())))
        an, maps = _compose(parts)
        weights = {maps[0]["b"]: 0.5, maps[0]["c"]: 0.5}
        per_part = [{maps[0]["b"]: 0.5, maps[0]["c"]: 0.5}]
        for part, m in zip(parts[1:], maps[1:]):
            ws = {m[t]: float(np.trace(_effect(part.ann.channels[t])).real
                              / part.ann.dims["hub"])
                  for t in part.net.transitions}
            weights |= ws
            per_part.append(ws)
        expected = (weights, _sample_classes(per_part), frozenset({maps[0]["a"]}))
        dim = math.prod(an.ann.dims[p] for p in an.net.initial_marking)
        rho = gen.random_density(rng, dim)
        label = "bd+" + "+".join(f"K{k}d{d}" for k, d in cliques)

        def run(i, an=an, rho=rho):
            return semantics.sample_execution(an.net, an.ann, rho, seed=seed + i)

        ops += [Op(label, run, _sample_output, expected, _fired)] * runs
    return Workload("sample", ops, tail_percentile=99.5,
                    judge_all=_sample_frequencies)


# --------------------------------------------------------------------------
# unfold: `qpn unfold net.json --depth d --out prefix.json`


def ring(gen, rng) -> AnnotatedNet:
    """Three dim-2 places in a ring; the first has a binary choice."""
    ps = ["r0", "r1", "r2"]
    arcs = {"ra": (0, 1), "rb": (0, 1), "rc": (1, 2), "rd": (2, 0)}
    wa = float(rng.uniform(0.2, 0.8))
    weight = {"ra": wa, "rb": 1.0 - wa, "rc": 1.0, "rd": 1.0}
    flow, chans = set(), {}
    for t, (a, b) in arcs.items():
        flow |= {(ps[a], t), (t, ps[b])}
        chans[t] = gen.random_cptni(rng, 2, 2, weight=weight[t])
    pol = {t: "0" for t in arcs}
    net = nets.Net(set(ps), set(arcs), flow, {"r0"}, pol)
    nets.verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation({p: 2 for p in ps}, chans, {}))


def expected_prefix(net, depth: int):
    """Event and condition ids of the depth-bounded unfolding of a net in
    which every transition has one pre-place and one post-place.

    Ids are content-derived: an initial condition is ``p.``, an event
    ``t[c]`` for its pre-condition c, and its post-condition ``t[c]>q.0``.
    With one token per ring the unfolding is a tree, enumerated directly.
    """
    post, consumers = {}, {p: [] for p in net.places}
    for a, b in net.flow:
        if a in consumers:
            consumers[a].append(b)
        else:
            post[a] = b
    conds = {f"{p}.": p for p in net.initial_marking}
    events = set()
    frontier = [(c, p, 0) for c, p in conds.items()]
    while frontier:
        c, p, d = frontier.pop()
        if d + 1 > depth:
            continue
        for t in consumers[p]:
            e = f"{t}[{c}]"
            c2 = f"{e}>{post[t]}.0"
            events.add(e)
            conds[c2] = post[t]
            frontier.append((c2, post[t], d + 1))
    return frozenset(events), frozenset(conds)


def _unfold_output(out, expected) -> bool:
    code, _, prefix = out
    events, conds = expected
    if code != 0:
        return False
    with open(prefix) as fh:
        doc = json.load(fh)
    return (doc.get("format") == "qpn-net"
            and {t["id"] for t in doc["transitions"]} == events
            and {p["id"] for p in doc["places"]} == conds)


# Ring depths, then pairs of single-ring state machines (places, dim,
# branching places, negatives) and their depth.  Depths 16 to 18 are left
# out: an op there allocates hundreds of MB, and its time swung by up to
# two thirds between runs on the sizing host while small ops held steady.
# Where a ring branches is left to the seed and moves a pair's cost, so
# the pairs are kept cheaper than any ring: the median and p75 then fall
# on rings (depths 12 and 14), whose structure is the same for every seed.
UNFOLD_RINGS = [12, 13, 14, 15]
UNFOLD_PAIRS = [
    (((3, 2, 1, 0),), ((2, 2, 0, 0),), 10),
    (((2, 1, 1, 0),), ((2, 2, 0, 0),), 8),
    (((2, 3, 1, 0),), ((3, 1, 0, 0),), 8),
]


def build_unfold(gen, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    inputs = [(ring(gen, rng), d, f"ring-d{d}") for d in UNFOLD_RINGS]
    machines = StateMachines(gen, rng)
    for j, (sig_a, sig_b, d) in enumerate(UNFOLD_PAIRS):
        an, _ = _compose([machines.take(sig_a), machines.take(sig_b)])
        inputs.append((an, d, f"sm-pair{j}-d{d}"))
    ops = []
    for slot, (an, depth, label) in enumerate(inputs):
        path = os.path.join(workdir, f"unfold{slot}.json")
        prefix = os.path.join(workdir, f"prefix{slot}.json")
        save_net(path, an.net, an.ann)

        def run(i, path=path, depth=depth, prefix=prefix):
            code, text = _cli(["unfold", path, "--depth", str(depth), "--out", prefix])
            return code, text, prefix

        ops.append(Op(label, run, _unfold_output, expected_prefix(an.net, depth)))
    return Workload("unfold", ops, tail_percentile=75)


BUILDERS = {"check": build_check, "prob": build_prob, "sample": build_sample,
            "unfold": build_unfold}
