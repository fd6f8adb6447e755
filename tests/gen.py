"""Random instance generators shared by the test suite.

All generators take a numpy Generator so tests are reproducible from
seeds.  Nets stay at desk scale: few events, small dimensions, clusters
capped so the exhaustive oracle and the local checker quantify over the
same families.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from qpn.algebra import Channel
from qpn.annotation import LocalAnnotation
from qpn.compose import AnnotatedNet, JoinSpec, parallel
from qpn.nets import Net, OccurrenceNet, verify_safety


def random_cptni(rng, din: int, dout: int, *, weight=None) -> Channel:
    """A generic CPTNI channel with effect = weight * (random PSD <= I)."""
    nk = max(2, -(-din // max(dout, 1)) + 1)
    gs = [rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din))
          for _ in range(nk)]
    s = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(s)
    m = v @ np.diag(1 / np.sqrt(np.clip(w, 1e-12, None))) @ v.conj().T
    # random contraction on the input makes the effect a generic PSD <= I
    u = rng.uniform(0.0, 1.0, size=din) if weight is None \
        else np.full(din, float(weight))
    q = np.linalg.qr(rng.normal(size=(din, din))
                     + 1j * rng.normal(size=(din, din)))[0]
    a_half = q @ np.diag(np.sqrt(u)) @ q.conj().T
    return Channel(din, dout, tuple(g @ m @ a_half for g in gs))


def random_density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class _Builder:
    """Incremental occurrence-net builder tracking just enough structure
    to keep pre-set choices concurrent and clusters small.

    Conditions are bit positions in creation order, and ``co[i]`` is the
    mask of the conditions concurrent with condition i, by the rule of
    ``qpn.unfolding.unfold``: an event's post-conditions are concurrent
    with one another and with every condition concurrent with its whole
    pre-set; the initial conditions are pairwise concurrent.
    """

    def __init__(self):
        self.dims = {}
        self.pre_e, self.post_e = {}, {}
        self.bit = {}  # condition -> bit position
        self.co = []  # co-set mask per bit position
        self.base = {None: 0}  # producer -> mask its next condition is co with
        self.pol = {}

    def new_condition(self, dim, producer=None):
        i = len(self.dims)
        c = f"c{i}"
        self.dims[c] = dim
        self.bit[c] = i
        if producer not in self.base:
            self.base[producer] = functools.reduce(
                operator.and_, (self.co[self.bit[p]] for p in self.pre_e[producer]))
        base = self.base[producer]
        self.co.append(base)
        for j in range(i):
            if base >> j & 1:
                self.co[j] |= 1 << i
        self.base[producer] = base | 1 << i
        return c

    def consumers(self, c):
        return {e for e, pre in self.pre_e.items() if c in pre}

    def concurrent(self, c1, c2):
        return bool(self.co[self.bit[c1]] >> self.bit[c2] & 1)

    def cluster_of(self, event_set, seed_events):
        """Connected component of the shared-pre-place graph seeded at
        ``seed_events`` within ``event_set`` (used to cap cluster growth)."""
        comp = set(seed_events)
        grown = True
        while grown:
            grown = False
            for e in event_set:
                if e in comp:
                    continue
                if any(self.pre_e[e] & self.pre_e[f] for f in comp):
                    comp.add(e)
                    grown = True
        return comp


def random_occurrence_annotated(rng, max_events: int = 6, max_dim: int = 4,
                                allow_negative: bool = True) -> AnnotatedNet:
    """A race-free annotated occurrence net with small conflict clusters.

    Negative events get identity channels (so Local Obliviousness holds by
    construction); other channels are random CPTNI, so the drop verdict is
    genuinely random across instances.
    """
    b = _Builder()
    for _ in range(int(rng.integers(2, 4))):
        b.new_condition(int(rng.integers(1, max_dim + 1)))

    channels, h = {}, {}
    n_events = int(rng.integers(1, max_events + 1))
    for k in range(n_events):
        e = f"e{k}"
        placed = False
        for _ in range(12):  # retries with fresh picks
            pool = [c for c in b.dims if len(b.consumers(c)) < 2]
            if not pool:
                break
            size = 1 if rng.random() < 0.7 else 2
            picks = list(rng.choice(pool, size=min(size, len(pool)),
                                    replace=False))
            if len(picks) == 2 and not b.concurrent(picks[0], picks[1]):
                continue
            rivals = set().union(*(b.consumers(c) for c in picks))
            # race-freeness: polarity class must match existing consumers
            if rivals:
                neg = all(b.pol[r] == "-" for r in rivals)
                pos_ok = all(b.pol[r] != "-" for r in rivals)
                if not (neg or pos_ok):
                    continue
                polarity = "-" if neg else ("0" if rng.random() < 0.6 else "+")
            else:
                r = rng.random()
                polarity = ("-" if r < 0.25 and allow_negative
                            else "0" if r < 0.7 else "+")
            if not allow_negative and polarity == "-":
                polarity = "0"
            b.pre_e[e] = frozenset(picks)
            cluster = b.cluster_of(set(b.pre_e) - {e}, {e})
            if len(cluster) > 3:
                del b.pre_e[e]
                continue
            din = int(np.prod([b.dims[c] for c in picks]))
            if polarity == "-":
                hd = int(rng.integers(1, 3))
                if din * hd > 8:
                    hd = 1
                if din * hd > 8:
                    del b.pre_e[e]
                    continue
                post = [b.new_condition(din * hd, e)]
                channels[e] = Channel.identity(din * hd)
                if hd > 1:
                    h[e] = hd
            else:
                post = [b.new_condition(int(rng.integers(1, max_dim + 1)), e)
                        for _ in range(int(rng.integers(1, 3)))]
                dout = int(np.prod([b.dims[c] for c in post]))
                hd = int(rng.integers(1, 3)) if polarity == "+" else 1
                channels[e] = random_cptni(rng, din, dout * hd)
                if polarity == "+" and hd > 1:
                    h[e] = hd
            b.pol[e] = polarity
            b.post_e[e] = frozenset(post)
            placed = True
            break
        if not placed:
            break

    flow = set()
    for e in b.pre_e:
        flow |= {(c, e) for c in b.pre_e[e]}
        flow |= {(e, c) for c in b.post_e[e]}
    produced = set().union(*(b.post_e[e] for e in b.post_e), set())
    net = OccurrenceNet(set(b.dims), set(b.pre_e), flow,
                        set(b.dims) - produced, b.pol)
    verify_safety(net)
    ann = LocalAnnotation(dict(b.dims), channels, h)
    return AnnotatedNet(net, ann)


def random_state_machine(rng, max_dim: int = 3) -> AnnotatedNet:
    """A (possibly cyclic) safe net built from 1-2 token-conserving rings.

    Each ring keeps exactly one token, so the net is safe by construction;
    competing transitions out of the same place create conflict clusters.
    """
    groups = int(rng.integers(1, 3))
    places, flow, pol, dims, channels, h = set(), set(), {}, {}, {}, {}
    initial = set()
    tcount = 0
    for g in range(groups):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, max_dim + 1))
        ids = [f"g{g}p{i}" for i in range(n)]
        places |= set(ids)
        for p in ids:
            dims[p] = d
        initial.add(ids[0])
        for i, p in enumerate(ids):
            q = ids[(i + 1) % n]
            fanout = 2 if rng.random() < 0.3 else 1
            negative = rng.random() < 0.25 and fanout == 1
            for _ in range(fanout):
                t = f"t{tcount}"
                tcount += 1
                flow |= {(p, t), (t, q)}
                if negative:
                    pol[t] = "-"
                    channels[t] = Channel.identity(d)
                elif rng.random() < 0.3:
                    pol[t] = "+"
                    hd = int(rng.integers(1, 3))
                    channels[t] = random_cptni(rng, d, d * hd)
                    if hd > 1:
                        h[t] = hd
                else:
                    pol[t] = "0"
                    channels[t] = random_cptni(rng, d, d)
    net = Net(places, set(pol), flow, initial, pol)
    verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(dims, channels, h))


def clique_net(rng, size: int, dim: int = 2, *, weights=None) -> AnnotatedNet:
    """One marked place consumed by ``size`` pairwise-conflicting events."""
    place = "hub"
    pol, channels, flow, dims = {}, {}, set(), {place: dim}
    weights = weights if weights is not None else [1.0 / size] * size
    for i in range(size):
        t = f"k{i}"
        out = f"out{i}"
        dims[out] = dim
        pol[t] = "0"
        channels[t] = Channel.identity(dim).scaled(float(weights[i]))
        flow |= {(place, t), (t, out)}
    net = OccurrenceNet(set(dims), set(pol), flow, {place}, pol)
    verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(dims, channels, {}))


def joinable_net(rng, conflicting_negatives: bool, matched: bool) -> AnnotatedNet:
    """A QPN with a negative cluster N and positive events P ready to join.

    ``conflicting_negatives`` makes the two negatives share a pre-place;
    ``matched`` does the same for the positives, so the pairing preserves
    conflict exactly when both flags agree.
    """
    dims = {"s": 2, "u1": 2, "u2": 2, "d1": 4, "d2": 4, "v1": 1, "v2": 1,
            "s2": 2}
    pol = {"n1": "-", "n2": "-", "p1": "+", "p2": "+"}
    flow = {("n1", "d1"), ("n2", "d2"),
            ("u1", "p1"), ("p1", "v1"), ("u2", "p2"), ("p2", "v2")}
    initial = {"u1", "u2"}
    if conflicting_negatives:
        flow |= {("s", "n1"), ("s", "n2")}
        initial |= {"s"}
        del dims["s2"]
    else:
        flow |= {("s", "n1"), ("s2", "n2")}
        initial |= {"s", "s2"}
    if matched:
        # a shared extra pre-place puts p1 and p2 in conflict
        dims["w"] = 1
        flow |= {("w", "p1"), ("w", "p2")}
        initial |= {"w"}
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    chan_p = Channel.from_unitary(x)
    if matched:
        # conflicting positives must share their branch weight to keep the
        # net a QPN before (and after) the join
        chan_p = chan_p.scaled(0.5)
    channels = {
        "n1": Channel.identity(4), "n2": Channel.identity(4),
        "p1": chan_p, "p2": chan_p,
    }
    net = Net(set(dims), set(pol), flow, initial, pol)
    verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(dims, channels,
                                             {"n1": 2, "n2": 2,
                                              "p1": 2, "p2": 2}))


JOIN_MUTATIONS = ("partial", "uncarried", "signal")


def random_join(rng, mutation=None):
    """(composite, spec): a producer whose positive events p0.. lie in one
    cluster beside a consumer whose negative events n0.. form a whole
    negative cluster, put side by side with ``parallel``, and the spec
    pairing p_i with n_i.

    The positives share the hub h, with a neutral rival z at times, and
    have effects w_i·I whose weights sum to at most 1.2, so some producers
    fail the drop condition.  The negatives share s or form a chain over
    s0.., and are identities.  Dims, signal dims and private pre-places
    come from ``rng``.  A ``mutation`` from :data:`JOIN_MUTATIONS` breaks
    the spec: "partial" leaves the last negative unpaired, "uncarried"
    gives each positive its own hub, bridged by z, so conflicting
    negatives meet positives that do not conflict, and "signal" gives the
    first negative one signal dimension more than its positive.
    """
    k = int(rng.integers(2 if mutation in ("partial", "uncarried") else 1, 4))
    producer, consumer = _Side(), _Side()
    uncarried = mutation == "uncarried"
    neutral = uncarried or rng.random() < 0.3
    hubs = [producer.place(f"h{i}" if uncarried else "h", int(rng.integers(1, 3)))
            for i in range(k)]
    weights = rng.dirichlet(np.ones(k + neutral)) * rng.uniform(0.6, 1.2)
    if neutral:
        producer.event("z", "0", sorted(set(hubs)), [producer.place("oz", 1, False)], 1,
                       lambda din, dout: random_cptni(rng, din, dout, weight=weights[k]))
    signals = [int(rng.integers(1, 3)) for _ in range(k)]
    for i in range(k):
        own = [producer.place(f"a{i}", int(rng.integers(1, 3)))] if rng.random() < 0.3 else []
        producer.event(f"p{i}", "+", [hubs[i]] + own,
                       [producer.place(f"o{i}", int(rng.integers(1, 3)), False)], signals[i],
                       lambda din, dout, w=weights[i]: random_cptni(rng, din, dout, weight=w))
    if mutation == "signal":
        signals[0] += 1
    chain = rng.random() < 0.5
    shared = [consumer.place(f"s{i}" if chain else "s", int(rng.integers(1, 3)))
              for i in range(k + chain)]
    for i in range(k):
        own = [consumer.place(f"b{i}", int(rng.integers(1, 3)))] if rng.random() < 0.3 else []
        pre = shared[i:i + 1 + chain] + own
        d = consumer.size(pre) * signals[i]
        consumer.event(f"n{i}", "-", pre, [consumer.place(f"d{i}", d, False)], signals[i],
                       lambda din, dout: Channel.identity(din))
    composite, _ = parallel(producer.annotated(), consumer.annotated())
    return composite, JoinSpec(tuple((f"p{i}", f"n{i}")
                                     for i in range(k - (mutation == "partial"))))


class _Side:
    """One side of :func:`random_join`, built place by place."""

    def __init__(self):
        self.dims, self.pol, self.channels, self.h = {}, {}, {}, {}
        self.flow, self.m0 = set(), set()

    def place(self, p, dim, marked=True):
        self.dims[p] = dim
        if marked:
            self.m0.add(p)
        return p

    def size(self, places):
        return int(np.prod([self.dims[p] for p in places]))

    def event(self, t, polarity, pre, post, signal, channel):
        """``channel(din, dout)`` makes t's channel: a positive t emits the
        signal, a negative one absorbs it."""
        self.pol[t] = polarity
        self.flow |= {(p, t) for p in pre} | {(t, p) for p in post}
        if signal > 1:
            self.h[t] = signal
        din, dout = self.size(pre), self.size(post)
        self.channels[t] = channel(din * signal, dout) if polarity == "-" \
            else channel(din, dout * signal)

    def annotated(self) -> AnnotatedNet:
        net = Net(set(self.dims), set(self.pol), self.flow, self.m0, self.pol)
        verify_safety(net)
        return AnnotatedNet(net, LocalAnnotation(self.dims, self.channels, self.h))


def racy_net() -> AnnotatedNet:
    """Place p consumed by a neutral event a and a negative event n.

    Every stage but race-freeness passes: the channels are 0.5·I on a and
    I on n (dim 2), so the drop condition holds at every marking.
    """
    dims = {"p": 2, "pa": 2, "pn": 2}
    pol = {"a": "0", "n": "-"}
    flow = {("p", "a"), ("a", "pa"), ("p", "n"), ("n", "pn")}
    net = OccurrenceNet(set(dims), set(pol), flow, {"p"}, pol)
    verify_safety(net)
    return AnnotatedNet(net, LocalAnnotation(
        dims, {"a": Channel.identity(2).scaled(0.5), "n": Channel.identity(2)}))


def kraus_presentations(rng, an: AnnotatedNet) -> dict:
    """Copies of ``an`` whose every channel has another Kraus list of the
    same map (Choi 1975: K'_i = Σ_j W_ij K_j for any isometry W), by name:

    - "isometry": W a random (k + 1 or k + 2) × k isometry;
    - "zeros": the list with one or two zero operators appended;
    - "split": each K replaced by K/√2, K/√2.
    """
    def isometry(ks):
        rows = len(ks) + int(rng.integers(1, 3))
        z = rng.normal(size=(rows, len(ks))) + 1j * rng.normal(size=(rows, len(ks)))
        return np.einsum("ij,jab->iab", np.linalg.qr(z)[0], ks)

    def zeros(ks):
        return np.concatenate([ks, np.zeros((int(rng.integers(1, 3)),) + ks.shape[1:])])

    def split(ks):
        return np.repeat(ks / np.sqrt(2), 2, axis=0)

    out = {}
    for name, present in (("isometry", isometry), ("zeros", zeros), ("split", split)):
        channels = {t: Channel(c.dim_in, c.dim_out, present(c.stack))
                    for t, c in sorted(an.ann.channels.items())}
        out[name] = AnnotatedNet(an.net, LocalAnnotation(an.ann.dims, channels, an.ann.h))
    return out
