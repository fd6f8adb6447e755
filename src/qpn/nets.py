"""Safe Petri nets and occurrence nets.

Structure, token game, causality/conflict, the configuration/marking
correspondence, marking intervals with their firing order, and conflict
clusters.
Nets are immutable after validation; derived relations are computed once
and cached, so all queries are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    NotAConfiguration,
    NotEnabled,
    NotReachableFrom,
    QpnError,
    SafetyViolation,
    Unreachable,
)
from .outcome import CheckOutcome

NEGATIVE = "-"
NEUTRAL = "0"
POSITIVE = "+"
POLARITIES = (NEGATIVE, NEUTRAL, POSITIVE)

# Default cap on exhaustive marking exploration at load time.
DEFAULT_MARKING_BOUND = 100_000

Marking = frozenset


class Net:
    """A safe Petri net (P, T, F, m0) with a polarity per transition.

    Node identifiers are opaque strings; the canonical total order used for
    all downstream tensor-factor conventions is lexicographic on id.
    """

    def __init__(self, places, transitions, flow, initial_marking, polarity, *,
                 _adjacency=None):
        """``_adjacency``, a (pre, post) pair of dicts from every node to its
        pre- and post-set as frozensets, spares deriving them from the
        flow, whose arcs must then be tuples; the two must agree."""
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.initial_marking = frozenset(initial_marking)
        self.polarity = dict(polarity)
        self.flow = frozenset(tuple(arc) for arc in flow) if _adjacency is None \
            else frozenset(flow)
        self._validate_structure()
        if _adjacency is None:
            pre = {n: set() for n in self.places | self.transitions}
            post = {n: set() for n in self.places | self.transitions}
            for a, b in self.flow:
                post[a].add(b)
                pre[b].add(a)
            _adjacency = ({n: frozenset(s) for n, s in pre.items()},
                          {n: frozenset(s) for n, s in post.items()})
        self._pre, self._post = _adjacency
        # Set by verify_safety; downstream checkers refuse unverified nets.
        self.safety_verified = False
        self._components = None  # kept by flow_components
        self._reachable = None  # kept by component_markings
        self._plans = None  # (annotation, step plans), kept by sample_execution

    def _validate_structure(self):
        if self.places & self.transitions:
            raise QpnError(
                f"place/transition ids overlap: {sorted(self.places & self.transitions)}")
        bad = [(a, b) for a, b in self.flow if not (
            a in self.places and b in self.transitions
            or a in self.transitions and b in self.places)]
        if bad:  # name the least arc
            raise QpnError("flow arc ({}, {}) is not bipartite".format(*min(bad)))
        if not self.initial_marking <= self.places:
            raise QpnError("initial marking contains unknown places")
        missing = self.transitions - set(self.polarity)
        if missing:
            raise QpnError(f"missing polarity for transitions: {sorted(missing)}")
        for t, p in self.polarity.items():
            if p not in POLARITIES:
                raise QpnError(f"bad polarity {p!r} on {t}")

    @functools.cached_property
    def sorted_transitions(self) -> tuple:
        """The transitions in sorted order: every scan over them that can
        name a witness takes them in this order."""
        return tuple(sorted(self.transitions))

    def pre(self, node) -> frozenset:
        return self._pre[node]

    def post(self, node) -> frozenset:
        return self._post[node]

    def pol(self, t) -> str:
        return self.polarity[t]

    def non_negative(self, t) -> bool:
        return self.polarity[t] != NEGATIVE


def enabled(net: Net, m: Marking, transitions=None) -> frozenset:
    """Transitions t (of ``transitions``, default all) with pre-set contained in m."""
    ts = net.transitions if transitions is None else transitions
    return frozenset(t for t in ts if net.pre(t) <= m)


def fire(net: Net, m: Marking, t) -> Marking:
    if not net.pre(t) <= m:
        raise NotEnabled(f"{t} is not enabled at {sorted(m)}")
    left = m - net.pre(t)
    if net.post(t) & left:
        raise SafetyViolation(
            f"firing {t} at {sorted(m)} puts a second token on "
            f"{sorted(net.post(t) & left)}"
        )
    return frozenset(left | net.post(t))


def bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected_components(nodes, neighbours) -> list:
    """The connected components of the graph on ``nodes`` whose edges are
    given by ``neighbours`` (which may name nodes outside it), as lists in
    order of their least node."""
    todo = set(nodes)
    comps = []
    for n in sorted(todo):
        if n in todo:
            todo.discard(n)
            comp = [n]
            for x in comp:  # visits the nodes appended below too
                for y in neighbours(x):
                    if y in todo:
                        todo.discard(y)
                        comp.append(y)
            comps.append(comp)
    return comps


def flow_components(net: Net) -> tuple:
    """The flow-connected components of ``net`` as (places, transitions)
    pairs, in order of their least id; computed once and kept on the net.
    A transition fires on its own component's places only, so a marking of
    the net is one marking per component, each reachable on its own."""
    if net._components is None:
        comps = _connected_components(net.places | net.transitions,
                                      lambda x: net.pre(x) | net.post(x))
        net._components = ((net.places, net.transitions),) if len(comps) == 1 \
            else tuple((net.places.intersection(c), net.transitions.intersection(c))
                       for c in comps)
    return net._components


def _explore(net: Net, m0: Marking, transitions, bound: int, rest: frozenset) -> frozenset:
    """DFS closure of m0 under firing ``transitions``, each marking's
    enabled ones in sorted order, so an unsafe firing is always found by
    the same search; it stops at the marking past ``bound``.  An unsafe
    firing is named at its marking plus the places ``rest``, which no
    transition touches."""
    ts = [(t, net.pre(t)) for t in net.sorted_transitions if t in transitions]
    seen = {m0}
    frontier = [m0]
    while frontier:
        m = frontier.pop()
        for t in (t for t, pre in ts if pre <= m):
            try:
                m2 = fire(net, m, t)
            except SafetyViolation:  # fire again where ``rest`` is marked too, to raise there
                fire(net, m | rest, t)
            if m2 not in seen:
                seen.add(m2)
                if len(seen) > bound:
                    return seen  # over the bound: raised on, never kept
                frontier.append(m2)
    return frozenset(seen)


def component_markings(net: Net, bound: int = DEFAULT_MARKING_BOUND) -> tuple:
    """The reachable markings of each flow component, explored once from
    its share of the net's m0 with its own transitions: the net's
    reachable markings are their product, which is never enumerated.

    Components go in order.  The first unsafe firing is raised, named at
    the component's marking plus the others' part of m0, even past a
    component over the bound; else BoundExceeded past ``bound`` markings
    of one component (a net with none has one marking).  A complete
    exploration is kept on the net."""
    m0 = net.initial_marking
    parts = net._reachable or tuple(_explore(net, m0 & ps, ts, bound, m0 - ps)
                                    for ps, ts in flow_components(net))
    if max(map(len, parts), default=1) > bound:
        raise BoundExceeded(f"more than {bound} reachable markings")
    net._reachable = parts
    return parts


def component_witness(bad, shares):
    """(marking, value) of the first part with a bad marking, or None: its
    least bad marking (as a sorted place tuple) joined with the other
    parts' ``shares`` of m0, a reachable marking of the net, and its value
    in ``bad``, one {marking: value} per part.  Safety names its first
    unsafe firing beside the others' part of m0 too (:func:`_explore`)."""
    for i, b in enumerate(bad):
        if b:
            m = min(b)
            rest = (p for j, share in enumerate(shares) if j != i for p in share)
            return tuple(sorted((*m, *rest))), b[m]
    return None


def verify_safety(net: Net, bound: int = DEFAULT_MARKING_BOUND) -> CheckOutcome:
    """Bounded exhaustive safety exploration, per flow component
    (:func:`component_markings`); marks the net verified on pass.
    ``markings`` counts the whole net's markings."""
    try:
        n = math.prod(map(len, component_markings(net, bound)))
    except SafetyViolation as exc:
        return CheckOutcome.fail(str(exc))
    except BoundExceeded as exc:
        return CheckOutcome.fail(str(exc), bound_exceeded=True)
    net.safety_verified = True
    return CheckOutcome.ok(markings=n)


def race_free(net: Net) -> CheckOutcome:
    """Minimal conflicts must not mix negative with non-negative events."""
    pairs = {pair for p in net.places
             for pair in itertools.combinations(sorted(net.post(p) & net.transitions), 2)}
    for a, b in sorted(pairs):
        if (net.pol(a) == NEGATIVE) != (net.pol(b) == NEGATIVE):
            return CheckOutcome.fail(
                f"race: {a}({net.pol(a)}) ~ {b}({net.pol(b)})", witness=(a, b)
            )
    return CheckOutcome.ok()


class OccurrenceNet(Net):
    """An acyclic safe net with the usual occurrence-net axioms.

    Use :func:`is_occurrence_net` to get a verdict instead of an exception.
    Causality and conflict are Python-int bitmasks, one per node, over bit
    positions in a topological order: ``_below[n]`` holds the nodes strictly
    below n and ``_conflict[n]`` the rivals of the events at or below n, so
    x # y iff it meets y or a node below y.  Every query is a mask test.
    """

    def __init__(self, places, transitions, flow, initial_marking, polarity, *,
                 _adjacency=None, _order=None):
        """``_adjacency`` is as for :class:`Net`; ``_order``, a proposed
        topological order of the nodes, is kept if every arc goes forward
        in it, and the nodes are sorted afresh otherwise."""
        super().__init__(places, transitions, flow, initial_marking, polarity,
                         _adjacency=_adjacency)
        relations = None if _order is None else self._relations(_order)
        if relations is None and (_order := self._topological_order()) is not None:
            relations = self._relations(_order)
        if relations is None:
            reason = "flow relation is cyclic"
        elif branching := [c for c in self.places if len(self._pre[c]) > 1]:
            reason = f"backward branching at condition {min(branching)}"
        # events with empty pre-set are formally allowed by some authors but
        # break the marking correspondence; reject them
        elif empty := sorted(e for e in self.transitions if not self._pre[e]):
            reason = f"event with empty pre-set: {empty}"
        elif {c for c in self.places if not self._pre[c]} != self.initial_marking:
            reason = "initial marking is not the set of minimal conditions"
        elif selfish := relations[3]:  # the nodes in conflict with themselves
            reason = f"self-conflict at {min(selfish)}"
        else:
            self._order, (self._bit, self._below, self._conflict, _) = _order, relations
            self._events = sum(self._bit[e] for e in self.transitions)
            return
        raise QpnError(f"not an occurrence net: {reason}")

    def _relations(self, order):
        """(bit, below, conflict, selfish) over ``order`` in one forward pass:
        each node's bit, masks of the nodes strictly below it and of the
        rivals of the events at or below it (the other consumers of their
        pre-conditions), and the nodes in conflict with themselves.  None
        unless ``order`` lists every node once and every arc goes forward
        in it, which proves the flow acyclic."""
        bit = {n: 1 << i for i, n in enumerate(order)}
        if len(bit) != len(order) or bit.keys() != self._pre.keys():
            return None
        pre, post, events = self._pre, self._post, self.transitions
        below, conflict, selfish = {}, {}, []
        try:
            for n in order:
                b = c = 0
                for p in pre[n]:
                    b |= bit[p] | below[p]  # a KeyError: the arc (p, n) goes backward
                    c |= conflict[p]
                    if n in events:
                        for rival in post[p]:
                            if rival != n:
                                c |= bit[rival]
                below[n], conflict[n] = b, c
                if c & (b | bit[n]):
                    selfish.append(n)
        except KeyError:
            return None
        return bit, below, conflict, selfish

    def _topological_order(self):
        nodes = self.places | self.transitions
        indeg = {n: len(self._pre[n]) for n in nodes}
        ready = sorted(n for n in nodes if indeg[n] == 0)
        out = []
        while ready:
            n = ready.pop()
            out.append(n)
            for s in self._post[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        return out if len(out) == len(nodes) else None

    def _nodes(self, mask) -> frozenset:
        return frozenset(self._order[i] for i in bits(mask))

    # -- derived relations ------------------------------------------------

    def lt(self, a, b) -> bool:
        return bool(self._below[b] & self._bit[a])

    def in_conflict(self, a, b) -> bool:
        """Distinct events at or below a and at or below b share a pre-condition."""
        return bool(self._conflict[a] & (self._below[b] | self._bit[b]))

    # -- configurations, cuts, markings ------------------------------------

    def is_configuration(self, x) -> bool:
        x = frozenset(x)
        if not x <= self.transitions:
            return False
        mask = sum(self._bit[e] for e in x)
        return not any(self._below[e] & self._events & ~mask or self._conflict[e] & mask
                       for e in x)

    def enables(self, x, e) -> bool:
        """x |- e : e not in x and x together with e is still a configuration."""
        return e not in x and self.is_configuration(frozenset(x) | {e})

    def all_configurations(self, bound: int = 100_000) -> set:
        """Every finite configuration, by search over single-event extensions."""
        ext = [(self._bit[e], self._below[e] & self._events, self._conflict[e])
               for e in self.transitions]
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for b, causes, rivals in ext:
                if not (x & b or causes & ~x or rivals & x):
                    y = x | b
                    if y not in seen:
                        if len(seen) >= bound:
                            raise BoundExceeded(f"more than {bound} configurations")
                        seen.add(y)
                        frontier.append(y)
        return {self._nodes(x) for x in seen}


def is_occurrence_net(net: Net) -> CheckOutcome:
    """Check the five occurrence-net clauses on an arbitrary net.

    An :class:`OccurrenceNet` passes at once: its constructor checked them.
    """
    try:
        as_occurrence_net(net)
    except QpnError as exc:
        return CheckOutcome.fail(str(exc))
    return CheckOutcome.ok()


def as_occurrence_net(net: Net) -> OccurrenceNet:
    if isinstance(net, OccurrenceNet):
        return net
    o = OccurrenceNet(net.places, net.transitions, net.flow, net.initial_marking,
                      net.polarity, _adjacency=(net._pre, net._post))
    o.safety_verified = net.safety_verified
    return o


def marking_of_configuration(o: OccurrenceNet, x) -> Marking:
    """Conditions produced by x (or initial) and not consumed by x."""
    x = frozenset(x)
    if not o.is_configuration(x):
        raise NotAConfiguration(f"{sorted(x)} is not a configuration")
    return _cut(o, x)


def _cut(o: OccurrenceNet, x) -> Marking:
    """The marking of the configuration x, unchecked."""
    return o.initial_marking.union(*[o.post(e) for e in x]).difference(*[o.pre(e) for e in x])


def configuration_of_marking(o: OccurrenceNet, m: Marking) -> frozenset:
    """Downward closure of the pre-events of m; inverse of the above."""
    m = frozenset(m)
    if not m <= o.places:
        raise Unreachable(f"unknown places in marking {sorted(m)}")
    tops = [e for c in m for e in o.pre(c)]  # a condition's pre-set holds events only
    mask = functools.reduce(int.__or__, (o._below[e] | o._bit[e] for e in tops), 0) & o._events
    x = o._nodes(mask)  # downward closed; conflict is inherited, so its tops test it
    if any(o._conflict[e] & mask for e in tops) or _cut(o, x) != m:
        raise Unreachable(f"marking {sorted(m)} is not reachable")
    return x


def causal_heights(o: OccurrenceNet, events) -> dict:
    """Each event's height in ``events``: the number of events on the
    longest causal chain inside ``events`` that ends at it.  ``events``
    must be convex (configurations and the events of an interval are), so
    such a chain steps from each event to an immediate cause."""
    height = {}
    for e in sorted(events, key=o._bit.__getitem__):  # causes come first
        height[e] = 1 + max((height.get(f, 0) for c in o.pre(e) for f in o.pre(c)),
                            default=0)
    return height


@dataclass(frozen=True)
class MarkingInterval:
    from_marking: Marking
    to_marking: Marking
    events: tuple  # sigma in firing order: causal height, then id
    sigma: frozenset

    @property
    def key(self):
        return (tuple(sorted(self.from_marking)), tuple(sorted(self.to_marking)))


def interval(o: OccurrenceNet, m: Marking, m2: Marking) -> MarkingInterval:
    """The interval [m; m2]: the events sigma that lead from m to m2, also
    listed in the order both readings of Q[m; m2] fire them (causal height,
    then id), so every event comes after its causes."""
    x = configuration_of_marking(o, m)
    y = configuration_of_marking(o, m2)
    if not x <= y:
        raise NotReachableFrom(f"{sorted(m2)} is not reachable from {sorted(m)}")
    sigma = y - x
    height = causal_heights(o, sigma)
    return MarkingInterval(frozenset(m), frozenset(m2),
                           tuple(sorted(sigma, key=lambda e: (height[e], e))), sigma)


def conflict_components(net: Net, events) -> list:
    """Connected components of the shared-pre-place graph on ``events``.

    Each component is a frozenset; the list is in order of each
    component's least event, and singletons are allowed.
    """
    return [frozenset(c) for c in _connected_components(
        events, lambda e: [f for p in net.pre(e) for f in net.post(p)])]


def is_clique(net: Net, events) -> bool:
    """True iff every two of ``events`` share a pre-place (so fewer than
    two events always form a clique)."""
    return all(net.pre(a) & net.pre(b)
               for a, b in itertools.combinations(sorted(events), 2))


def marking_clusters(net: Net, m: Marking, transitions=None):
    """Conflict clusters of enabled non-negative transitions (of
    ``transitions``, default all) at marking m: the shared-pre-place
    components among them."""
    return conflict_components(net, (t for t in enabled(net, m, transitions)
                                     if net.non_negative(t)))


def component_clusters(net: Net, bound: int = DEFAULT_MARKING_BOUND) -> list:
    """Per flow component, {sorted marking: its clusters as sorted tuples}
    over its reachable markings in sorted order.  A marking of the net is
    one per component and meets the union of their clusters."""
    return [{tuple(sorted(m)): [tuple(sorted(c)) for c in marking_clusters(net, m, ts)]
             for m in sorted(ms, key=sorted)}
            for (_, ts), ms in zip(flow_components(net), component_markings(net, bound))]


def _quoted(s: str) -> str:
    """A DOT quoted string: each backslash doubled, each quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net: Net, labels=None) -> str:
    """GraphViz export: circles for places, squares for transitions."""
    suffix = {NEGATIVE: "⊖", NEUTRAL: "0", POSITIVE: "⊕"}
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in sorted(net.places):
        label = f"{p} : {labels[p]}" if labels and p in labels else p
        marked = ", penwidth=2" if p in net.initial_marking else ""
        lines.append(f'  {_quoted(p)} [shape=circle, label={_quoted(label)}{marked}];')
    for t in sorted(net.transitions):
        base = f"{t} : {labels[t]}" if labels and t in labels else t
        label = f"{base} {suffix[net.pol(t)]}"
        lines.append(f'  {_quoted(t)} [shape=box, label={_quoted(label)}];')
    for a, b in sorted(net.flow):
        lines.append(f'  {_quoted(a)} -> {_quoted(b)};')
    lines.append("}")
    return "\n".join(lines)
