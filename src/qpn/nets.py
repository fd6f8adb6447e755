"""Safe Petri nets and occurrence nets.

Structure, token game, causality/conflict, the configuration/cut/marking
correspondence, marking intervals, restrictions and conflict clusters.
Nets are immutable after validation; derived relations are computed once
and cached, so all queries are read-only.
"""

from __future__ import annotations

import itertools
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

    def __init__(self, places, transitions, flow, initial_marking, polarity):
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.flow = frozenset(tuple(arc) for arc in flow)
        self.initial_marking = frozenset(initial_marking)
        self.polarity = dict(polarity)
        self._validate_structure()
        self._pre = {n: frozenset() for n in self.places | self.transitions}
        self._post = {n: frozenset() for n in self.places | self.transitions}
        pre = {n: set() for n in self.places | self.transitions}
        post = {n: set() for n in self.places | self.transitions}
        for a, b in self.flow:
            post[a].add(b)
            pre[b].add(a)
        self._pre = {n: frozenset(s) for n, s in pre.items()}
        self._post = {n: frozenset(s) for n, s in post.items()}
        # Set by verify_safety; downstream checkers refuse unverified nets.
        self.safety_verified = False

    def _validate_structure(self):
        if self.places & self.transitions:
            raise QpnError(f"place/transition ids overlap: {self.places & self.transitions}")
        for a, b in self.flow:
            if a in self.places and b in self.transitions:
                continue
            if a in self.transitions and b in self.places:
                continue
            raise QpnError(f"flow arc ({a}, {b}) is not bipartite")
        if not self.initial_marking <= self.places:
            raise QpnError("initial marking contains unknown places")
        missing = self.transitions - set(self.polarity)
        if missing:
            raise QpnError(f"missing polarity for transitions: {sorted(missing)}")
        for t, p in self.polarity.items():
            if p not in POLARITIES:
                raise QpnError(f"bad polarity {p!r} on {t}")

    def pre(self, node) -> frozenset:
        return self._pre[node]

    def post(self, node) -> frozenset:
        return self._post[node]

    def pol(self, t) -> str:
        return self.polarity[t]

    def non_negative(self, t) -> bool:
        return self.polarity[t] != NEGATIVE


def enabled(net: Net, m: Marking) -> frozenset:
    """Transitions t with pre-set contained in m."""
    return frozenset(t for t in net.transitions if net.pre(t) <= m)


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


def reachable_markings(net: Net, bound: int = DEFAULT_MARKING_BOUND) -> set:
    """BFS closure under firing from m0; raises BoundExceeded past bound."""
    seen = {net.initial_marking}
    frontier = [net.initial_marking]
    while frontier:
        m = frontier.pop()
        for t in enabled(net, m):
            m2 = fire(net, m, t)
            if m2 not in seen:
                if len(seen) >= bound:
                    raise BoundExceeded(f"more than {bound} reachable markings")
                seen.add(m2)
                frontier.append(m2)
    return seen


def verify_safety(net: Net, bound: int = DEFAULT_MARKING_BOUND) -> CheckOutcome:
    """Bounded exhaustive safety exploration; marks the net verified on pass."""
    try:
        n = len(reachable_markings(net, bound))
    except SafetyViolation as exc:
        return CheckOutcome.fail(str(exc))
    except BoundExceeded as exc:
        return CheckOutcome.fail(str(exc), bound_exceeded=True)
    net.safety_verified = True
    return CheckOutcome.ok(markings=n)


def structural_conflict_pairs(net: Net):
    """Distinct transitions sharing a pre-place (minimal structural conflict)."""
    pairs = set()
    for p in net.places:
        consumers = sorted(net.post(p) & net.transitions)
        for a, b in itertools.combinations(consumers, 2):
            pairs.add((a, b))
    return pairs


def race_free(net: Net) -> CheckOutcome:
    """Minimal conflicts must not mix negative with non-negative events."""
    for a, b in sorted(structural_conflict_pairs(net)):
        if (net.pol(a) == NEGATIVE) != (net.pol(b) == NEGATIVE):
            return CheckOutcome.fail(
                f"race: {a}({net.pol(a)}) ~ {b}({net.pol(b)})", witness=(a, b)
            )
    return CheckOutcome.ok()


class OccurrenceNet(Net):
    """An acyclic safe net with the usual occurrence-net axioms.

    Use :func:`is_occurrence_net` to get a verdict instead of an exception.
    Causality (< over nodes), conflict (#) and the minimal conflict relation
    on events are computed eagerly and cached.
    """

    def __init__(self, places, transitions, flow, initial_marking, polarity):
        super().__init__(places, transitions, flow, initial_marking, polarity)
        outcome = self._compute_relations()
        if not outcome.passed:
            raise QpnError(f"not an occurrence net: {outcome.reason}")

    def _compute_relations(self) -> CheckOutcome:
        nodes = self.places | self.transitions
        # strict causality: DFS transitive closure of the flow relation
        below = {}  # node -> set of strictly smaller nodes

        order = self._topological_order()
        if order is None:
            return CheckOutcome.fail("flow relation is cyclic")
        for n in order:
            acc = set()
            for p in self._pre[n]:
                acc.add(p)
                acc |= below[p]
            below[n] = acc
        self._below = below

        for c in self.places:
            if len(self._pre[c] & self.transitions) > 1:
                return CheckOutcome.fail(f"backward branching at condition {c}",
                                         witness=c)
        minimal = {n for n in nodes if not self._pre[n]}
        min_places = minimal & self.places
        if minimal - self.places:
            # events with empty pre-set are formally allowed by some authors
            # but break the marking correspondence; reject them
            return CheckOutcome.fail(
                f"event with empty pre-set: {sorted(minimal - self.places)}")
        if min_places != self.initial_marking:
            return CheckOutcome.fail(
                "initial marking is not the set of minimal conditions",
                expected=sorted(min_places), got=sorted(self.initial_marking))

        # conflict: base pairs propagated down the causal order
        events_below = {n: ({n} if n in self.transitions else set())
                        | {e for e in below[n] if e in self.transitions}
                        for n in nodes}
        base = structural_conflict_pairs(self)
        conflict = set()
        node_list = sorted(nodes)
        for x, y in itertools.combinations_with_replacement(node_list, 2):
            ex, ey = events_below[x], events_below[y]
            for a, b in base:
                if (a in ex and b in ey) or (b in ex and a in ey):
                    conflict.add((x, y))
                    conflict.add((y, x))
                    break
        self._conflict = conflict
        for n in node_list:
            if (n, n) in conflict:
                return CheckOutcome.fail(f"self-conflict at {n}", witness=n)

        # minimal conflict on events
        mc = set()
        for a, b in conflict:
            if a in self.transitions and b in self.transitions and a != b:
                if any((a2, b) in conflict for a2 in below[a] if a2 in self.transitions):
                    continue
                if any((a, b2) in conflict for b2 in below[b] if b2 in self.transitions):
                    continue
                mc.add((a, b))
        self._minimal_conflict = mc
        return CheckOutcome.ok()

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

    # -- derived relations ------------------------------------------------

    def lt(self, a, b) -> bool:
        return a in self._below[b]

    def cone(self, e) -> frozenset:
        """Events causally below or equal to e."""
        return frozenset({e} | {n for n in self._below[e] if n in self.transitions})

    def in_conflict(self, a, b) -> bool:
        return (a, b) in self._conflict

    def minimal_conflict(self, a, b) -> bool:
        return (a, b) in self._minimal_conflict or (b, a) in self._minimal_conflict

    # -- configurations, cuts, markings ------------------------------------

    def is_configuration(self, x) -> bool:
        x = frozenset(x)
        if not x <= self.transitions:
            return False
        for e in x:
            if not self.cone(e) <= x:
                return False
        return not any(self.in_conflict(a, b) for a, b in itertools.combinations(x, 2))

    def enables(self, x, e) -> bool:
        """x |- e : e not in x and x together with e is still a configuration."""
        return e not in x and self.is_configuration(frozenset(x) | {e})

    def all_configurations(self, bound: int = 100_000) -> set:
        """Every finite configuration, by BFS over single-event extensions."""
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            x = frontier.pop()
            for e in self.transitions - x:
                if self.cone(e) - {e} <= x and not any(
                        self.in_conflict(e, a) for a in x):
                    y = x | {e}
                    if y not in seen:
                        if len(seen) >= bound:
                            raise BoundExceeded(f"more than {bound} configurations")
                        seen.add(y)
                        frontier.append(y)
        return seen


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
    o = OccurrenceNet(net.places, net.transitions, net.flow,
                      net.initial_marking, net.polarity)
    o.safety_verified = net.safety_verified
    return o


def cut_of_configuration(o: OccurrenceNet, x) -> frozenset:
    x = frozenset(x)
    if not o.is_configuration(x):
        raise NotAConfiguration(f"{sorted(x)} is not a configuration")
    return frozenset(e for e in x if not any(o.lt(e, f) for f in x))


def marking_of_configuration(o: OccurrenceNet, x) -> Marking:
    """Conditions produced by x (or initial) and not consumed by x."""
    x = frozenset(x)
    if not o.is_configuration(x):
        raise NotAConfiguration(f"{sorted(x)} is not a configuration")
    produced = set(o.initial_marking)
    for e in x:
        produced |= o.post(e)
    consumed = set()
    for e in x:
        consumed |= o.pre(e)
    return frozenset(produced - consumed)


def configuration_of_marking(o: OccurrenceNet, m: Marking) -> frozenset:
    """Downward closure of the pre-events of m; inverse of the above."""
    m = frozenset(m)
    if not m <= o.places:
        raise Unreachable(f"unknown places in marking {sorted(m)}")
    cut_events = set()
    for c in m:
        cut_events |= o.pre(c) & o.transitions
    x = set()
    for e in cut_events:
        x |= o.cone(e)
    x = frozenset(x)
    if not o.is_configuration(x) or marking_of_configuration(o, x) != m:
        raise Unreachable(f"marking {sorted(m)} is not reachable")
    return x


@dataclass(frozen=True)
class MarkingInterval:
    from_marking: Marking
    to_marking: Marking
    conditions: frozenset
    sigma: frozenset

    @property
    def key(self):
        return (tuple(sorted(self.from_marking)), tuple(sorted(self.to_marking)))


def interval(o: OccurrenceNet, m: Marking, m2: Marking) -> MarkingInterval:
    """The interval [m; m2]: all intermediate conditions plus the fired events."""
    x = configuration_of_marking(o, m)
    y = configuration_of_marking(o, m2)
    if not x <= y:
        raise NotReachableFrom(f"{sorted(m2)} is not reachable from {sorted(m)}")
    sigma = y - x
    conditions = set(m)
    for e in sigma:
        conditions |= o.post(e)
    return MarkingInterval(frozenset(m), frozenset(m2), frozenset(conditions),
                           frozenset(sigma))


@dataclass(frozen=True)
class Restriction:
    """Sub-net induced by a marking interval."""
    places: frozenset
    events: frozenset
    flow: frozenset
    source: Marking
    target: Marking


def restriction(o: OccurrenceNet, iv: MarkingInterval) -> Restriction:
    fl = frozenset(
        (a, b) for a, b in o.flow
        if (a in iv.conditions and b in iv.sigma) or (a in iv.sigma and b in iv.conditions)
    )
    return Restriction(iv.conditions, iv.sigma, fl, iv.from_marking, iv.to_marking)


def conflict_components(net: Net, events) -> list:
    """Connected components of the shared-pre-place graph on ``events``.

    Each component is a frozenset; the list is sorted for determinism and
    singletons are allowed.
    """
    evs = sorted(events)
    adj = {e: set() for e in evs}
    for a, b in itertools.combinations(evs, 2):
        if net.pre(a) & net.pre(b):
            adj[a].add(b)
            adj[b].add(a)
    comps, todo = [], set(evs)
    for e in evs:  # components appear in order of their least event
        if e not in todo:
            continue
        comp, stack = {e}, [e]
        todo.discard(e)
        while stack:
            for nb in adj[stack.pop()]:
                if nb in todo:
                    todo.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(frozenset(comp))
    return comps


def is_clique(net: Net, events) -> bool:
    """True iff every two of ``events`` share a pre-place (so fewer than
    two events always form a clique)."""
    return all(net.pre(a) & net.pre(b)
               for a, b in itertools.combinations(sorted(events), 2))


def marking_clusters(net: Net, m: Marking):
    """Conflict clusters of enabled non-negative transitions at marking m:
    the shared-pre-place components among them."""
    return conflict_components(net, (t for t in enabled(net, m) if net.non_negative(t)))


def to_dot(net: Net, labels=None) -> str:
    """GraphViz export: circles for places, squares for transitions."""
    suffix = {NEGATIVE: "⊖", NEUTRAL: "0", POSITIVE: "⊕"}
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in sorted(net.places):
        label = f"{p} : {labels[p]}" if labels and p in labels else p
        marked = ", penwidth=2" if p in net.initial_marking else ""
        lines.append(f'  "{p}" [shape=circle, label="{label}"{marked}];')
    for t in sorted(net.transitions):
        base = f"{t} : {labels[t]}" if labels and t in labels else t
        lines.append(f'  "{t}" [shape=box, label="{base} {suffix[net.pol(t)]}"];')
    for a, b in sorted(net.flow):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)
