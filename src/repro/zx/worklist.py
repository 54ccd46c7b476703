"""Worklist-driven ZX simplification: ``full_reduce`` and its pipelines.

The rewrite *steps* and match *predicates* live in
:mod:`repro.zx.simplify`; this module schedules them.  Instead of
rescanning every vertex/edge after each rewrite (O(rounds × |G|) work
even when a rewrite only perturbs a small neighborhood), it keeps a
dirty-vertex worklist (PyZX-style match-then-rewrite):

* A :class:`DirtyTracker` attaches to the :class:`~repro.zx.diagram.ZXDiagram`
  and receives a ``touch(v)`` notification for every mutation that can
  change a rewrite-rule match at ``v`` — phase, type, or incident-edge
  changes (vertex removal touches all former neighbors).  Notifications
  collect in one pending set, seeded with every vertex, which is folded
  into each rule's *own* dirty set whenever a rule drains, so a vertex
  dirtied while one rule runs is still pending for all the others.

* The identity, local-complementation, pivot and boundary-pivot
  predicates read only the anchor's phase, its incident edges and its
  neighbors' *types*.  Types are fixed while a tracker is attached
  (:func:`_with_tracker` recolors before attaching, and the rewrite
  steps only add Z spiders), and an edge change touches both endpoints,
  so a match of these rules appears or disappears only at a vertex that
  was itself touched: every current match has an endpoint in the rule's
  dirty set.  Draining returns exactly the live dirty vertices; a pivot
  round scans every edge of a dirty Pauli anchor and, from a Pauli
  neighbor of a dirty Pauli spider, only its edges to dirty partners
  (:func:`_pivot_anchors`).  Everything else is provably still a
  non-match.

* The pivot-gadget guards also read neighbor *degrees*, which change
  without touching the vertex itself, so ``pivot_gadget`` (like the
  non-local ``gadget`` round below) drains the dirty vertices **plus
  their current neighbors** (:data:`NEIGHBORHOOD_RULES`).

* Phase-gadget fusion is the one non-local match: two gadgets with the
  same support sit leaf–axis–support–axis–leaf apart.  A cache
  (:attr:`DirtyTracker.gadget_supports`, support -> registered gadget)
  bridges them.  A round drops the entry of every candidate axis, whose
  support may have changed, and re-examines that entry's leaf in the same
  round, so every live gadget stays registered and a later gadget with
  the same support finds it.

* The tracker additionally maintains *phase-indexed spider sets*
  (:attr:`DirtyTracker.pauli_spiders` / ``clifford_spiders``) so the
  pivot-family and local-complementation rules intersect their candidates
  down to the few phases they can fire on; interior-ness (a neighbor
  property) is validated at match time.

* Each round a rule batch-collects **non-overlapping** matches: a match
  claims the vertices it will read or write (anchor + neighborhood), and
  later matches intersecting an earlier claim are deferred to the next
  round via :meth:`DirtyTracker.retry`.  The pivot family asks less, as
  PyZX's parallel matchers do: a later pivot only needs its two
  endpoints outside the claim (see :func:`_edge_round`).  Collected
  matches are re-validated immediately before application, because a
  spider-fusion cascade inside ``id_step`` may reach beyond its claim and
  a pivot may change a later match's 2-hop neighbourhood.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import check_deadline
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.simplify import (
    _gadget_shape,
    _id_applicable,
    _lcomp_applicable,
    _pivot_boundary_partner_applicable,
    _pivot_endpoint_applicable,
    _pivot_gadget_anchor_applicable,
    _pivot_gadget_partner_applicable,
    _ZERO,
    gadget_fuse_step,
    id_step,
    lcomp_step,
    pivot_boundary_step,
    pivot_gadget_step,
    pivot_step,
    to_graph_like,
)
from repro.zx.phase import Phase

#: Rule identifiers — one dirty set each.
RULES = (
    "id", "lcomp", "pivot", "pivot_gadget", "pivot_boundary", "gadget",
)

#: Rules whose candidates are the dirty vertices plus their current
#: neighbors: the pivot-gadget guards read neighbor degrees, and gadget
#: fusion is non-local.  Every other rule examines its dirty vertices only.
NEIGHBORHOOD_RULES = frozenset({"pivot_gadget", "gadget"})

#: Safety backstop on ``full_reduce``'s outer rounds; every rewrite
#: strictly reduces a well-founded measure, so it is never reached.
MAX_ROUNDS = 10_000


class DirtyTracker:
    """Per-rule dirty sets plus phase-indexed candidate sets.

    Invariants while attached (checked by ``tests/zx/test_incremental.py``):

    * every live vertex whose neighborhood changed since rule ``r`` last
      drained is in ``_pending`` or ``_dirty[r]`` (removal instead touches
      the neighbors); ``_pending`` is folded into every ``_dirty[r]`` at
      the next :meth:`pending` or :meth:`drain`, so a notification costs
      one ``set.add`` and each fold one set union per rule;
    * hence, with the rounds re-queueing every match they defer or fail
      to re-validate, every current identity, local-complementation,
      pivot or boundary-pivot match has an endpoint in ``_pending`` or
      in that rule's ``_dirty`` set;
    * ``v in pauli_spiders`` iff ``v`` is a live Z spider with phase
      0 or pi, and ``v in clifford_spiders`` iff its phase is ±pi/2
      (interior-ness is *not* part of the invariant — it is a neighbor
      property, re-checked at match time);
    * ``gadget_supports`` is a cache, validated on every hit — a stale
      entry can cost a lookup, never a wrong fusion.
    """

    __slots__ = (
        "diagram", "_pending", "_dirty", "pauli_spiders", "clifford_spiders",
        "gadget_supports", "_axis_key",
    )

    def __init__(self, diagram: ZXDiagram) -> None:
        self.diagram = diagram
        seed = tuple(diagram._types)
        self._pending: Set[int] = set(seed)
        self._dirty: Dict[str, Set[int]] = {rule: set() for rule in RULES}
        self.pauli_spiders: Set[int] = set()
        self.clifford_spiders: Set[int] = set()
        #: support -> (axis, leaf) of a registered phase gadget
        self.gadget_supports: Dict[FrozenSet[int], Tuple[int, int]] = {}
        self._axis_key: Dict[int, FrozenSet[int]] = {}
        for vertex in seed:
            self._reindex(vertex)

    # -- notifications from the diagram ---------------------------------
    def touch(self, vertex: int) -> None:
        """The vertex's phase or type changed (re-examines + re-indexes)."""
        self._pending.add(vertex)
        self._reindex(vertex)

    def touch_edges(self, vertex: int) -> None:
        """An incident edge changed — phase and type are intact, so the
        vertex only needs re-examination, not re-indexing."""
        self._pending.add(vertex)

    def forget(self, vertex: int) -> None:
        """The vertex was removed."""
        self._pending.discard(vertex)
        for dirty in self._dirty.values():
            dirty.discard(vertex)
        self.pauli_spiders.discard(vertex)
        self.clifford_spiders.discard(vertex)
        key = self._axis_key.pop(vertex, None)
        if key is not None:
            entry = self.gadget_supports.get(key)
            if entry is not None and entry[0] == vertex:
                del self.gadget_supports[key]

    # -- worklist access -------------------------------------------------
    def retry(self, rule: str, vertex: int) -> None:
        """Re-queue a deferred or invalidated match anchor for ``rule``."""
        self._dirty[rule].add(vertex)

    def pending(self, rule: str) -> bool:
        self._fold()
        return bool(self._dirty[rule])

    def drain(self, rule: str) -> List[int]:
        """Consume the rule's dirty set; return sorted live candidates.

        Candidates are the live dirty vertices, plus their *current*
        neighbors for the :data:`NEIGHBORHOOD_RULES` — the complete set
        of vertices at which a match of the rule may have appeared or
        disappeared (sorted for deterministic rewrite order).
        """
        self._fold()
        dirty = self._dirty[rule]
        if not dirty:
            return []
        self._dirty[rule] = set()
        alive = self.diagram._types
        if rule not in NEIGHBORHOOD_RULES:
            return sorted(vertex for vertex in dirty if vertex in alive)
        adjacency = self.diagram._adjacency
        candidates: Set[int] = set()
        for vertex in dirty:
            if vertex in alive:
                candidates.add(vertex)
                candidates.update(adjacency[vertex])
        return sorted(candidates)

    def _fold(self) -> None:
        """Move the pending notifications into every rule's dirty set."""
        pending = self._pending
        if pending:
            for dirty in self._dirty.values():
                dirty |= pending
            pending.clear()

    # -- phase-indexed candidate sets ------------------------------------
    def _reindex(self, vertex: int) -> None:
        types = self.diagram._types
        if types.get(vertex) is VertexType.Z:
            phase: Phase = self.diagram._phases[vertex]
            # Stored phases are normalized to [0, 2): denominator 1 means
            # 0 or pi (Pauli), denominator 2 means ±pi/2 (proper Clifford)
            # — same integrality test as simplify._stored_pauli, inlined
            # because touch() is the hottest tracker path.
            if type(phase) is Fraction:
                denominator = phase.denominator
                if denominator == 1:
                    self.pauli_spiders.add(vertex)
                    self.clifford_spiders.discard(vertex)
                    return
                if denominator == 2:
                    self.clifford_spiders.add(vertex)
                    self.pauli_spiders.discard(vertex)
                    return
        self.pauli_spiders.discard(vertex)
        self.clifford_spiders.discard(vertex)


def _count(counters, name: str, amount: int) -> None:
    if counters is not None and amount:
        counters.count(name, amount)


# ---------------------------------------------------------------------------
# per-rule incremental drivers
# ---------------------------------------------------------------------------
def _id_round(diagram: ZXDiagram, tracker: DirtyTracker, counters) -> int:
    candidates = tracker.drain("id")
    if not candidates:
        return 0
    alive = diagram._types
    adjacency = diagram._adjacency
    matches: List[int] = []
    claimed: Set[int] = set()
    for vertex in candidates:
        if not _id_applicable(diagram, vertex):
            continue
        n1, n2 = adjacency[vertex]
        if vertex in claimed or n1 in claimed or n2 in claimed:
            tracker.retry("id", vertex)
            continue
        claimed.add(vertex)
        claimed.add(n1)
        claimed.add(n2)
        matches.append(vertex)
    _count(counters, "zx.id.matches", len(matches))
    applied = 0
    for vertex in matches:
        # Re-validate: an earlier id_step's fusion cascade can reach
        # beyond its claim.
        if vertex in alive and _id_applicable(diagram, vertex):
            id_step(diagram, vertex)
            applied += 1
        else:
            tracker.retry("id", vertex)
    _count(counters, "zx.id.rewrites", applied)
    return applied


def _lcomp_round(diagram: ZXDiagram, tracker: DirtyTracker, counters) -> int:
    candidates = tracker.drain("lcomp")
    if not candidates:
        return 0
    index = tracker.clifford_spiders
    alive = diagram._types
    adjacency = diagram._adjacency
    matches: List[int] = []
    claimed: Set[int] = set()
    for vertex in candidates:
        if vertex not in index or not _lcomp_applicable(diagram, vertex):
            continue
        neighborhood = adjacency[vertex].keys()
        if vertex in claimed or not claimed.isdisjoint(neighborhood):
            tracker.retry("lcomp", vertex)
            continue
        claimed.add(vertex)
        claimed.update(neighborhood)
        matches.append(vertex)
    _count(counters, "zx.lcomp.matches", len(matches))
    applied = 0
    for vertex in matches:
        if vertex in alive and _lcomp_applicable(diagram, vertex):
            lcomp_step(diagram, vertex)
            applied += 1
        else:
            tracker.retry("lcomp", vertex)
    _count(counters, "zx.lcomp.rewrites", applied)
    return applied


def _edge_round(
    diagram: ZXDiagram,
    tracker: DirtyTracker,
    rule: str,
    anchors: Iterable[Tuple[int, Optional[List[int]]]],
    anchor_ok,
    partner_ok,
    step,
    counters,
    oriented: bool,
) -> int:
    """One batch round of an edge-anchored pivot-family rule.

    ``anchors`` are live candidate first-endpoints in sorted order, each
    with the sorted partners to try, or ``None`` for all of its
    neighbors.  The match predicate is split: ``anchor_ok(diagram, a)``
    covers everything depending on the anchor alone and runs **once per
    anchor** (the diagram is static during collection),
    ``partner_ok(diagram, b)`` covers the other endpoint and runs per
    Hadamard edge — without the split, an anchor of degree *d* would
    re-scan its own neighborhood *d* times.  ``oriented``
    rules (gadget/boundary pivots) distinguish the two endpoints, plain
    pivots do not (each undirected edge is tested once).

    A match ``(a, b)`` claims ``N(a) ∪ N(b)``, which holds both
    endpoints, and a later match only needs its own two endpoints outside
    the claim (PyZX's parallel pivot matchers); its neighbourhood may
    overlap.  Applying the batch one match after another stays sound: a
    pivot removes ``a`` and ``b``, toggles edges only among
    ``N(a) ∪ N(b)`` and adds phases only there, so a later match with
    both endpoints outside keeps its phases, its neighbourhood and the
    edge between them.  What it can lose is a 2-hop property (a shared
    neighbour that became a gadget leaf), which the re-validation before
    each step catches, re-queueing the anchor.
    """
    alive = diagram._types
    adjacency = diagram._adjacency
    matches: List[Tuple[int, int]] = []
    claimed: Set[int] = set()
    seen: Set[Tuple[int, int]] = set()
    # The diagram is static during collection, so both predicates are
    # memoized for the duration of the round — without this, a partner of
    # in-degree k is re-scanned k times.
    partner_cache: Dict[int, bool] = {}
    for a, partners in anchors:
        if not anchor_ok(diagram, a):
            continue
        for b in sorted(adjacency[a]) if partners is None else partners:
            edge = (a, b) if (oriented or a < b) else (b, a)
            if edge in seen:
                continue
            seen.add(edge)
            if adjacency[a][b] is not EdgeType.HADAMARD:
                continue
            ok = partner_cache.get(b)
            if ok is None:
                ok = partner_cache[b] = partner_ok(diagram, b)
            if not ok:
                continue
            if a in claimed or b in claimed:
                tracker.retry(rule, a)
                continue
            claimed.update(adjacency[a])
            claimed.update(adjacency[b])
            matches.append((a, b))
    _count(counters, f"zx.{rule}.matches", len(matches))
    applied = 0
    for a, b in matches:
        if (
            a in alive
            and b in alive
            and b in adjacency[a]
            and adjacency[a][b] is EdgeType.HADAMARD
            and anchor_ok(diagram, a)
            and partner_ok(diagram, b)
        ):
            step(diagram, a, b)
            applied += 1
        else:
            if a in alive:
                tracker.retry(rule, a)
    _count(counters, f"zx.{rule}.rewrites", applied)
    return applied


def _pivot_anchors(
    diagram: ZXDiagram, tracker: DirtyTracker, dirty: List[int]
) -> List[Tuple[int, Optional[List[int]]]]:
    """Anchors of a plain or boundary pivot round, for ``_edge_round``.

    Both endpoints of these matches are Pauli spiders and every current
    match has a dirty endpoint (module docstring), so a dirty Pauli
    anchor scans all of its edges, and a Pauli neighbor of a dirty
    Pauli spider scans only its edges to those dirty partners.  Any
    other edge is a non-match, so the round collects, claims and
    re-queues what a scan of every neighbor's edges would, in the same
    order: anchors sorted, each one's partners sorted.
    """
    pauli = tracker.pauli_spiders
    adjacency = diagram._adjacency
    dirty_pauli = [v for v in dirty if v in pauli]
    anchors: Dict[int, Optional[List[int]]] = dict.fromkeys(dirty_pauli)
    for vertex in dirty_pauli:  # sorted, so each partner list is too
        for neighbor in adjacency[vertex]:
            if neighbor in pauli:
                partners = anchors.setdefault(neighbor, [])
                if partners is not None:
                    partners.append(vertex)
    return sorted(anchors.items())  # anchors are distinct


def _pivot_round(diagram: ZXDiagram, tracker: DirtyTracker, counters) -> int:
    dirty = tracker.drain("pivot")
    if not dirty:
        return 0
    return _edge_round(
        diagram, tracker, "pivot", _pivot_anchors(diagram, tracker, dirty),
        _pivot_endpoint_applicable, _pivot_endpoint_applicable, pivot_step,
        counters, oriented=False,
    )


def _pivot_gadget_round(
    diagram: ZXDiagram, tracker: DirtyTracker, counters
) -> int:
    candidates = tracker.drain("pivot_gadget")
    if not candidates:
        return 0
    # The Pauli anchor is drained directly, or is a neighbor of the dirty
    # non-Pauli partner — drain() already added those neighbors.
    anchors = [
        (v, None) for v in candidates if v in tracker.pauli_spiders
    ]
    return _edge_round(
        diagram, tracker, "pivot_gadget", anchors,
        _pivot_gadget_anchor_applicable, _pivot_gadget_partner_applicable,
        pivot_gadget_step, counters, oriented=True,
    )


def _pivot_boundary_round(
    diagram: ZXDiagram, tracker: DirtyTracker, counters
) -> int:
    dirty = tracker.drain("pivot_boundary")
    if not dirty:
        return 0
    return _edge_round(
        diagram, tracker, "pivot_boundary",
        _pivot_anchors(diagram, tracker, dirty),
        _pivot_endpoint_applicable, _pivot_boundary_partner_applicable,
        pivot_boundary_step, counters, oriented=True,
    )


def _gadget_round(
    diagram: ZXDiagram, tracker: DirtyTracker, counters
) -> int:
    candidates = tracker.drain("gadget")
    if not candidates:
        return 0
    supports = tracker.gadget_supports
    axis_key = tracker._axis_key
    # Invalidate cache entries whose axis neighborhood may have changed,
    # and re-examine their leaves this round: a leaf is two hops from the
    # dirty support spider, so it is usually not a candidate itself, and
    # a gadget left unregistered would never fuse with a later one.
    leaves = set(candidates)
    for vertex in candidates:
        key = axis_key.pop(vertex, None)
        if key is not None:
            entry = supports.get(key)
            if entry is not None and entry[0] == vertex:
                del supports[key]
                leaves.add(entry[1])
    alive = diagram._types
    matched = 0
    applied = 0
    for leaf in sorted(leaves):
        if leaf not in alive:
            continue
        shape = _gadget_shape(diagram, leaf)
        if shape is None:
            continue
        axis, support = shape
        existing = supports.get(support)
        if existing is not None and existing[0] != axis:
            other_axis, other_leaf = existing
            # Validate the cached entry against the live diagram — it may
            # be stale (e.g. the axis grew a second leaf and was later
            # re-registered under a different key).
            stale = (
                other_axis not in alive
                or other_leaf not in alive
                or diagram.phase(other_axis) != _ZERO
                or _gadget_shape(diagram, other_leaf) != (other_axis, support)
            )
            if stale:
                del supports[support]
                axis_key.pop(other_axis, None)
                existing = None
        if existing is not None and existing[0] != axis:
            matched += 1
            gadget_fuse_step(diagram, existing[1], axis, leaf)
            applied += 1
        else:
            supports[support] = (axis, leaf)
            axis_key[axis] = support
    _count(counters, "zx.gadget.matches", matched)
    _count(counters, "zx.gadget.rewrites", applied)
    return applied


_ROUNDS = {
    "id": _id_round,
    "lcomp": _lcomp_round,
    "pivot": _pivot_round,
    "pivot_gadget": _pivot_gadget_round,
    "pivot_boundary": _pivot_boundary_round,
    "gadget": _gadget_round,
}


def _run_rule(
    diagram: ZXDiagram, tracker: DirtyTracker, rule: str, deadline, counters
) -> int:
    """Drive one rule to its local fixpoint over its own dirty set."""
    round_fn = _ROUNDS[rule]
    applied = 0
    while tracker.pending(rule):
        check_deadline(deadline)
        applied += round_fn(diagram, tracker, counters)
    return applied


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------
def _interior_clifford(diagram, tracker, deadline, counters) -> int:
    total = 0
    while True:
        applied = _run_rule(diagram, tracker, "id", deadline, counters)
        applied += _run_rule(diagram, tracker, "pivot", deadline, counters)
        applied += _run_rule(diagram, tracker, "lcomp", deadline, counters)
        total += applied
        if not applied:
            return total


def _clifford(diagram, tracker, deadline, counters) -> int:
    total = 0
    while True:
        applied = _interior_clifford(diagram, tracker, deadline, counters)
        applied += _run_rule(
            diagram, tracker, "pivot_boundary", deadline, counters
        )
        total += applied
        if not applied:
            return total


def _with_tracker(diagram: ZXDiagram, deadline, body) -> int:
    """Graph-like normalization, tracker attach/run/detach."""
    to_graph_like(diagram, deadline=deadline)
    tracker = DirtyTracker(diagram)
    diagram.attach_tracker(tracker)
    try:
        return body(tracker)
    finally:
        diagram.detach_tracker()


def interior_clifford_simp(
    diagram: ZXDiagram, deadline=None, counters=None
) -> int:
    """Spider fusion + identity + pivoting + local complementation loop."""
    return _with_tracker(
        diagram,
        deadline,
        lambda tracker: _interior_clifford(
            diagram, tracker, deadline, counters
        ),
    )


def clifford_simp(diagram: ZXDiagram, deadline=None, counters=None) -> int:
    """Interior Clifford simplification plus boundary pivots."""
    return _with_tracker(
        diagram,
        deadline,
        lambda tracker: _clifford(diagram, tracker, deadline, counters),
    )


def full_reduce(diagram: ZXDiagram, *, deadline=None, counters=None) -> int:
    """The full simplification strategy (PyZX's ``full_reduce``).

    Returns the total number of rewrite applications.  Termination is
    guaranteed because every constituent strictly reduces a well-founded
    measure; :data:`MAX_ROUNDS` is a safety backstop only.  After the initial
    sweep (every rule's dirty set starts full) each pass only touches
    vertices whose neighborhood a rewrite actually changed, so the
    quiescent passes degenerate to empty set checks.

    ``counters``, when given, is a :class:`repro.perf.PerfCounters`-style
    object that receives per-rule ``zx.<rule>.matches`` /
    ``zx.<rule>.rewrites`` counts plus ``zx.rounds``.
    """
    # An expired deadline must fire even when the diagram offers no
    # matches (the per-rule checks only run inside match loops).
    check_deadline(deadline)

    def body(tracker: DirtyTracker) -> int:
        total = _interior_clifford(diagram, tracker, deadline, counters)
        total += _run_rule(
            diagram, tracker, "pivot_gadget", deadline, counters
        )
        rounds = 0
        for _ in range(MAX_ROUNDS):
            rounds += 1
            applied = _clifford(diagram, tracker, deadline, counters)
            applied += _run_rule(
                diagram, tracker, "gadget", deadline, counters
            )
            applied += _interior_clifford(diagram, tracker, deadline, counters)
            applied += _run_rule(
                diagram, tracker, "pivot_gadget", deadline, counters
            )
            total += applied
            if not applied:
                break
        _count(counters, "zx.rounds", rounds)
        return total

    return _with_tracker(diagram, deadline, body)
