"""Graph-like simplification of ZX-diagrams.

This module re-implements the simplification strategy of Duncan et al.
("Graph-theoretic simplification of quantum circuits with the ZX-calculus")
that PyZX's ``full_reduce`` uses and that the paper's case study relies on
(Section 5.1 / 6.1: "the ZX-diagrams of the circuits are combined [...],
transformed into a graph-like diagram and then simplified as much as
possible using the local complementation and pivoting rules").

A diagram is *graph-like* when every spider is a Z spider, spiders are only
connected by Hadamard edges, and there are no parallel edges or self-loops.
On graph-like diagrams the following rewrite families apply, each as a
rewrite step plus a match predicate:

* identity removal (``id_step``) — remove phase-0 degree-2 spiders,
* local complementation (``lcomp_step``) — eliminate interior spiders
  with phase ±pi/2,
* pivoting (``pivot_step``) — eliminate pairs of adjacent interior Pauli
  spiders,
* ``pivot_gadget_step`` / ``pivot_boundary_step`` — pivot variants that
  first gadgetize a non-Pauli partner or detach a boundary-adjacent one,
* ``gadget_fuse_step`` — fusion of phase gadgets with identical support.

All rewrites hold up to a global scalar, which the equivalence-checking
use-case does not need (tensor tests compare up to proportionality).
The number of spiders never increases — the property the paper highlights
("because the number of spiders are non-increasing [...] the size of the
diagram does not blow up").

This module holds the graph-like transformation, the rule steps and
their match predicates; :mod:`repro.zx.worklist` schedules them
(``full_reduce`` and its Clifford sub-pipelines), re-examining only the
vertices whose neighborhood a rewrite changed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from typing import FrozenSet, Optional, Tuple

from repro.errors import check_deadline
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.phase import SymbolicPhase, negate_phase

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _stored_pauli(phase) -> bool:
    """:func:`repro.zx.phase.is_pauli_phase` for already-stored phases.

    The diagram normalizes every phase to ``[0, 2)`` on mutation (floats
    near dyadic fractions are snapped to exact :class:`Fraction`), so the
    Pauli test reduces to an integrality check — no re-normalization in
    the match loops.
    """
    return type(phase) is Fraction and phase.denominator == 1


def _stored_proper_clifford(phase) -> bool:
    """:func:`repro.zx.phase.is_proper_clifford_phase` for stored phases."""
    return type(phase) is Fraction and phase.denominator == 2


# ---------------------------------------------------------------------------
# graph-like transformation
# ---------------------------------------------------------------------------
def _fuse(diagram: ZXDiagram, keep: int, merge: int) -> None:
    """Fuse spider ``merge`` into ``keep`` (both Z, simple-edge connected).

    Parallel-edge conflicts created by the fusion are resolved on the fly:
    a doubled simple edge between Z spiders is idempotent, a doubled
    Hadamard edge cancels (Hopf), and a simple/Hadamard pair is a simple
    edge plus a pi phase (the Hadamard edge becomes a self-loop once the
    simple edge is fused).
    """
    worklist = [merge]
    # repro: allow(deadline-prop): each pop discards or fuses a spider; bounded
    while worklist:
        merge = worklist.pop()
        if (
            merge not in diagram._types
            or not diagram.connected(keep, merge)
            or diagram.edge_type(keep, merge) is not EdgeType.SIMPLE
            or diagram.vertex_type(merge) is not VertexType.Z
        ):
            continue
        diagram.add_to_phase(keep, diagram.phase(merge))
        diagram.disconnect(keep, merge)
        for neighbor in list(diagram.neighbors(merge)):
            edge_type = diagram.edge_type(merge, neighbor)
            diagram.disconnect(merge, neighbor)
            if neighbor == keep:
                # Self-loop after fusion: simple loops vanish, H loops: pi.
                if edge_type is EdgeType.HADAMARD:
                    diagram.add_to_phase(keep, _ONE)
                continue
            if not diagram.connected(keep, neighbor):
                diagram.connect(keep, neighbor, edge_type)
            else:
                existing = diagram.edge_type(keep, neighbor)
                if existing is edge_type:
                    if edge_type is EdgeType.HADAMARD:
                        # Hopf: parallel H edges cancel.
                        diagram.disconnect(keep, neighbor)
                    # parallel simple edges between Z spiders: idempotent
                else:
                    # simple + Hadamard pair -> simple edge plus a pi phase
                    diagram.set_edge_type(keep, neighbor, EdgeType.SIMPLE)
                    diagram.add_to_phase(keep, _ONE)
            # Fusing may leave fresh simple Z-Z edges; queue them so the
            # graph-like invariant is restored before returning.
            if (
                diagram.connected(keep, neighbor)
                and diagram.edge_type(keep, neighbor) is EdgeType.SIMPLE
                and diagram.vertex_type(neighbor) is VertexType.Z
            ):
                worklist.append(neighbor)
        diagram.remove_vertex(merge)


def to_graph_like(diagram: ZXDiagram, deadline=None) -> ZXDiagram:
    """Transform in place to graph-like form; returns the diagram.

    X spiders are recolored to Z (toggling the type of every incident
    edge), then all simple edges between Z spiders are fused away.  The
    fusion sweep consults the cooperative ``deadline`` between passes.
    """
    # repro: allow(deadline-loop): single recolor pass over the vertex list
    for vertex in list(diagram.vertices()):
        if diagram.vertex_type(vertex) is VertexType.X:
            diagram.set_vertex_type(vertex, VertexType.Z)
            # set_edge_type only rewrites values, so the live view is safe
            # repro: allow(deadline-loop): bounded by the vertex degree
            for neighbor in diagram.neighbor_view(vertex):
                current = diagram.edge_type(vertex, neighbor)
                flipped = (
                    EdgeType.SIMPLE
                    if current is EdgeType.HADAMARD
                    else EdgeType.HADAMARD
                )
                diagram.set_edge_type(vertex, neighbor, flipped)
    changed = True
    while changed:
        changed = False
        check_deadline(deadline)
        # repro: allow(deadline-loop): one sweep over a materialized edge list
        for u, v, edge_type in list(diagram.edges()):
            if edge_type is not EdgeType.SIMPLE:
                continue
            if u not in diagram._types or v not in diagram._types:
                continue  # removed by an earlier fusion this sweep
            if (
                diagram.connected(u, v)
                and diagram.edge_type(u, v) is EdgeType.SIMPLE
                and diagram.vertex_type(u) is VertexType.Z
                and diagram.vertex_type(v) is VertexType.Z
            ):
                _fuse(diagram, u, v)
                changed = True
    return diagram


# ---------------------------------------------------------------------------
# identity removal
# ---------------------------------------------------------------------------
def _id_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    """Phase-0 Z spider of degree two (phases are stored normalized).

    The degree test goes first: on dense mid-simplification diagrams it
    rejects nearly every candidate with a single length check.
    """
    return (
        len(diagram._adjacency[vertex]) == 2
        and diagram._types[vertex] is VertexType.Z
        and diagram._phases[vertex] == 0
    )


def id_step(diagram: ZXDiagram, vertex: int) -> None:
    """Remove the phase-0 degree-2 spider ``vertex``, splicing its wires."""
    n1, n2 = diagram.neighbors(vertex)
    t1 = diagram.edge_type(vertex, n1)
    t2 = diagram.edge_type(vertex, n2)
    combined = EdgeType.SIMPLE if t1 is t2 else EdgeType.HADAMARD
    diagram.remove_vertex(vertex)
    if not diagram.connected(n1, n2):
        diagram.connect(n1, n2, combined)
    else:
        both_z = (
            diagram.vertex_type(n1) is VertexType.Z
            and diagram.vertex_type(n2) is VertexType.Z
        )
        if not both_z:
            raise ValueError(
                "parallel edge through a boundary — malformed diagram"
            )
        existing = diagram.edge_type(n1, n2)
        if existing is combined:
            if combined is EdgeType.HADAMARD:
                diagram.disconnect(n1, n2)  # Hopf
            # doubled simple edge between Z spiders: idempotent
        else:
            diagram.set_edge_type(n1, n2, EdgeType.SIMPLE)
            diagram.add_to_phase(n1, _ONE)
    # A surviving simple edge between two Z spiders must be fused to
    # keep the diagram graph-like.
    if (
        diagram.connected(n1, n2)
        and diagram.edge_type(n1, n2) is EdgeType.SIMPLE
        and diagram.vertex_type(n1) is VertexType.Z
        and diagram.vertex_type(n2) is VertexType.Z
    ):
        _fuse(diagram, n1, n2)


# ---------------------------------------------------------------------------
# local complementation
# ---------------------------------------------------------------------------
def _all_hadamard(diagram: ZXDiagram, vertex: int) -> bool:
    edges = diagram._adjacency[vertex]
    return all(t is EdgeType.HADAMARD for t in edges.values())


def _hh_z_neighborhood(diagram: ZXDiagram, vertex: int) -> bool:
    """Every incident edge Hadamard and every neighbor a Z spider.

    Implies interior-ness (boundary vertices are not Z spiders).  A single
    pass over the adjacency replaces the separate interior / all-Hadamard
    / all-Z-neighbor scans the match predicates used to chain — this
    predicate dominates the match loops on dense mid-simplification
    diagrams.
    """
    types = diagram._types
    for neighbor, edge_type in diagram._adjacency[vertex].items():
        if (
            edge_type is not EdgeType.HADAMARD
            or types[neighbor] is not VertexType.Z
        ):
            return False
    return True


def _ungadgeted_hh_z_neighborhood(diagram: ZXDiagram, vertex: int) -> bool:
    """:func:`_hh_z_neighborhood` plus the pivot-gadget gadget guards.

    Rejects gadget leaves (degree-1 spiders — any degree-1 vertex passing
    the Hadamard/Z checks *is* a leaf) and spiders adjacent to one:
    re-gadgetizing existing gadget structure would cycle forever.
    """
    adjacency = diagram._adjacency
    types = diagram._types
    edges = adjacency[vertex]
    if len(edges) == 1:
        return False
    for neighbor, edge_type in edges.items():
        if (
            edge_type is not EdgeType.HADAMARD
            or types[neighbor] is not VertexType.Z
            or len(adjacency[neighbor]) == 1
        ):
            return False
    return True


def lcomp_step(diagram: ZXDiagram, vertex: int) -> None:
    """Apply local complementation at ``vertex`` and delete it."""
    phase = negate_phase(diagram.phase(vertex))
    neighbors = diagram.neighbors(vertex)
    diagram.remove_vertex(vertex)
    for neighbor in neighbors:
        diagram.add_to_phase(neighbor, phase)
    diagram.complement_edges(combinations(neighbors, 2))


def _lcomp_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    return (
        diagram._types[vertex] is VertexType.Z
        and _stored_proper_clifford(diagram._phases[vertex])
        and _hh_z_neighborhood(diagram, vertex)
    )


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------
def pivot_step(diagram: ZXDiagram, u: int, v: int) -> None:
    """Pivot along the Hadamard edge ``(u, v)`` and delete both spiders."""
    phase_u = diagram.phase(u)
    phase_v = diagram.phase(v)
    neighbors_u = set(diagram.neighbor_view(u)) - {v}
    neighbors_v = set(diagram.neighbor_view(v)) - {u}
    common = neighbors_u & neighbors_v
    only_u = neighbors_u - common
    only_v = neighbors_v - common
    diagram.remove_vertex(u)
    diagram.remove_vertex(v)
    diagram.complement_edges(chain(
        product(only_u, only_v),
        product(only_u, common),
        product(only_v, common),
    ))
    # Removing u and v already notified every neighbour, so a zero phase
    # (always the gadgetized partner's) needs no addition.
    if phase_v:
        for a in only_u:
            diagram.add_to_phase(a, phase_v)
    if phase_u:
        for b in only_v:
            diagram.add_to_phase(b, phase_u)
    for c in common:
        if phase_u:
            diagram.add_to_phase(c, phase_u)
        if phase_v:
            diagram.add_to_phase(c, phase_v)
        diagram.add_to_phase(c, _ONE)


def _pivot_endpoint_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    """Interior Pauli Z spider with an all-Hadamard, all-Z neighborhood."""
    return (
        diagram._types[vertex] is VertexType.Z
        and _stored_pauli(diagram._phases[vertex])
        and _hh_z_neighborhood(diagram, vertex)
    )


# ---------------------------------------------------------------------------
# pivot variants: gadgetization and boundary handling
# ---------------------------------------------------------------------------
def _gadgetize(diagram: ZXDiagram, vertex: int) -> None:
    """Move the phase of ``vertex`` onto a fresh phase gadget."""
    phase = diagram.phase(vertex)
    diagram.set_phase(vertex, _ZERO)
    axis = diagram.add_vertex(VertexType.Z)
    leaf = diagram.add_vertex(VertexType.Z, phase)
    diagram.connect(vertex, axis, EdgeType.HADAMARD)
    diagram.connect(axis, leaf, EdgeType.HADAMARD)


def _is_gadget_leaf(diagram: ZXDiagram, vertex: int) -> bool:
    """True for degree-1 spiders hanging off a gadget axis."""
    if diagram.degree(vertex) != 1:
        return False
    (axis,) = diagram.neighbor_view(vertex)
    return (
        diagram.vertex_type(vertex) is VertexType.Z
        and diagram.vertex_type(axis) is VertexType.Z
        and diagram.edge_type(vertex, axis) is EdgeType.HADAMARD
    )


def _pivot_gadget_anchor_applicable(diagram: ZXDiagram, a: int) -> bool:
    """Anchor side of pivot-gadget: interior, ungadgeted Pauli spider."""
    return (
        diagram._types[a] is VertexType.Z
        and _stored_pauli(diagram._phases[a])
        and _ungadgeted_hh_z_neighborhood(diagram, a)
    )


def _pivot_gadget_partner_applicable(diagram: ZXDiagram, b: int) -> bool:
    """Partner side of pivot-gadget: interior, ungadgeted non-Pauli spider."""
    return (
        diagram._types[b] is VertexType.Z
        and not _stored_pauli(diagram._phases[b])
        and _ungadgeted_hh_z_neighborhood(diagram, b)
    )


def pivot_gadget_step(diagram: ZXDiagram, a: int, b: int) -> None:
    """Gadgetize the non-Pauli partner ``b``, then pivot along ``(a, b)``.

    Extracting the partner's phase into a phase gadget makes it a Pauli
    spider, so a regular pivot removes the pair.  This is what drives
    non-Clifford circuits towards the reduced gadget form of Kissinger &
    van de Wetering.
    """
    _gadgetize(diagram, b)
    pivot_step(diagram, a, b)


def _pivot_boundary_partner_applicable(diagram: ZXDiagram, b: int) -> bool:
    """Partner side of pivot-boundary: a boundary-adjacent Pauli spider
    whose remaining neighbors are all Z spiders."""
    if not (
        diagram._types[b] is VertexType.Z
        and _stored_pauli(diagram._phases[b])
    ):
        return False
    types = diagram._types
    boundary_adjacent = False
    for neighbor in diagram._adjacency[b]:
        neighbor_type = types[neighbor]
        if neighbor_type is VertexType.BOUNDARY:
            boundary_adjacent = True
        elif neighbor_type is not VertexType.Z:
            return False
    return boundary_adjacent


def pivot_boundary_step(diagram: ZXDiagram, a: int, b: int) -> None:
    """Buffer ``b``'s boundary wires with fresh spiders, then pivot.

    The buffering makes ``b`` interior with all-Hadamard edges, so the
    regular pivot applies.  The net effect removes one interior Pauli
    spider without growing the spider count (the pivot removes one
    spider for each buffer inserted).
    """
    for boundary in [
        n for n in diagram.neighbors(b) if diagram.is_boundary(n)
    ]:
        wire_type = diagram.edge_type(b, boundary)
        buffer = diagram.add_vertex(VertexType.Z)
        diagram.disconnect(b, boundary)
        diagram.connect(b, buffer, EdgeType.HADAMARD)
        diagram.connect(
            buffer,
            boundary,
            EdgeType.SIMPLE
            if wire_type is EdgeType.HADAMARD
            else EdgeType.HADAMARD,
        )
    pivot_step(diagram, a, b)


# ---------------------------------------------------------------------------
# phase-gadget fusion
# ---------------------------------------------------------------------------
def _gadget_shape(
    diagram: ZXDiagram, leaf: int
) -> Optional[Tuple[int, FrozenSet[int]]]:
    """``(axis, support)`` if ``leaf`` hangs off a fusable phase gadget.

    As a side effect, an axis phase of pi is normalized into the leaf
    (negating its phase) so that equal-support gadgets always fuse by
    adding leaf phases.
    """
    if not _is_gadget_leaf(diagram, leaf):
        return None
    (axis,) = diagram.neighbor_view(leaf)
    if not _all_hadamard(diagram, axis):
        return None
    if not _stored_pauli(diagram.phase(axis)):
        return None
    support = frozenset(diagram.neighbor_view(axis)) - {leaf}
    if any(diagram.is_boundary(s) for s in support):
        return None
    if diagram.phase(axis) == _ONE:
        diagram.set_phase(axis, _ZERO)
        diagram.set_phase(leaf, negate_phase(diagram.phase(leaf)))
    return axis, support


def gadget_fuse_step(
    diagram: ZXDiagram, keep_leaf: int, merge_axis: int, merge_leaf: int
) -> None:
    """Fuse gadget ``(merge_axis, merge_leaf)`` into the one at ``keep_leaf``."""
    diagram.add_to_phase(keep_leaf, diagram.phase(merge_leaf))
    diagram.remove_vertex(merge_leaf)
    diagram.remove_vertex(merge_axis)


# ---------------------------------------------------------------------------
# numerical single-qubit chain contraction (reproduction extension)
# ---------------------------------------------------------------------------
def contract_unitary_chains(
    diagram: ZXDiagram, tolerance: float = 1e-9, deadline=None
) -> int:
    """Remove degree-2 spider chains that multiply out to a wire or an H.

    After ``full_reduce``, a pair of circuits whose single-qubit gates were
    *decomposed with different Euler conventions* can leave a chain of
    degree-2 Z spiders with float phases on one wire — algebraically the
    identity, but invisible to the symbolic graph rules (PyZX exhibits the
    same residue; the paper sidesteps it by compiling both circuits with
    the same toolchain).  This pass multiplies each maximal degree-2 chain
    out numerically: if the resulting 2x2 unitary is the identity (up to
    global phase and ``tolerance``) the chain is replaced by a bare wire;
    if it is the Hadamard, by a Hadamard wire.  Returns chains removed.
    """
    import cmath
    import math

    removed = 0
    changed = True
    while changed:
        changed = False
        for start in list(diagram.vertices()):
            check_deadline(deadline)
            if start not in diagram._types:
                continue
            if diagram.vertex_type(start) is not VertexType.Z:
                continue
            if diagram.degree(start) != 2:
                continue
            # walk left and right to the anchors
            chain = [start]
            ends = []
            # repro: allow(deadline-loop): exactly two directions
            for direction in (0, 1):
                previous = start
                current = diagram.neighbors(start)[direction]
                # repro: allow(deadline-loop): bounded walk along a degree-2 chain
                while (
                    current not in ends
                    and diagram.vertex_type(current) is VertexType.Z
                    and diagram.degree(current) == 2
                    and current != start
                ):
                    chain.append(current)
                    nxt = [
                        n for n in diagram.neighbors(current) if n != previous
                    ][0]
                    previous, current = current, nxt
                ends.append((previous, current))
            (left_prev, left_anchor), (right_prev, right_anchor) = ends
            if left_anchor == right_anchor or left_anchor in chain or right_anchor in chain:
                continue  # loop or degenerate
            if any(
                isinstance(diagram.phase(v), SymbolicPhase) for v in chain
            ):
                continue  # symbolic phases cannot be multiplied out

            if diagram.connected(left_anchor, right_anchor):
                continue  # would need parallel-edge resolution; skip
            # multiply the chain out, walking from left anchor to right
            matrix = [[1 + 0j, 0j], [0j, 1 + 0j]]

            def apply_h(m):
                s = 1 / math.sqrt(2.0)
                return [
                    [s * (m[0][0] + m[1][0]), s * (m[0][1] + m[1][1])],
                    [s * (m[0][0] - m[1][0]), s * (m[0][1] - m[1][1])],
                ]

            def apply_phase(m, phase):
                factor = cmath.exp(1j * math.pi * float(phase))
                return [m[0], [factor * m[1][0], factor * m[1][1]]]

            # order the chain from left anchor inwards
            ordered = []
            previous, current = left_anchor, left_prev
            # left_prev is the chain vertex adjacent to left_anchor
            # repro: allow(deadline-loop): re-walks the chain found above
            while current != right_anchor:
                ordered.append((previous, current))
                nxt = [n for n in diagram.neighbors(current) if n != previous][0]
                previous, current = current, nxt
            ordered.append((previous, current))  # final edge into right anchor
            # repro: allow(deadline-loop): bounded by the chain just walked
            for edge_from, edge_to in ordered:
                if diagram.edge_type(edge_from, edge_to) is EdgeType.HADAMARD:
                    matrix = apply_h(matrix)
                if edge_to != right_anchor:
                    matrix = apply_phase(matrix, diagram.phase(edge_to))
            # classify: identity or Hadamard up to phase?
            def proportional(m, target):
                ref = None
                for r in (0, 1):
                    for c in (0, 1):
                        if abs(target[r][c]) > 0.5:
                            if ref is None:
                                ref = m[r][c] / target[r][c]
                            elif abs(m[r][c] / target[r][c] - ref) > tolerance:
                                return False
                        elif abs(m[r][c]) > tolerance:
                            return False
                # any non-zero proportionality constant qualifies: the ZX
                # engine does not track global scalars
                return ref is not None and abs(ref) > tolerance

            identity = [[1, 0], [0, 1]]
            hadamard = [[1, 1], [1, -1]]
            if proportional(matrix, identity):
                new_edge = EdgeType.SIMPLE
            elif proportional(matrix, hadamard):
                new_edge = EdgeType.HADAMARD
            else:
                continue
            # repro: allow(deadline-loop): bounded by the chain just walked
            for vertex in set(
                v for _, v in ordered if v != right_anchor
            ):
                diagram.remove_vertex(vertex)
            diagram.connect(left_anchor, right_anchor, new_edge)
            removed += 1
            changed = True
            break  # vertex list is stale; restart the scan
    return removed
