"""The ZX-diagram graph structure.

A ZX-diagram is an undirected multigraph of *spiders* (green Z, red X) and
*boundary* vertices (circuit inputs/outputs), with two edge kinds: simple
wires and Hadamard wires.  Following the "only topology matters" paradigm
(Section 5 of the paper) the structure is a plain adjacency map; parallel
edges never need to be stored because the only situation producing them —
rewrites in graph-like form — resolves them eagerly via the Hopf law
(:meth:`ZXDiagram.complement_edges`).

The class stores no geometry; inputs and outputs are ordered lists of
boundary vertices, which is all composition and permutation extraction
need.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.zx.phase import Phase, add_phases, negate_phase, normalize_phase


class VertexType(IntEnum):
    """Kinds of vertices in a ZX-diagram."""

    BOUNDARY = 0
    Z = 1
    X = 2


class EdgeType(IntEnum):
    """Kinds of edges in a ZX-diagram."""

    SIMPLE = 1
    HADAMARD = 2


class ZXDiagram:
    """A mutable ZX-diagram.

    A *mutation tracker* (see :class:`repro.zx.worklist.DirtyTracker`) can be
    attached; while attached, every mutation that can change a rewrite-rule
    match — phase, type, or incident-edge changes — notifies the tracker with
    the affected vertex ids.  The hooks are a single ``is not None`` check
    when no tracker is attached, so untracked mutation (circuit conversion,
    composition, extraction) pays nothing.
    """

    def __init__(self) -> None:
        self._types: Dict[int, VertexType] = {}
        self._phases: Dict[int, Phase] = {}
        self._adjacency: Dict[int, Dict[int, EdgeType]] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self._next_id = 0
        self._tracker = None

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    def attach_tracker(self, tracker) -> None:
        """Attach a mutation tracker (one at a time)."""
        if self._tracker is not None:
            raise ValueError("a tracker is already attached")
        self._tracker = tracker

    def detach_tracker(self) -> None:
        self._tracker = None

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(
        self, vertex_type: VertexType, phase: Phase = Fraction(0)
    ) -> int:
        """Add a vertex and return its id."""
        vertex = self._next_id
        self._next_id += 1
        self._types[vertex] = vertex_type
        self._phases[vertex] = normalize_phase(phase)
        self._adjacency[vertex] = {}
        if self._tracker is not None:
            self._tracker.touch(vertex)
        return vertex

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and all incident edges."""
        neighbors = tuple(self._adjacency[vertex])
        for neighbor in neighbors:
            del self._adjacency[neighbor][vertex]
        del self._adjacency[vertex]
        del self._types[vertex]
        del self._phases[vertex]
        if self._tracker is not None:
            self._tracker.forget(vertex)
            for neighbor in neighbors:
                self._tracker.touch_edges(neighbor)

    def vertices(self) -> Iterator[int]:
        return iter(tuple(self._types))

    @property
    def num_vertices(self) -> int:
        return len(self._types)

    @property
    def num_spiders(self) -> int:
        """Vertices that are not boundaries — the paper's diagram size metric."""
        return sum(
            1 for t in self._types.values() if t is not VertexType.BOUNDARY
        )

    def vertex_type(self, vertex: int) -> VertexType:
        return self._types[vertex]

    def set_vertex_type(self, vertex: int, vertex_type: VertexType) -> None:
        self._types[vertex] = vertex_type
        if self._tracker is not None:
            self._tracker.touch(vertex)

    def phase(self, vertex: int) -> Phase:
        return self._phases[vertex]

    def set_phase(self, vertex: int, phase: Phase) -> None:
        self._phases[vertex] = normalize_phase(phase)
        if self._tracker is not None:
            self._tracker.touch(vertex)

    def add_to_phase(self, vertex: int, phase: Phase) -> None:
        self._phases[vertex] = add_phases(self._phases[vertex], phase)
        if self._tracker is not None:
            self._tracker.touch(vertex)

    def is_boundary(self, vertex: int) -> bool:
        return self._types[vertex] is VertexType.BOUNDARY

    def is_interior(self, vertex: int) -> bool:
        """True if no neighbor of ``vertex`` is a boundary vertex."""
        return all(not self.is_boundary(n) for n in self._adjacency[vertex])

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def connect(self, u: int, v: int, edge_type: EdgeType = EdgeType.SIMPLE) -> None:
        """Add an edge; raises if the vertices are already connected."""
        if u == v:
            raise ValueError("use toggle_hadamard_edge for self-loops")
        if v in self._adjacency[u]:
            raise ValueError(f"vertices {u} and {v} already connected")
        self._adjacency[u][v] = edge_type
        self._adjacency[v][u] = edge_type
        if self._tracker is not None:
            self._tracker.touch_edges(u)
            self._tracker.touch_edges(v)

    def disconnect(self, u: int, v: int) -> None:
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        if self._tracker is not None:
            self._tracker.touch_edges(u)
            self._tracker.touch_edges(v)

    def connected(self, u: int, v: int) -> bool:
        return v in self._adjacency[u]

    def edge_type(self, u: int, v: int) -> EdgeType:
        return self._adjacency[u][v]

    def set_edge_type(self, u: int, v: int, edge_type: EdgeType) -> None:
        self._adjacency[u][v] = edge_type
        self._adjacency[v][u] = edge_type
        if self._tracker is not None:
            self._tracker.touch_edges(u)
            self._tracker.touch_edges(v)

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Neighbors as a fresh tuple (stable under mutation, indexable)."""
        return tuple(self._adjacency[vertex])

    def neighbor_view(self, vertex: int):
        """Zero-copy view of the neighbors (a dict keys view).

        For hot-loop callers that only iterate or test membership:
        :meth:`neighbors` materializes a tuple on every call, which dominated
        profile time in the simplification match loops.  The view is live —
        callers that mutate the diagram while iterating must use
        :meth:`neighbors` (or copy) instead.
        """
        return self._adjacency[vertex].keys()

    def degree(self, vertex: int) -> int:
        return len(self._adjacency[vertex])

    def edges(self) -> Iterator[Tuple[int, int, EdgeType]]:
        """Iterate over edges as ``(u, v, type)`` with ``u < v``."""
        for u, nbrs in self._adjacency.items():
            for v, edge_type in nbrs.items():
                if u < v:
                    yield (u, v, edge_type)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def toggle_hadamard_edge(self, u: int, v: int) -> None:
        """Toggle a Hadamard edge between two Z spiders (Hopf law).

        An H self-loop on a Z spider contributes a pi phase; any other pair
        is toggled by :meth:`complement_edges`.
        """
        if u == v:
            self.add_to_phase(u, Fraction(1))
            return
        self.complement_edges(((u, v),))

    def complement_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Toggle a Hadamard edge between each pair of distinct Z spiders.

        The neighbourhood complement of local complementation and pivoting
        in graph-like diagrams: adding a Hadamard edge where one exists
        removes both (Hopf law, up to scalar).  Pairs are toggled in the
        given order, so each vertex's neighbour order is the same as with
        one :meth:`connect` or :meth:`disconnect` per pair; an attached
        tracker hears each touched vertex once, after the last toggle.
        """
        adjacency = self._adjacency
        touched = set()
        for u, v in pairs:
            if u == v:
                raise ValueError("use toggle_hadamard_edge for self-loops")
            edges_u = adjacency[u]
            existing = edges_u.get(v)
            if existing is None:
                edges_u[v] = EdgeType.HADAMARD
                adjacency[v][u] = EdgeType.HADAMARD
            elif existing is EdgeType.HADAMARD:
                del edges_u[v]
                del adjacency[v][u]
            else:
                raise ValueError(
                    "Hadamard toggle on a simple edge — diagram is not "
                    "graph-like"
                )
            touched.add(u)
            touched.add(v)
        if self._tracker is not None:
            for vertex in touched:
                self._tracker.touch_edges(vertex)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def non_clifford_count(self) -> int:
        """Number of spiders carrying a non-Clifford phase."""
        from repro.zx.phase import is_clifford_phase

        return sum(
            1
            for v, t in self._types.items()
            if t is not VertexType.BOUNDARY
            and not is_clifford_phase(self._phases[v])
        )

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def copy(self) -> "ZXDiagram":
        out = ZXDiagram()
        out._types = dict(self._types)
        out._phases = dict(self._phases)
        out._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        out.inputs = list(self.inputs)
        out.outputs = list(self.outputs)
        out._next_id = self._next_id
        return out

    def adjoint(self) -> "ZXDiagram":
        """The dagger of the diagram: phases negated, inputs/outputs swapped."""
        out = self.copy()
        for vertex in out.vertices():
            out.set_phase(vertex, negate_phase(out.phase(vertex)))
        out.inputs, out.outputs = out.outputs, out.inputs
        return out

    def compose(self, other: "ZXDiagram") -> "ZXDiagram":
        """Horizontal composition: run ``self`` first, then ``other``.

        Each output of ``self`` is joined to the corresponding input of
        ``other`` through a fresh phase-0 Z spider (a representation of the
        plain wire), which sidesteps every boundary-boundary corner case;
        the junction spiders disappear again during identity removal.
        """
        if len(self.outputs) != len(other.inputs):
            raise ValueError("output/input arity mismatch in composition")
        out = self.copy()
        mapping: Dict[int, int] = {}
        for vertex in other.vertices():
            mapping[vertex] = out.add_vertex(
                other.vertex_type(vertex), other.phase(vertex)
            )
        for u, v, edge_type in other.edges():
            out.connect(mapping[u], mapping[v], edge_type)
        for out_b, in_b in zip(list(out.outputs), [mapping[i] for i in other.inputs]):
            junction = out.add_vertex(VertexType.Z)
            for boundary in (out_b, in_b):
                (neighbor,) = out.neighbors(boundary)
                edge_type = out.edge_type(boundary, neighbor)
                out.disconnect(boundary, neighbor)
                if out.connected(junction, neighbor):
                    # Both stubs end on the same vertex; merge the parallel
                    # edge via the Hopf law if both are Hadamard, or fuse
                    # into a simple connection otherwise.
                    existing = out.edge_type(junction, neighbor)
                    if (
                        existing is EdgeType.HADAMARD
                        and edge_type is EdgeType.HADAMARD
                    ):
                        out.disconnect(junction, neighbor)
                    elif (
                        existing is EdgeType.SIMPLE
                        and edge_type is EdgeType.SIMPLE
                        and out.vertex_type(neighbor) is VertexType.Z
                    ):
                        # Two simple wires between Z spiders: keep one; the
                        # doubled connection is a fused self-loop, a no-op.
                        pass
                    else:
                        raise ValueError(
                            "unresolvable parallel edge during composition"
                        )
                else:
                    out.connect(junction, neighbor, edge_type)
                out.remove_vertex(boundary)
        out.outputs = [mapping[o] for o in other.outputs]
        return out

    # ------------------------------------------------------------------
    # permutation extraction
    # ------------------------------------------------------------------
    def wire_permutation(self) -> Optional[Dict[int, int]]:
        """If the diagram is a bare permutation of wires, return it.

        Returns a mapping ``input position -> output position`` when every
        vertex is a boundary and every input is joined to exactly one output
        by a *simple* edge; ``None`` otherwise (leftover spiders or Hadamard
        wires mean the reduction did not reach a permutation diagram).
        """
        if self.num_spiders:
            return None
        output_position = {v: i for i, v in enumerate(self.outputs)}
        permutation: Dict[int, int] = {}
        for position, vertex in enumerate(self.inputs):
            if self.degree(vertex) != 1:
                return None
            (neighbor,) = self.neighbors(vertex)
            if self.edge_type(vertex, neighbor) is not EdgeType.SIMPLE:
                return None
            if neighbor not in output_position:
                return None
            permutation[position] = output_position[neighbor]
        if len(set(permutation.values())) != len(self.inputs):
            return None
        return permutation

    def is_identity_diagram(self) -> bool:
        """True if the diagram is the identity wiring (no permutation)."""
        permutation = self.wire_permutation()
        return permutation is not None and all(
            src == dst for src, dst in permutation.items()
        )
