"""ZX-calculus engine.

A pure-Python re-implementation of the PyZX core the paper's case study
uses (Section 5): ZX-diagrams as undirected graphs of Z/X spiders with
simple and Hadamard edges, conversion from the circuit IR, the *graph-like*
normal form, and the simplification strategy built on spider fusion,
identity removal, local complementation, pivoting and phase gadgets
(``full_reduce``), plus equivalence checking by composing one circuit with
the adjoint of the other and reducing towards a bare-wire permutation
diagram.

A tensor-network evaluator (:mod:`repro.zx.tensor`) provides exact dense
semantics for small diagrams so every rewrite rule is testable against the
matrix ground truth.
"""

from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.phase import normalize_phase, phase_to_radians, is_pauli_phase, is_proper_clifford_phase
from repro.zx.circuit_conv import circuit_to_zx
from repro.zx.tensor import diagram_to_matrix, diagrams_proportional
from repro.zx.simplify import contract_unitary_chains, to_graph_like
from repro.zx.worklist import full_reduce, interior_clifford_simp

__all__ = [
    "EdgeType",
    "VertexType",
    "ZXDiagram",
    "circuit_to_zx",
    "diagram_to_matrix",
    "diagrams_proportional",
    "contract_unitary_chains",
    "full_reduce",
    "interior_clifford_simp",
    "to_graph_like",
    "normalize_phase",
    "phase_to_radians",
    "is_pauli_phase",
    "is_proper_clifford_phase",
]
