"""Quantum multiple-valued decision diagrams (QMDDs).

A pure-Python re-implementation of the decision-diagram package underlying
QCEC (Section 4 of the paper): edge-weighted, normalized, canonical decision
diagrams for quantum state vectors and unitary matrices, with

* a tolerance-aware *complex table* that merges numerically close edge
  weights (the mechanism whose failure under rounding errors causes the DD
  blow-up discussed in Section 6.2),
* *unique tables* that guarantee canonicity — two equal (sub-)functions are
  represented by the very same node handle, and
* *compute tables* memoizing addition, multiplication, conjugation, traces,
  inner products and gate applications: one dict per operation, emptied
  together between gate applications once one passes
  :data:`~repro.dd.array_package.COMPUTE_TABLE_CAP` entries.

The engine is :class:`~repro.dd.array_package.ArrayDDPackage`: one
tuple per node in a list indexed by handle, a ``dict`` from each tuple
to its handle as the unique table (:mod:`repro.dd.array_store`), and
packed integer edges.  It operates on the shared
circuit IR of :mod:`repro.circuit`; :mod:`repro.dd.gates` builds gate
diagrams and applies them to matrices, states and batches of stimulus
columns.
"""

from repro.dd.array_package import ArrayDDPackage
from repro.dd.array_store import NodeStore
from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.dd.export import edge_to_matrix, edge_to_vector

__all__ = [
    "ArrayDDPackage",
    "ComplexTable",
    "DEFAULT_TOLERANCE",
    "NodeStore",
    "edge_to_matrix",
    "edge_to_vector",
]
