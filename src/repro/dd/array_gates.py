"""Batched gate application over stimulus columns.

The gate *builders* in :mod:`repro.dd.gates` are engine-polymorphic: they
only touch the package method surface (``layered_kron``, ``identity``,
``add``, ``make_matrix_node``, the ``apply_gate_*`` kernels), which the
array engine (:mod:`repro.dd.array_package`) implements over packed
integer edges.  What this module adds on top is *batching*: the
simulation checker propagates each batch of random stimuli as a matrix of
column states and applies each gate to every column in one pass, on
either engine.

Batching amortizes the per-gate fixed costs across the batch width — the
gate-DD cache fetch happens once per gate instead of once per (gate,
stimulus), and because all columns live in one package, compute-table
entries populated by the first column are hits for every later column
that shares sub-structure with it (classical stimuli share almost
everything below the flipped qubits).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.gate import Operation
from repro.dd.gates import compact_operation_dd, operation_dd


def apply_operation_columns(
    pkg,
    columns: Sequence[int],
    op: Operation,
    num_qubits: int,
    direct: bool = True,
) -> List[int]:
    """Apply one operation to every column state; returns the new columns.

    The gate diagram is built (or fetched from the per-package gate
    cache) exactly once for the whole batch.  Works with either engine —
    ``columns`` are whatever edge type ``pkg`` produces.
    """
    if direct:
        gate = compact_operation_dd(pkg, op)
        apply = pkg.apply_gate_vector
    else:
        gate = operation_dd(pkg, op, num_qubits)
        apply = pkg.multiply_matrix_vector
    return [apply(gate, column) for column in columns]
