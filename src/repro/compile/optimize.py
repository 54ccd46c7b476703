"""Circuit optimization passes.

These passes produce the paper's second use-case — "verifying the
equivalence of two different implementations of the same functionality —
an original circuit and an optimized version" (Section 6.1).  The default
pipeline mirrors a light (O1-style) optimization level:

* cancellation of adjacent inverse gate pairs (H·H, CX·CX, S·S†, ...),
* merging of adjacent same-axis rotations with angle addition and removal
  of (near-)zero rotations,
* optional resynthesis of single-qubit runs into one ``u3`` gate.

All passes run to a fixpoint and preserve the circuit's layout metadata.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation

_TWO_PI = 2.0 * math.pi

#: Rotation gates whose adjacent applications merge by angle addition.
_MERGEABLE = {"rx", "ry", "rz", "p", "rzz", "rxx"}

#: Gate pairs (unordered) that cancel when adjacent on identical qubits.
_INVERSE_NAMES = {
    ("s", "sdg"), ("t", "tdg"), ("sx", "sxdg"),
}
_SELF_INVERSE = {"id", "x", "y", "z", "h", "swap"}


def _are_inverse(a: Operation, b: Operation, tol: float) -> bool:
    """True if ``b`` undoes ``a`` when applied immediately after it."""
    if a.targets != b.targets or a.controls != b.controls:
        return False
    if a.name == b.name:
        if a.name in _SELF_INVERSE and not a.params:
            return True
        if a.name in _MERGEABLE:
            total = (a.params[0] + b.params[0]) % _TWO_PI
            return min(total, _TWO_PI - total) < tol
        return False
    pair = tuple(sorted((a.name, b.name)))
    return pair in _INVERSE_NAMES and not a.params


def _merge(a: Operation, b: Operation, tol: float) -> Optional[Operation]:
    """Merge two adjacent rotations into one, or None if not mergeable."""
    if (
        a.name != b.name
        or a.name not in _MERGEABLE
        or a.targets != b.targets
        or a.controls != b.controls
    ):
        return None
    total = (a.params[0] + b.params[0]) % _TWO_PI
    if min(total, _TWO_PI - total) < tol:
        return Operation("id", a.targets[:1])
    return Operation(a.name, a.targets, a.controls, (total,))


def cancel_and_merge_pass(
    circuit: QuantumCircuit, tol: float = 1e-12
) -> QuantumCircuit:
    """One sweep of inverse-pair cancellation and rotation merging.

    Scans left to right keeping, per qubit, the index of the last surviving
    operation on that qubit; a new operation can only interact with its
    predecessor if that predecessor is the last survivor on *all* of its
    qubits (i.e. the two are truly adjacent in the circuit DAG).
    """
    survivors: List[Optional[Operation]] = []
    last_on_qubit: List[Optional[int]] = [None] * circuit.num_qubits

    for op in circuit:
        indices = {last_on_qubit[q] for q in op.qubits}
        previous_index = indices.pop() if len(indices) == 1 else None
        previous = (
            survivors[previous_index] if previous_index is not None else None
        )
        if previous is not None and previous.qubits == op.qubits:
            if _are_inverse(previous, op, tol):
                survivors[previous_index] = None
                for q in op.qubits:
                    last_on_qubit[q] = None
                continue
            merged = _merge(previous, op, tol)
            if merged is not None:
                if merged.name == "id":
                    survivors[previous_index] = None
                    for q in op.qubits:
                        last_on_qubit[q] = None
                else:
                    survivors[previous_index] = merged
                continue
        survivors.append(op)
        for q in op.qubits:
            last_on_qubit[q] = len(survivors) - 1

    out = QuantumCircuit(
        circuit.num_qubits,
        name=circuit.name,
        initial_layout=circuit.initial_layout,
        output_permutation=circuit.output_permutation,
    )
    for op in survivors:
        if op is not None and op.name != "id":
            out.append(op)
    return out


def optimize_circuit(
    circuit: QuantumCircuit,
    level: int = 1,
    tol: float = 1e-12,
    max_rounds: int = 100,
) -> QuantumCircuit:
    """Run the optimization pipeline to a fixpoint.

    Levels: 0 — no-op copy; 1 — cancellation + rotation merging (the
    default, mirroring the paper's O1 setting); 2 — additionally fuse
    single-qubit runs into ``u3`` gates (a more aggressive resynthesis).

    Raises:
        ValueError: ``level`` is not 0, 1 or 2.
    """
    if level not in (0, 1, 2):
        raise ValueError(f"unknown optimization level {level!r} (use 0-2)")
    result = circuit.copy()
    if level == 0:
        return result
    for _ in range(max_rounds):
        optimized = cancel_and_merge_pass(result, tol)
        if len(optimized) == len(result):
            result = optimized
            break
        result = optimized
    if level == 2:
        from repro.compile.decompose import _fuse_single_qubit_runs

        result = _fuse_single_qubit_runs(result)
        result = cancel_and_merge_pass(result, tol)
    result.name = f"{circuit.name}_opt"
    return result
