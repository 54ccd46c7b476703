"""Qubit-permutation handling for compiled circuits.

Compiled circuits act on *physical* wires related to the original logical
qubits by an initial layout and an output permutation (paper Section 3).
The machinery here realizes Section 4.1's treatment:

* :func:`reconstruct_swaps` re-assembles SWAPs that the compiler
  decomposed into three CNOTs ("To maximize this potential, deconstructed
  SWAP operations are reconstructed"),
* :func:`to_logical_form` rewrites a circuit onto logical wires by
  *tracking* the physical-to-logical permutation through the circuit,
  absorbing SWAP gates into the tracked permutation instead of emitting
  them, and appending corrective SWAPs only where the tracked permutation
  disagrees with the declared output permutation.

Every equivalence-checking strategy consumes circuits in logical form, so
all of them handle permuted inputs/outputs uniformly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.dd.gates import permutation_to_transpositions


def reconstruct_swaps(circuit: QuantumCircuit) -> QuantumCircuit:
    """Replace CNOT triples ``cx(a,b) cx(b,a) cx(a,b)`` by ``swap(a,b)``.

    Only list-consecutive triples are matched, which is how compilation
    flows emit them; the pass preserves layout metadata.
    """
    out = QuantumCircuit(
        circuit.num_qubits,
        name=circuit.name,
        initial_layout=circuit.initial_layout,
        output_permutation=circuit.output_permutation,
    )
    ops = list(circuit)
    index = 0
    # repro: allow(deadline-prop): index strictly advances over a fixed list
    while index < len(ops):
        op = ops[index]
        if (
            index + 2 < len(ops)
            and _is_cx(op)
            and _is_cx(ops[index + 1])
            and _is_cx(ops[index + 2])
            and ops[index + 1].controls == op.targets
            and ops[index + 1].targets == op.controls
            and ops[index + 2] == op
        ):
            out.swap(op.controls[0], op.targets[0])
            index += 3
            continue
        out.append(op)
        index += 1
    return out


def _is_cx(op: Operation) -> bool:
    return op.name == "x" and len(op.controls) == 1


def active_width(
    logical1: QuantumCircuit, logical2: QuantumCircuit, floor: int = 0
) -> int:
    """The register width a DD check of two logical-form circuits needs.

    One more than the highest wire any operation of either circuit
    touches, and at least ``floor``.  Every wire above it holds ``|0>``
    (or the identity) in both circuits, so dropping those wires leaves
    fidelities, traces and verdicts exactly as on the declared register.
    """
    top = max(
        (max(op.qubits) for circuit in (logical1, logical2) for op in circuit),
        default=-1,
    )
    return max(floor, top + 1)


def to_logical_form(
    circuit: QuantumCircuit,
    num_qubits: Optional[int] = None,
    elide_permutations: bool = True,
    reconstruct: bool = True,
) -> Tuple[QuantumCircuit, Dict[str, int]]:
    """Rewrite a circuit onto logical wires, erasing its layout metadata.

    Returns the rewritten circuit (with identity layout/output metadata)
    plus statistics: ``swaps_elided`` (absorbed into the tracked
    permutation), ``swaps_reconstructed`` and ``correction_swaps``
    (appended to fix a leftover permutation mismatch).

    The invariant maintained while scanning is: *physical wire ``w`` of
    the input circuit corresponds to logical wire ``perm[w]`` of the
    output circuit*, starting from the initial layout.
    """
    if num_qubits is None:
        num_qubits = circuit.num_qubits
    if num_qubits < circuit.num_qubits:
        raise ValueError("cannot shrink a circuit in to_logical_form")
    statistics = {
        "swaps_elided": 0,
        "swaps_reconstructed": 0,
        "correction_swaps": 0,
    }
    source = reconstruct_swaps(circuit) if reconstruct else circuit
    if reconstruct:
        statistics["swaps_reconstructed"] = sum(
            1 for op in source if op.name == "swap"
        ) - sum(1 for op in circuit if op.name == "swap")

    perm = circuit.resolved_initial_layout()  # physical wire -> logical
    for extra in range(circuit.num_qubits, num_qubits):
        perm.setdefault(extra, extra)
    out = QuantumCircuit(num_qubits, name=f"{circuit.name}_logical")

    for op in source:
        if op.name == "swap" and not op.controls and elide_permutations:
            a, b = op.targets
            perm[a], perm[b] = perm[b], perm[a]
            statistics["swaps_elided"] += 1
            continue
        out.append(op.remapped(perm))

    expected = circuit.resolved_output_permutation()  # physical -> logical
    for extra in range(circuit.num_qubits, num_qubits):
        expected.setdefault(extra, extra)
    # The state sitting on logical wire perm[w] must end up being reported
    # as logical qubit expected[w]: emit SWAPs realizing the wire map
    # perm[w] -> expected[w].
    correction = {perm[w]: expected[w] for w in perm}
    for a, b in permutation_to_transpositions(correction, num_qubits):
        out.swap(a, b)
        statistics["correction_swaps"] += 1
    return out, statistics
