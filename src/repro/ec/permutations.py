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
  disagrees with the declared output permutation;
* :func:`logical_pair` applies both to a circuit pair and records the
  widths a check needs, as one :class:`LogicalPair`.

The manager derives one :class:`LogicalPair` per check and hands it to
every strategy, so all of them see the same logical wires.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    logical1: QuantumCircuit, logical2: QuantumCircuit
) -> int:
    """The register width a DD check of two logical-form circuits needs.

    One more than the highest wire any operation of either circuit
    touches.  Every wire above it holds ``|0>`` (or the identity) in both
    circuits, so dropping those wires leaves fidelities, traces and
    verdicts exactly as on the declared register.
    """
    return 1 + max(
        (max(op.qubits) for circuit in (logical1, logical2) for op in circuit),
        default=-1,
    )


def to_logical_form(
    circuit: QuantumCircuit, num_qubits: Optional[int] = None
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
    source = reconstruct_swaps(circuit)
    statistics["swaps_reconstructed"] = sum(
        1 for op in source if op.name == "swap"
    ) - sum(1 for op in circuit if op.name == "swap")

    perm = circuit.resolved_initial_layout()  # physical wire -> logical
    for extra in range(circuit.num_qubits, num_qubits):
        perm.setdefault(extra, extra)
    out = QuantumCircuit(num_qubits, name=f"{circuit.name}_logical")

    for op in source:
        if op.name == "swap" and not op.controls:
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


@dataclass(frozen=True)
class LogicalPair:
    """A circuit pair on logical wires: what every checker consumes.

    Attributes:
        circuit1: The first circuit's logical form.
        circuit2: The second circuit's logical form.
        num_qubits: The declared register, the wider input's width; both
            logical forms have it.
        data_qubits: The narrower input's width.  Wires above it are
            ancillae that start in ``|0>``.
        active_qubits: :func:`active_width` of the two logical forms.
        statistics: :func:`to_logical_form`'s SWAP bookkeeping, under
            ``"circuit1"`` and ``"circuit2"``.
    """

    circuit1: QuantumCircuit
    circuit2: QuantumCircuit
    num_qubits: int
    data_qubits: int
    active_qubits: int
    statistics: Dict[str, Dict[str, int]]


def logical_pair(
    circuit1: QuantumCircuit, circuit2: QuantumCircuit
) -> LogicalPair:
    """Bring two circuits onto logical wires of the wider one's register.

    Raises ``ValueError`` when either circuit's layout metadata is not a
    permutation of its wires.
    """
    num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
    logical1, statistics1 = to_logical_form(circuit1, num_qubits)
    logical2, statistics2 = to_logical_form(circuit2, num_qubits)
    return LogicalPair(
        logical1,
        logical2,
        num_qubits=num_qubits,
        data_qubits=min(circuit1.num_qubits, circuit2.num_qubits),
        active_qubits=active_width(logical1, logical2),
        statistics={"circuit1": statistics1, "circuit2": statistics2},
    )
