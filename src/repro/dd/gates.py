"""Constructing decision diagrams for gates and whole circuits.

A (multi-)controlled gate with base unitary ``G`` on target ``t`` and
controls ``C`` satisfies::

    U = I + (⊗_{c in C} P1) ⊗ (G - I) at t   (identity elsewhere)

i.e. the controlled gate is the identity plus a pure tensor-product
correction term (``P1 = |1><1|``).  Tensor products with identity defaults
are exactly what :meth:`~repro.dd.array_package.ArrayDDPackage.layered_kron`
builds, so every standard-gate DD is one ``layered_kron`` plus one DD
addition — and a two-target base gate needs four correction terms (one per
2x2 block of ``G - I``).

Gates are applied through a *compact* gate diagram, built only up to the
highest qubit the operation touches: the package's ``apply_gate_*``
kernels pass the untouched upper levels through structurally, so the cost
of one application is proportional to the diagram below the gate's top
qubit, not to the register height.

Column simulation applies *blocks* rather than gates: consecutive runs of
operations that together touch at most :data:`FUSION_WIDTH` wires
(:func:`fusion_blocks`), each multiplied once into one compact matrix
diagram (:func:`build_blocks`) and then applied to every column of a
batch (:func:`apply_block_columns`).  The Clifford+T lowering of a
multi-controlled Toffoli is about a dozen gates on three wires, so a
column makes about one kernel call per block where it made one per gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.dd.array_package import ArrayDDPackage
from repro.errors import check_deadline

_P1 = np.array([[0, 0], [0, 1]], dtype=complex)

#: Wires one fused block may span.  CPU seconds of the optimized
#: Table-1 block's 18 ``combined`` cells (one process after a warm-up
#: pass, median of 4 interleaved rounds, 2-core host): 3.38 with one
#: gate per application, 3.15 at 1 wire, 2.17 at 2, 1.89 at 3 and 3.01
#: at 4.  Past 3 wires a block's diagram grows faster than the calls it
#: saves.
FUSION_WIDTH = 3


def operation_dd(pkg: ArrayDDPackage, op: Operation, num_qubits: int) -> int:
    """Build the ``num_qubits``-qubit matrix DD of one operation.

    Results are memoized per package: circuits apply the same few gates
    over and over (16 simulation runs of a 1000-gate circuit hit this
    cache ~32000 times), and canonical nodes make the cached edge exact.
    """
    cache = getattr(pkg, "_gate_dd_cache", None)
    if cache is None:
        cache = {}
        pkg._gate_dd_cache = cache
    key = (op.name, op.targets, op.controls, op.params, num_qubits)
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = _build_operation_dd(pkg, op, num_qubits)
    cache[key] = result
    return result


def compact_operation_dd(pkg: ArrayDDPackage, op: Operation) -> int:
    """The gate DD built only up to the highest qubit the operation touches.

    The returned diagram's root level is ``max(op.qubits)``; the
    ``apply_gate_*`` kernels treat every level above it as identity.
    """
    return operation_dd(pkg, op, max(op.qubits) + 1)


def _build_operation_dd(
    pkg: ArrayDDPackage, op: Operation, num_qubits: int
) -> int:
    if op.name == "swap" and not op.controls:
        return swap_dd(pkg, op.targets[0], op.targets[1], num_qubits)
    base = op.matrix()
    if len(op.targets) == 1:
        delta = base - np.eye(2)
        factors: Dict[int, np.ndarray] = {c: _P1 for c in op.controls}
        factors[op.targets[0]] = delta
        term = pkg.layered_kron(num_qubits, factors)
        return pkg.add(pkg.identity(num_qubits), term)
    if len(op.targets) == 2:
        # targets[0] is the least significant qubit of the 4x4 base matrix.
        t_low, t_high = op.targets
        delta = base - np.eye(4)
        result = pkg.identity(num_qubits)
        for i in (0, 1):
            for j in (0, 1):
                block = np.array(
                    [
                        [delta[2 * i + 0, 2 * j + 0], delta[2 * i + 0, 2 * j + 1]],
                        [delta[2 * i + 1, 2 * j + 0], delta[2 * i + 1, 2 * j + 1]],
                    ]
                )
                if not block.any():
                    continue
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                factors = {c: _P1 for c in op.controls}
                factors[t_high] = unit
                factors[t_low] = block
                term = pkg.layered_kron(num_qubits, factors)
                result = pkg.add(result, term)
        return result
    raise ValueError(f"unsupported number of targets: {len(op.targets)}")


def swap_dd(
    pkg: ArrayDDPackage, qubit_a: int, qubit_b: int, num_qubits: int
) -> int:
    """Direct construction of the SWAP-gate matrix DD.

    ``SWAP = Σ_{i,j} |j><i| at the high qubit ⊗ |i><j| at the low qubit``
    (identity elsewhere), which is a four-chain diagram that can be built
    bottom-up in ``O(num_qubits)`` node creations — no ``layered_kron``
    tensor terms and no DD additions, unlike the generic two-target path.
    """
    low, high = sorted((qubit_a, qubit_b))
    if low == high:
        raise ValueError("swap needs two distinct qubits")
    if num_qubits <= high:
        raise ValueError("swap qubits exceed the register size")
    zero = pkg.zero_matrix_edge()
    below = pkg.identity(low)
    chains = {}
    for i in (0, 1):
        for j in (0, 1):
            # Low-qubit block mapping j -> i sits at row-major slot (i, j).
            edges = [zero, zero, zero, zero]
            edges[2 * i + j] = below
            chain = pkg.make_matrix_node(low, tuple(edges))
            for level in range(low + 1, high):
                chain = pkg.make_matrix_node(level, (chain, zero, zero, chain))
            chains[(i, j)] = chain
    # High-qubit block mapping i -> j picks up the (i, j) low chain.
    edges = [zero, zero, zero, zero]
    for (i, j), chain in chains.items():
        edges[2 * j + i] = chain
    edge = pkg.make_matrix_node(high, tuple(edges))
    for level in range(high + 1, num_qubits):
        edge = pkg.make_matrix_node(level, (edge, zero, zero, edge))
    return edge


def apply_operation_left(
    pkg: ArrayDDPackage, accumulated: int, op: Operation
) -> int:
    """Return ``U_op @ accumulated`` (gate applied after the product)."""
    return pkg.apply_gate_left(compact_operation_dd(pkg, op), accumulated)


def apply_operation_right(
    pkg: ArrayDDPackage, accumulated: int, op: Operation
) -> int:
    """Return ``accumulated @ U_op`` (gate applied before the product)."""
    return pkg.apply_gate_right(accumulated, compact_operation_dd(pkg, op))


def apply_operation_to_vector(
    pkg: ArrayDDPackage, state: int, op: Operation
) -> int:
    """Return ``U_op |state>`` — one DD simulation step."""
    return pkg.apply_gate_vector(compact_operation_dd(pkg, op), state)


def fusion_blocks(
    operations: Iterable[Operation],
) -> List[List[Operation]]:
    """Split ``operations`` into consecutive blocks of at most
    :data:`FUSION_WIDTH` wires.

    The scan extends the current block while the union of its wires
    stays within the width and starts a new block otherwise, so the
    blocks cover the operations once each, in order.  An operation wider
    than the width is a block of its own.
    """
    blocks: List[List[Operation]] = []
    wires: Set[int] = set()
    for op in operations:
        union = wires.union(op.qubits)
        if not blocks or len(union) > FUSION_WIDTH:
            blocks.append([])
            union = set(op.qubits)
        blocks[-1].append(op)
        wires = union
    return blocks


def build_blocks(
    pkg: ArrayDDPackage,
    operations: Iterable[Operation],
    deadline: Optional[float] = None,
) -> List[int]:
    """The compact matrix DD ``U_k ⋯ U_1`` of every block of ``operations``.

    A block is built up to its top wire: the first operation's gate DD
    at that height, then each later operation applied from the left, so
    a one-operation block is that operation's compact gate DD.  The
    cooperative ``deadline`` is checked once per operation.
    """
    built = []
    for block in fusion_blocks(operations):
        check_deadline(deadline)
        height = max(q for op in block for q in op.qubits) + 1
        edge = operation_dd(pkg, block[0], height)
        for op in block[1:]:
            check_deadline(deadline)
            edge = apply_operation_left(pkg, edge, op)
        built.append(edge)
    return built


def apply_block_columns(
    pkg: ArrayDDPackage, columns: Sequence[int], block: int
) -> List[int]:
    """Apply one block's diagram to every column state of a batch.

    All columns live in one package, so compute-table entries filled by
    the first column are hits for every later column that shares
    sub-structure with it.
    """
    return [pkg.apply_gate_vector(block, column) for column in columns]


def circuit_dd(pkg: ArrayDDPackage, circuit: QuantumCircuit) -> int:
    """Build the full system-matrix DD ``U = U_{m-1} ... U_0`` of a circuit.

    This is the naive *construction* strategy of Section 4.1 — potentially
    exponential in intermediate size, but the baseline the alternating
    scheme improves on.
    """
    result = pkg.identity(circuit.num_qubits)
    for op in circuit:
        result = apply_operation_left(pkg, result, op)
    return result


def simulate_circuit_dd(
    pkg: ArrayDDPackage,
    circuit: QuantumCircuit,
    initial: Optional[int] = None,
) -> int:
    """Run the circuit on a vector DD (default ``|0...0>``)."""
    state = initial if initial is not None else pkg.basis_state(circuit.num_qubits)
    for op in circuit:
        state = apply_operation_to_vector(pkg, state, op)
    return state


def permutation_dd(
    pkg: ArrayDDPackage, permutation: Dict[int, int], num_qubits: int
) -> int:
    """Matrix DD moving the state of wire ``k`` to wire ``permutation[k]``.

    Realized as a product of SWAP-gate DDs obtained from the cycle
    decomposition of the permutation.  Each SWAP is constructed directly
    (see :func:`swap_dd`) and merged with the fast-path application
    kernel, so untouched upper wires are never traversed.
    """
    result = pkg.identity(num_qubits)
    for a, b in permutation_to_transpositions(permutation, num_qubits):
        swap = swap_dd(pkg, a, b, max(a, b) + 1)
        result = pkg.apply_gate_left(swap, result)
    return result


def permutation_to_transpositions(
    permutation: Dict[int, int], num_qubits: int
) -> Iterable[Tuple[int, int]]:
    """Decompose a wire permutation into a list of transpositions."""
    full = {q: q for q in range(num_qubits)}
    full.update(permutation)
    if sorted(full.values()) != list(range(num_qubits)):
        raise ValueError(f"not a permutation: {permutation}")
    transpositions = []
    current = dict(full)
    # Greedy selection-sort style decomposition: after processing wire k,
    # current[k] == k.
    inverse = {v: k for k, v in current.items()}
    for wire in range(num_qubits):
        src = inverse[wire]
        if src != wire:
            # swap contents of wires src and wire
            transpositions.append((src, wire))
            moved = current[wire]
            current[src] = moved
            current[wire] = wire
            inverse[moved] = src
            inverse[wire] = wire
    return transpositions
