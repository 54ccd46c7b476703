"""Tests for gate application through compact gate diagrams.

The ``apply_gate_*`` kernels multiply a gate diagram built only up to
its top qubit into a taller diagram, passing the upper levels through.
Every product is checked against dense truth: matrix products from
either side, matrix-vector products, stimulus preparation and the fused
blocks column simulation applies.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.circuit.unitary import (
    circuit_unitary,
    operation_unitary,
    permutation_matrix,
    statevector,
)
from repro.dd import ArrayDDPackage, edge_to_matrix, edge_to_vector
from repro.dd.gates import (
    FUSION_WIDTH,
    apply_block_columns,
    apply_operation_left,
    apply_operation_right,
    apply_operation_to_vector,
    build_blocks,
    circuit_dd,
    compact_operation_dd,
    fusion_blocks,
    operation_dd,
    permutation_dd,
    simulate_circuit_dd,
    swap_dd,
)
from tests.conftest import random_circuit


@pytest.fixture
def pkg():
    return ArrayDDPackage()


def _level(pkg, edge):
    return pkg.mat.nodes[pkg.edge_node(edge)][0]


class TestCompactOperationDD:
    def test_root_level_is_top_touched_qubit(self, pkg):
        edge = compact_operation_dd(pkg, Operation("x", (2,), (0,)))
        assert _level(pkg, edge) == 2
        edge = compact_operation_dd(pkg, Operation("h", (1,)))
        assert _level(pkg, edge) == 1

    def test_matches_full_dd_on_its_own_register(self, pkg):
        op = Operation("x", (1,), (0,))
        compact = compact_operation_dd(pkg, op)
        c = QuantumCircuit(2)
        c.cx(0, 1)
        np.testing.assert_allclose(
            edge_to_matrix(compact, 2, pkg), circuit_unitary(c), atol=1e-12
        )


class TestApplicationMatchesDense:
    """Every gate path agrees with the dense unitary or state."""

    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matrix_accumulation_left(self, gate_set, seed, pkg):
        circuit = random_circuit(5, 25, seed=seed, gate_set=gate_set)
        np.testing.assert_allclose(
            edge_to_matrix(circuit_dd(pkg, circuit), 5, pkg),
            circuit_unitary(circuit),
            atol=1e-9,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_accumulation_right(self, seed, pkg):
        accumulated = pkg.identity(4)
        dense = np.eye(16, dtype=complex)
        for op in random_circuit(4, 20, seed=seed):
            accumulated = apply_operation_right(pkg, accumulated, op)
            dense = dense @ operation_unitary(op, 4)
            np.testing.assert_allclose(
                edge_to_matrix(accumulated, 4, pkg), dense, atol=1e-9
            )

    @pytest.mark.parametrize("gate_set", ["clifford_t", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vector_simulation(self, gate_set, seed, pkg):
        circuit = random_circuit(5, 25, seed=seed, gate_set=gate_set)
        np.testing.assert_allclose(
            edge_to_vector(simulate_circuit_dd(pkg, circuit), 5, pkg),
            statevector(circuit),
            atol=1e-9,
        )

    def test_wide_register_narrow_gate(self, pkg):
        """A gate on low qubits of a wide register passes upper levels
        through: the result is the full-height gate diagram itself."""
        num_qubits = 8
        op = Operation("x", (1,), (0,))
        edge = apply_operation_left(pkg, pkg.identity(num_qubits), op)
        assert _level(pkg, edge) == num_qubits - 1
        assert edge == operation_dd(pkg, op, num_qubits)
        np.testing.assert_allclose(
            edge_to_matrix(edge, num_qubits, pkg),
            operation_unitary(op, num_qubits),
            atol=1e-12,
        )

    def test_zero_target_short_circuits(self, pkg):
        zero = pkg.zero_matrix_edge()
        gate = compact_operation_dd(pkg, Operation("h", (0,)))
        assert pkg.edge_weight(pkg.apply_gate_left(gate, zero)) == 0
        assert pkg.edge_weight(pkg.apply_gate_right(zero, gate)) == 0
        assert pkg.edge_weight(
            pkg.apply_gate_vector(gate, pkg.zero_vector_edge())
        ) == 0


class TestSwapDD:
    @pytest.mark.parametrize("num_qubits", [2, 3, 5])
    def test_swap_dd_matches_dense(self, num_qubits, pkg):
        for a in range(num_qubits):
            for b in range(a + 1, num_qubits):
                circuit = QuantumCircuit(num_qubits)
                circuit.swap(a, b)
                np.testing.assert_allclose(
                    edge_to_matrix(
                        swap_dd(pkg, a, b, num_qubits), num_qubits, pkg
                    ),
                    circuit_unitary(circuit),
                    atol=1e-12,
                )

    def test_swap_dd_is_argument_order_invariant(self, pkg):
        assert swap_dd(pkg, 0, 2, 3) == swap_dd(pkg, 2, 0, 3)

    def test_swap_dd_rejects_bad_arguments(self, pkg):
        with pytest.raises(ValueError):
            swap_dd(pkg, 1, 1, 3)
        with pytest.raises(ValueError):
            swap_dd(pkg, 0, 3, 3)

    def test_operation_dd_special_cases_swap(self, pkg):
        edge = operation_dd(pkg, Operation("swap", (0, 2)), 4)
        assert edge == swap_dd(pkg, 0, 2, 4)

    def test_controlled_swap_uses_generic_path(self, pkg):
        """A Fredkin gate must not hit the uncontrolled special case."""
        fredkin = Operation("swap", (0, 1), (2,))
        circuit = QuantumCircuit(3, operations=[fredkin])
        np.testing.assert_allclose(
            edge_to_matrix(operation_dd(pkg, fredkin, 3), 3, pkg),
            circuit_unitary(circuit),
            atol=1e-12,
        )


class TestPermutationDD:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_random_permutations_match_dense(self, num_qubits, pkg):
        rng = random.Random(num_qubits)
        for _ in range(4):
            wires = list(range(num_qubits))
            rng.shuffle(wires)
            perm = {i: wires[i] for i in range(num_qubits)}
            np.testing.assert_allclose(
                edge_to_matrix(
                    permutation_dd(pkg, perm, num_qubits), num_qubits, pkg
                ),
                permutation_matrix(perm, num_qubits),
                atol=1e-12,
            )

    def test_identity_permutation(self, pkg):
        assert permutation_dd(pkg, {}, 4) == pkg.identity(4)

    def test_partial_permutation_on_wide_register(self, pkg):
        """Low-wire cycles on a wide register match the dense reference."""
        num_qubits = 8
        perm = {0: 2, 2: 1, 1: 0}
        np.testing.assert_allclose(
            edge_to_matrix(permutation_dd(pkg, perm, num_qubits), num_qubits, pkg),
            permutation_matrix(perm, num_qubits),
            atol=1e-12,
        )


class TestApplyOperationToVector:
    def test_vector_kernel_matches_dense_on_stimuli(self, pkg):
        from repro.ec.stimuli import generate_stimulus, prepare_stimulus_state

        rng = random.Random(3)
        for kind in ("classical", "local_quantum", "global_quantum"):
            stimulus = generate_stimulus(kind, 5, 4, rng)
            state = prepare_stimulus_state(pkg, stimulus, 5)
            np.testing.assert_allclose(
                edge_to_vector(state, 5, pkg), statevector(stimulus), atol=1e-9
            )

    def test_step_by_step_matches_dense(self, pkg):
        state = pkg.basis_state(4)
        dense = statevector(QuantumCircuit(4))
        for op in random_circuit(4, 15, seed=11):
            state = apply_operation_to_vector(pkg, state, op)
            dense = operation_unitary(op, 4) @ dense
            np.testing.assert_allclose(
                edge_to_vector(state, 4, pkg), dense, atol=1e-9
            )

    def test_columns_match_single_application(self, pkg):
        """A batch pass equals applying the block to each column alone."""
        columns = [pkg.basis_state(3, bits) for bits in (0, 5, 6)]
        for block in build_blocks(pkg, random_circuit(3, 12, seed=4)):
            expected = [pkg.apply_gate_vector(block, c) for c in columns]
            columns = apply_block_columns(pkg, columns, block)
            assert columns == expected


def _fusion_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """Random gates of every shape a block may hold.

    One- and two-target gates, multi-controlled gates up to the whole
    register, ``swap`` and its controlled form, and arbitrary angles.
    """
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(40):
        kind = rng.choice(
            ["h", "rx", "ry", "u3", "cx", "cp", "swap", "rzz", "rxx",
             "ccx", "mcx", "mcz", "cswap"]
        )
        wires = rng.sample(range(num_qubits), 3)
        angle = rng.uniform(-math.pi, math.pi)
        if kind == "h":
            circuit.h(wires[0])
        elif kind in ("rx", "ry"):
            getattr(circuit, kind)(angle, wires[0])
        elif kind == "u3":
            circuit.u3(angle, rng.uniform(0, math.pi), 0.3, wires[0])
        elif kind in ("cx", "swap"):
            getattr(circuit, kind)(wires[0], wires[1])
        elif kind in ("cp", "rzz", "rxx"):
            getattr(circuit, kind)(angle, wires[0], wires[1])
        elif kind == "ccx":
            circuit.ccx(*wires)
        elif kind == "cswap":
            circuit.cswap(*wires)
        else:
            controls = rng.sample(
                range(num_qubits), rng.randint(1, num_qubits - 1)
            )
            target = rng.choice(
                [q for q in range(num_qubits) if q not in controls]
            )
            getattr(circuit, kind)(controls, target)
    return circuit


FUSION_CASES = [(n, seed) for n in (3, 4, 5, 6) for seed in (0, 1, 2)]


class TestFusedBlocks:
    """Blocks of at most FUSION_WIDTH wires, built once, applied per column."""

    @pytest.mark.parametrize("num_qubits,seed", FUSION_CASES)
    def test_block_pass_matches_dense_unitary(self, pkg, num_qubits, seed):
        circuit = _fusion_circuit(num_qubits, seed)
        columns = [
            pkg.basis_state(num_qubits, bits)
            for bits in range(2**num_qubits)
        ]
        for block in build_blocks(pkg, circuit):
            columns = apply_block_columns(pkg, columns, block)
        dense = circuit_unitary(circuit)
        for bits, column in enumerate(columns):
            np.testing.assert_allclose(
                edge_to_vector(column, num_qubits, pkg),
                dense[:, bits],
                atol=1e-9,
            )

    @pytest.mark.parametrize("num_qubits,seed", FUSION_CASES)
    def test_blocks_cover_the_circuit_in_order(self, num_qubits, seed):
        circuit = _fusion_circuit(num_qubits, seed)
        blocks = fusion_blocks(circuit)
        assert [op for block in blocks for op in block] == list(circuit)
        for block, following in zip(blocks, blocks[1:] + [None]):
            wires = {q for op in block for q in op.qubits}
            assert len(block) == 1 or len(wires) <= FUSION_WIDTH
            if following is not None:
                # Greedy: the next operation would have overflowed.
                assert len(wires | set(following[0].qubits)) > FUSION_WIDTH

    @pytest.mark.parametrize(
        "circuit,sizes",
        [
            # A run on three wires fuses; a fourth wire starts a block.
            (QuantumCircuit(4).h(0).cx(0, 1).t(2).ccx(0, 1, 2).h(3), [4, 1]),
            # An operation wider than the width is a block of its own.
            (QuantumCircuit(5).h(0).mcx([0, 1, 2, 3], 4).h(0), [1, 1, 1]),
        ],
        ids=["three-wire run", "wide operation"],
    )
    def test_block_sizes(self, circuit, sizes):
        assert [len(block) for block in fusion_blocks(circuit)] == sizes

    @pytest.mark.parametrize(
        "num_qubits,seed", [case for case in FUSION_CASES if case[0] >= 5]
    )
    def test_one_operation_block_is_the_compact_gate(
        self, pkg, num_qubits, seed
    ):
        circuit = _fusion_circuit(num_qubits, seed)
        blocks = fusion_blocks(circuit)
        built = build_blocks(pkg, circuit)
        assert len(built) == len(blocks)
        singles = [
            (block[0], edge)
            for block, edge in zip(blocks, built) if len(block) == 1
        ]
        assert singles
        for op, edge in singles:
            assert edge == compact_operation_dd(pkg, op)

    def test_block_is_the_product_of_its_gates(self, pkg):
        circuit = QuantumCircuit(3).h(0).cx(0, 2).rz(0.7, 2).cswap(1, 0, 2)
        (block,) = build_blocks(pkg, circuit)
        assert _level(pkg, block) == 2
        np.testing.assert_allclose(
            edge_to_matrix(block, 3, pkg), circuit_unitary(circuit),
            atol=1e-12,
        )

    def test_building_checks_the_deadline_per_operation(
        self, pkg, monkeypatch
    ):
        import repro.dd.gates as gates

        calls = []
        monkeypatch.setattr(gates, "check_deadline", calls.append)
        circuit = _fusion_circuit(5, 0)
        build_blocks(pkg, circuit, deadline=123.0)
        assert calls == [123.0] * len(circuit)
