"""Tests for the optimization passes (`repro.compile.optimize`)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary, unitaries_equivalent
from repro.compile.optimize import cancel_and_merge_pass, optimize_circuit
from tests.conftest import random_circuit


class TestCancellation:
    def test_adjacent_hadamards_cancel(self):
        circuit = QuantumCircuit(1).h(0).h(0)
        assert len(optimize_circuit(circuit)) == 0

    def test_adjacent_cx_cancel(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1)
        assert len(optimize_circuit(circuit)) == 0

    def test_s_sdg_cancel(self):
        circuit = QuantumCircuit(1).s(0).sdg(0)
        assert len(optimize_circuit(circuit)) == 0

    def test_interleaved_other_qubit_does_not_block(self):
        circuit = QuantumCircuit(2).h(0).x(1).h(0)
        optimized = optimize_circuit(circuit)
        assert optimized.count_ops() == {"x": 1}

    def test_gate_on_shared_qubit_blocks_cancellation(self):
        circuit = QuantumCircuit(2).cx(0, 1).x(1).cx(0, 1)
        optimized = optimize_circuit(circuit)
        assert optimized.count_ops()["cx"] == 2

    def test_cascading_cancellation(self):
        # h x x h collapses completely across rounds
        circuit = QuantumCircuit(1).h(0).x(0).x(0).h(0)
        assert len(optimize_circuit(circuit)) == 0

    def test_mismatched_qubits_not_cancelled(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(1, 0)
        assert len(optimize_circuit(circuit)) == 2


class TestRotationMerging:
    def test_rz_angles_add(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).rz(0.4, 0)
        optimized = optimize_circuit(circuit)
        assert len(optimized) == 1
        assert optimized[0].params[0] == pytest.approx(0.7)

    def test_full_turn_removed(self):
        circuit = QuantumCircuit(1).rz(1.5 * math.pi, 0).rz(0.5 * math.pi, 0)
        assert len(optimize_circuit(circuit)) == 0

    def test_crz_merge(self):
        circuit = QuantumCircuit(2).crz(0.3, 0, 1).crz(-0.3, 0, 1)
        assert len(optimize_circuit(circuit)) == 0

    def test_rzz_merge(self):
        circuit = QuantumCircuit(2).rzz(0.2, 0, 1).rzz(0.3, 0, 1)
        optimized = optimize_circuit(circuit)
        assert len(optimized) == 1
        assert optimized[0].params[0] == pytest.approx(0.5)

    def test_different_axes_not_merged(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).rx(0.4, 0)
        assert len(optimize_circuit(circuit)) == 2


class TestLevels:
    def test_level_zero_is_noop(self):
        circuit = QuantumCircuit(1).h(0).h(0)
        assert len(optimize_circuit(circuit, level=0)) == 2

    def test_level_one_does_not_reorder(self):
        circuit = QuantumCircuit(2).cx(0, 1).z(0).x(1).cx(0, 1)
        assert len(optimize_circuit(circuit, level=1)) == 4

    @pytest.mark.parametrize("level", [-1, 3, 7])
    def test_unknown_level_rejected(self, level):
        with pytest.raises(ValueError, match="optimization level"):
            optimize_circuit(QuantumCircuit(1).h(0).h(0), level=level)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_semantics_preserved(self, level, seed):
        circuit = random_circuit(4, 30, seed=seed)
        optimized = optimize_circuit(circuit, level=level)
        assert unitaries_equivalent(
            circuit_unitary(optimized), circuit_unitary(circuit)
        )

    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_semantics_preserved_on_gate_set(self, level, gate_set):
        circuit = random_circuit(4, 30, seed=3, gate_set=gate_set)
        optimized = optimize_circuit(circuit, level=level)
        assert len(optimized) < len(circuit)
        assert unitaries_equivalent(
            circuit_unitary(optimized), circuit_unitary(circuit)
        )

    def test_level_two_does_not_reorder(self):
        """Nothing moves a gate past another: the CX pair around a Z on
        its control and an X on its target stays."""
        circuit = QuantumCircuit(2).cx(0, 1).z(0).x(1).cx(0, 1)
        assert optimize_circuit(circuit, level=2).count_ops()["cx"] == 2

    def test_level_two_reduces_single_qubit_runs(self):
        circuit = QuantumCircuit(1).h(0).t(0).h(0).t(0).h(0)
        optimized = optimize_circuit(circuit, level=2)
        assert len(optimized) == 1

    def test_metadata_preserved(self):
        circuit = QuantumCircuit(2).h(0).h(0)
        circuit.initial_layout = {0: 1, 1: 0}
        optimized = optimize_circuit(circuit)
        assert optimized.initial_layout == circuit.initial_layout

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimizer_never_grows_circuit(self, seed):
        circuit = random_circuit(3, 20, seed=seed)
        assert len(optimize_circuit(circuit)) <= len(circuit)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimizer_idempotent(self, seed):
        circuit = random_circuit(3, 20, seed=seed)
        once = optimize_circuit(circuit)
        twice = optimize_circuit(once)
        assert once.operations == twice.operations
