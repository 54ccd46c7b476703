"""Tests for random stimuli generation (`repro.ec.stimuli`)."""

import random

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, statevector
from repro.ec import Configuration, logical_pair, simulation_check
from repro.ec.results import Equivalence
from repro.ec.stimuli import (
    STIMULI_TYPES,
    classical_stimulus,
    generate_stimulus,
    global_quantum_stimulus,
    local_quantum_stimulus,
)


class TestGenerators:
    def test_classical_is_basis_state(self):
        rng = random.Random(3)
        state = statevector(classical_stimulus(4, 4, rng))
        probabilities = np.abs(state) ** 2
        assert np.max(probabilities) == pytest.approx(1.0)

    def test_classical_respects_data_qubits(self):
        rng = random.Random(1)
        for _ in range(10):
            circuit = classical_stimulus(6, 3, rng)
            assert all(op.targets[0] < 3 for op in circuit)

    def test_local_is_product_state(self):
        """Every qubit's reduced state stays pure (product structure)."""
        rng = random.Random(5)
        state = statevector(local_quantum_stimulus(3, 3, rng)).reshape(
            2, 2, 2
        )
        # Schmidt rank across every bipartition must be 1
        for axis in range(3):
            matrix = np.moveaxis(state, axis, 0).reshape(2, 4)
            singular_values = np.linalg.svd(matrix, compute_uv=False)
            assert singular_values[1] == pytest.approx(0.0, abs=1e-12)

    def test_global_is_normalized_and_touches_all(self):
        rng = random.Random(7)
        circuit = global_quantum_stimulus(5, 5, rng)
        state = statevector(circuit)
        assert np.linalg.norm(state) == pytest.approx(1.0)
        # the CNOT tree spans all data qubits
        assert circuit.count_ops().get("cx", 0) == 4

    def test_generate_dispatch(self):
        rng = random.Random(0)
        for kind in STIMULI_TYPES:
            circuit = generate_stimulus(kind, 3, 3, rng)
            assert circuit.num_qubits == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_stimulus("telepathic", 2, 2)

    def test_deterministic_with_seeded_rng(self):
        a = generate_stimulus("global_quantum", 4, 4, random.Random(9))
        b = generate_stimulus("global_quantum", 4, 4, random.Random(9))
        assert a.operations == b.operations


class TestStimuliPower:
    """The discriminating-power hierarchy from reference [45]."""

    def test_phase_error_caught_by_classical(self):
        """A bare Z error never changes a basis state's fidelity, but
        the overlaps of |0> and |1> differ in sign."""
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).z(0)
        result = simulation_check(
            logical_pair(a, b), Configuration(stimuli_type="classical", seed=0)
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.statistics["min_fidelity"] == pytest.approx(1.0)
        assert result.statistics["first_mismatch"] == 2

    @pytest.mark.parametrize("kind", ["local_quantum", "global_quantum"])
    def test_phase_error_caught_by_quantum_stimuli(self, kind):
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).z(0)
        result = simulation_check(
            logical_pair(a, b), Configuration(stimuli_type=kind, seed=0)
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    @pytest.mark.parametrize("kind", STIMULI_TYPES)
    def test_equivalent_circuits_pass_all_kinds(self, kind):
        from tests.conftest import random_circuit

        circuit = random_circuit(3, 15, seed=4)
        result = simulation_check(
            logical_pair(circuit, circuit.copy()),
            Configuration(stimuli_type=kind, num_simulations=4, seed=0),
        )
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT

    @pytest.mark.parametrize("kind", STIMULI_TYPES)
    def test_bitflip_error_caught_by_all_kinds(self, kind):
        from tests.conftest import random_circuit

        circuit = random_circuit(3, 15, seed=5)
        broken = circuit.copy().x(1)
        result = simulation_check(
            logical_pair(circuit, broken),
            Configuration(stimuli_type=kind, seed=0),
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_invalid_type_rejected_by_configuration(self):
        with pytest.raises(ValueError):
            Configuration(stimuli_type="psychic").validate()
