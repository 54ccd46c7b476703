"""Tests for state-preparation equivalence (`repro.ec.state_checker`)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.compile import compile_circuit, line_architecture
from repro.ec import (
    Configuration,
    EquivalenceCheckingManager,
    logical_pair,
    state_check,
)
from repro.ec.results import Equivalence
from tests.conftest import random_circuit


class TestStateCheck:
    def test_same_circuit(self):
        circuit = random_circuit(3, 15, seed=1)
        result = state_check(logical_pair(circuit, circuit.copy()))
        assert result.equivalence is Equivalence.EQUIVALENT
        assert result.statistics["same_canonical_node"]

    def test_different_preparations_of_same_state(self):
        """Unitarily different circuits preparing the same Bell state."""
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(1).cx(1, 0)
        unitary_result = EquivalenceCheckingManager(
            a, b, Configuration(strategy="alternating")
        ).run()
        assert unitary_result.equivalence is Equivalence.NOT_EQUIVALENT
        state_result = state_check(logical_pair(a, b))
        assert state_result.considered_equivalent

    def test_global_phase_distinguished_from_exact(self):
        a = QuantumCircuit(1).x(0)
        b = QuantumCircuit(1).z(0).x(0)  # |1> with no phase vs -? careful
        # X|0> = |1>; Z then X gives |1> as well (Z acts on |0> trivially)
        result = state_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.EQUIVALENT
        c = QuantumCircuit(1).x(0).z(0)  # X then Z: -|1>
        result = state_check(logical_pair(a, c))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )

    def test_different_states_rejected(self):
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).h(0)
        result = state_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.statistics["fidelity"] == pytest.approx(0.5)

    def test_compiled_state_preparation(self):
        from repro.bench.algorithms import ghz_state

        original = ghz_state(5)
        compiled = compile_circuit(original, line_architecture(7))
        result = state_check(logical_pair(original, compiled))
        assert result.considered_equivalent

    def test_manager_dispatch(self):
        circuit = random_circuit(3, 10, seed=2)
        result = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="state")
        ).run()
        assert result.strategy == "state"
        assert result.considered_equivalent

    def test_state_dd_stays_compact_for_ghz(self):
        from repro.bench.algorithms import ghz_state

        result = state_check(logical_pair(ghz_state(16), ghz_state(16)))
        assert result.statistics["max_state_dd_size"] <= 2 * 16
