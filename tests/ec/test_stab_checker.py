"""Tests for the Clifford stabilizer checker (`repro.ec.stab_checker`)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.compile import compile_circuit, line_architecture
from repro.ec import (
    Configuration,
    EquivalenceCheckingManager,
    logical_pair,
    stabilizer_check,
)
from repro.ec.results import Equivalence
from tests.stab.test_tableau import clifford_circuit


class TestStabilizerCheck:
    def test_equivalent_clifford_pair(self):
        circuit = clifford_circuit(4, 25, seed=1)
        result = stabilizer_check(logical_pair(circuit, circuit.copy()))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )
        assert result.statistics["same_output_state"]

    def test_non_equivalent_clifford_pair(self):
        a = QuantumCircuit(2).cx(0, 1)
        b = QuantumCircuit(2).cx(1, 0)
        result = stabilizer_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_compiled_clifford_circuit(self):
        """Layout/permutation handling works for this checker too."""
        circuit = clifford_circuit(4, 20, seed=2)
        compiled = compile_circuit(
            circuit,
            line_architecture(6),
            optimization_level=0,
            decompose_swaps=True,
        )
        # the compiled circuit is in the u3/cx basis: u3 makes it
        # non-Clifford for the tableau -> NO_INFORMATION
        result = stabilizer_check(logical_pair(circuit, compiled))
        assert result.equivalence is Equivalence.NO_INFORMATION

    def test_routed_clifford_circuit(self):
        """Routing without basis rewrite keeps the circuit Clifford."""
        from repro.compile.routing import route_circuit

        circuit = clifford_circuit(4, 20, seed=3)
        routed = route_circuit(circuit, line_architecture(6))
        result = stabilizer_check(logical_pair(circuit, routed))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )

    def test_non_clifford_gives_no_information(self):
        circuit = QuantumCircuit(1).t(0)
        result = stabilizer_check(logical_pair(circuit, circuit.copy()))
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert "reason" in result.statistics

    def test_manager_dispatch(self):
        circuit = clifford_circuit(3, 15, seed=4)
        result = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="stabilizer")
        ).run()
        assert result.considered_equivalent
        assert result.strategy == "stabilizer"

    def test_cross_validation_with_dd(self):
        """The tableau verdict agrees with the DD verdict on Clifford pairs."""
        from repro.ec import alternating_dd_check

        for seed in range(5):
            a = clifford_circuit(3, 15, seed=seed)
            b = clifford_circuit(3, 15, seed=seed + 50)
            stab = stabilizer_check(logical_pair(a, b)).considered_equivalent
            dd = alternating_dd_check(logical_pair(a, b)).considered_equivalent
            assert stab == dd, seed
