"""Tests for the DD-based checkers (`repro.ec.dd_checker`)."""

import time

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.circuit import compiled_ghz_example, ghz_example
from repro.compile import compile_circuit, line_architecture
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec import (
    AlternatingChecker,
    Configuration,
    ConstructionChecker,
    alternating_dd_check,
    construction_dd_check,
    logical_pair,
)
from repro.ec.results import Equivalence
from repro.errors import CheckTimeout
from repro.bench.errors import flip_random_cnot, remove_random_gate
from tests.conftest import random_circuit

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


class TestConstructionChecker:
    def test_identical_circuits(self):
        circuit = random_circuit(3, 15, seed=1)
        result = construction_dd_check(logical_pair(circuit, circuit.copy()))
        assert result.equivalence is Equivalence.EQUIVALENT

    def test_global_phase_detected(self):
        a = QuantumCircuit(1).x(0).z(0)
        b = QuantumCircuit(1).z(0).x(0)  # differs by -1
        result = construction_dd_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE

    def test_not_equivalent(self):
        a = QuantumCircuit(2).cx(0, 1)
        b = QuantumCircuit(2).cx(1, 0)
        result = construction_dd_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_statistics_reported(self):
        circuit = random_circuit(3, 10, seed=2)
        result = construction_dd_check(logical_pair(circuit, circuit.copy()))
        assert result.statistics["dd_size_1"] >= 1
        assert result.strategy == "construction"


class TestAlternatingChecker:
    @pytest.mark.parametrize("oracle", ["naive", "proportional", "lookahead"])
    def test_compiled_ghz(self, oracle):
        result = alternating_dd_check(
            logical_pair(ghz_example(), compiled_ghz_example()),
            Configuration(strategy="alternating", oracle=oracle),
        )
        assert result.equivalence in POSITIVE

    @pytest.mark.parametrize("oracle", ["naive", "proportional", "lookahead"])
    @pytest.mark.parametrize("seed", range(2))
    def test_compiled_random_circuits(self, oracle, seed):
        circuit = random_circuit(4, 15, seed=seed)
        compiled = compile_circuit(circuit, line_architecture(6))
        result = alternating_dd_check(
            logical_pair(circuit, compiled), Configuration(oracle=oracle)
        )
        assert result.equivalence in POSITIVE

    def test_optimized_circuits(self):
        circuit = random_circuit(4, 25, seed=4)
        lowered = decompose_to_basis(circuit)
        optimized = optimize_circuit(lowered, level=2)
        result = alternating_dd_check(logical_pair(lowered, optimized))
        assert result.equivalence in POSITIVE

    def test_gate_missing_detected(self):
        circuit = random_circuit(4, 25, seed=5)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=1)
        result = alternating_dd_check(logical_pair(circuit, broken))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_flipped_cnot_detected(self):
        circuit = random_circuit(4, 25, seed=6)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = flip_random_cnot(compiled, seed=2)
        result = alternating_dd_check(logical_pair(circuit, broken))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_alternation_keeps_dd_small(self):
        """Fig. 4's point: the product stays near identity throughout."""
        circuit = random_circuit(4, 30, seed=7, gate_set="clifford_t")
        compiled = compile_circuit(circuit, line_architecture(6))
        config = Configuration(strategy="alternating", trace_sizes=True)
        result = alternating_dd_check(logical_pair(circuit, compiled), config)
        assert result.equivalence in POSITIVE
        trace = result.statistics["dd_size_trace"]
        assert trace  # recorded
        assert result.statistics["max_dd_size"] <= 64

    def test_construction_grows_larger_than_alternating(self):
        """The alternating scheme dominates naive construction in size."""
        circuit = random_circuit(5, 40, seed=8)
        compiled = compile_circuit(circuit, line_architecture(7))
        config = Configuration(trace_sizes=True)
        alternating = AlternatingChecker(
            logical_pair(circuit, compiled), config
        ).run()
        construction = ConstructionChecker(
            logical_pair(circuit, compiled), config
        ).run()
        assert (
            alternating.statistics["max_dd_size"]
            <= construction.statistics["max_dd_size"]
        )

    def test_hilbert_schmidt_statistic(self):
        circuit = random_circuit(3, 10, seed=9)
        result = alternating_dd_check(logical_pair(circuit, circuit.copy()))
        assert result.statistics["hilbert_schmidt_fidelity"] == pytest.approx(
            1.0
        )

    def test_timeout_raised(self):
        circuit = random_circuit(4, 50, seed=10)
        checker = AlternatingChecker(logical_pair(circuit, circuit.copy()))
        with pytest.raises(CheckTimeout) as raised:
            checker.run(deadline=time.monotonic() - 1.0)
        assert raised.value.diagnostics["hard"] is False

    def test_width_mismatch_handled(self):
        narrow = QuantumCircuit(2).h(0).cx(0, 1)
        wide = QuantumCircuit(4).h(0).cx(0, 1)
        result = alternating_dd_check(logical_pair(narrow, wide))
        assert result.equivalence in POSITIVE


class TestCompilationFlowOracle:
    def test_verifies_compiled_circuits(self):
        from repro.bench.algorithms import grover

        original = grover(4)
        compiled = compile_circuit(original, line_architecture(6))
        result = alternating_dd_check(
            logical_pair(original, compiled),
            Configuration(strategy="alternating", oracle="compilation_flow"),
        )
        assert result.equivalence in POSITIVE

    def test_keeps_dd_at_least_as_small_as_naive(self):
        from repro.bench.algorithms import qft

        original = qft(5)
        compiled = compile_circuit(original, line_architecture(7))
        sizes = {}
        for oracle in ("naive", "compilation_flow"):
            config = Configuration(
                strategy="alternating", oracle=oracle, trace_sizes=True
            )
            result = alternating_dd_check(
                logical_pair(original, compiled), config
            )
            assert result.equivalence in POSITIVE
            sizes[oracle] = result.statistics["max_dd_size"]
        assert sizes["compilation_flow"] <= sizes["naive"]

    def test_detects_errors_too(self):
        circuit = random_circuit(4, 20, seed=12)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        result = alternating_dd_check(
            logical_pair(circuit, broken),
            Configuration(strategy="alternating", oracle="compilation_flow"),
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
