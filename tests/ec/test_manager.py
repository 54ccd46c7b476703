"""Tests for the equivalence-checking manager (`repro.ec.manager`)."""

import pytest

from repro import verify
from repro.circuit import QuantumCircuit
from repro.circuit.circuit import compiled_ghz_example, ghz_example
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.bench.errors import remove_random_gate
from tests.conftest import random_circuit

ALL_STRATEGIES = ["construction", "alternating", "simulation", "zx", "combined"]


class TestStrategyDispatch:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_equivalent_pair(self, strategy):
        result = EquivalenceCheckingManager(
            ghz_example(),
            compiled_ghz_example(),
            Configuration(strategy=strategy, seed=1),
        ).run()
        assert result.considered_equivalent

    @pytest.mark.parametrize("strategy", ["alternating", "simulation", "combined"])
    def test_non_equivalent_pair(self, strategy):
        circuit = random_circuit(4, 25, seed=1)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=5)
        result = EquivalenceCheckingManager(
            circuit, broken, Configuration(strategy=strategy, seed=1)
        ).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceCheckingManager(
                QuantumCircuit(1),
                QuantumCircuit(1),
                Configuration(strategy="magic"),
            )

    def test_invalid_oracle_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceCheckingManager(
                QuantumCircuit(1),
                QuantumCircuit(1),
                Configuration(oracle="psychic"),
            )


class TestCombinedStrategy:
    def test_early_exit_on_simulation_counterexample(self):
        circuit = random_circuit(4, 30, seed=2)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        result = EquivalenceCheckingManager(
            circuit, broken, Configuration(strategy="combined", seed=1)
        ).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.strategy == "combined"
        # the falsifying simulation count is surfaced
        assert result.statistics["simulations_run"] >= 1

    def test_proof_comes_from_alternating(self):
        circuit = random_circuit(4, 20, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        result = EquivalenceCheckingManager(
            circuit, compiled, Configuration(strategy="combined", seed=1)
        ).run()
        assert result.proven
        assert result.considered_equivalent

    def test_simulation_stage_record_survives_the_proof(self):
        circuit = random_circuit(4, 20, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        config = Configuration(
            strategy="combined", seed=1, static_analysis=False
        )
        result = EquivalenceCheckingManager(circuit, compiled, config).run()
        assert result.proven
        simulation = EquivalenceCheckingManager(
            circuit, compiled, Configuration(strategy="simulation", seed=1)
        ).run()
        block = result.statistics["simulation"]
        assert block["simulations_run"] == 16
        assert result.statistics["simulations_run"] == 16
        assert block["stimuli_digest"] == simulation.statistics["stimuli_digest"]
        assert block["active_qubits"] == 4
        assert 0 < block["seconds"] <= result.time
        assert "first_mismatch" not in block

    def test_no_simulation_block_when_simulation_decides(self):
        circuit = random_circuit(4, 30, seed=2)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        config = Configuration(
            strategy="combined", seed=1, static_analysis=False
        )
        result = EquivalenceCheckingManager(circuit, broken, config).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert "simulation" not in result.statistics
        assert result.statistics["first_mismatch"] >= 1


class TestTimeout:
    def test_timeout_result(self):
        circuit = random_circuit(5, 60, seed=4)
        compiled = compile_circuit(circuit, line_architecture(7))
        result = EquivalenceCheckingManager(
            circuit,
            compiled,
            Configuration(strategy="combined", timeout=1e-4),
        ).run()
        assert result.equivalence is Equivalence.TIMEOUT
        assert not result.considered_equivalent
        assert not result.proven

    def test_zx_timeout(self):
        circuit = random_circuit(5, 60, seed=5)
        result = EquivalenceCheckingManager(
            circuit,
            circuit.copy(),
            Configuration(strategy="zx", timeout=1e-6),
        ).run()
        assert result.equivalence is Equivalence.TIMEOUT


class TestVerifyHelper:
    def test_package_level_verify(self):
        assert verify(ghz_example(), compiled_ghz_example()).considered_equivalent

    def test_verify_with_config(self):
        result = verify(
            ghz_example(),
            compiled_ghz_example(),
            Configuration(strategy="zx"),
        )
        assert result.considered_equivalent


class TestResultProperties:
    def test_result_string(self):
        result = verify(ghz_example(), compiled_ghz_example())
        text = str(result)
        assert "combined" in text

    def test_probably_equivalent_not_proven(self):
        circuit = random_circuit(3, 10, seed=6)
        result = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="simulation")
        ).run()
        assert result.considered_equivalent
        assert not result.proven
