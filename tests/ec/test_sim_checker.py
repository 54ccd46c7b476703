"""Tests for the random-stimuli simulation checker (`repro.ec.sim_checker`)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, simulation_check
from repro.ec.results import Equivalence
from repro.bench.errors import flip_random_cnot, remove_random_gate
from tests.conftest import random_circuit


class TestSimulationCheck:
    def test_equivalent_circuits_probably_equivalent(self):
        circuit = random_circuit(4, 20, seed=1)
        result = simulation_check(
            circuit, circuit.copy(), Configuration(seed=7)
        )
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
        assert result.statistics["simulations_run"] == 16
        assert result.statistics["min_fidelity"] == pytest.approx(1.0)

    def test_compiled_circuit_accepted(self):
        circuit = random_circuit(4, 20, seed=2)
        compiled = compile_circuit(circuit, line_architecture(6))
        result = simulation_check(circuit, compiled, Configuration(seed=7))
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT

    def test_gate_missing_found_quickly(self):
        """Paper Section 6.2: errors show up within a few simulations."""
        circuit = random_circuit(4, 30, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        result = simulation_check(circuit, broken, Configuration(seed=7))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        # Stimuli run in batches of 1, 1, 2, 4, 8 and the check stops
        # after the batch holding the first mismatch, so a quick find
        # also means few stimuli simulated.
        assert result.statistics["first_mismatch"] <= 4
        assert result.statistics["simulations_run"] <= 4

    def test_flipped_cnot_found(self):
        circuit = random_circuit(4, 30, seed=4)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = flip_random_cnot(compiled, seed=4)
        result = simulation_check(circuit, broken, Configuration(seed=7))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_number_of_simulations_respected(self):
        circuit = random_circuit(3, 10, seed=5)
        config = Configuration(num_simulations=3, seed=1)
        result = simulation_check(circuit, circuit.copy(), config)
        assert result.statistics["simulations_run"] == 3

    def test_seed_reproducibility(self):
        circuit = random_circuit(4, 20, seed=6)
        broken = remove_random_gate(circuit, seed=0)
        first = simulation_check(circuit, broken, Configuration(seed=42))
        second = simulation_check(circuit, broken, Configuration(seed=42))
        assert (
            first.statistics["simulations_run"]
            == second.statistics["simulations_run"]
        )

    def test_global_phase_difference_not_flagged(self):
        a = QuantumCircuit(1).x(0).z(0)
        b = QuantumCircuit(1).z(0).x(0)
        result = simulation_check(a, b, Configuration(seed=1))
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT

    def test_stimuli_digest_reproducible(self):
        """Same seed ⇒ byte-identical stimuli sequence (and verdict)."""
        circuit = random_circuit(4, 20, seed=8)
        first = simulation_check(circuit, circuit.copy(), Configuration(seed=11))
        second = simulation_check(circuit, circuit.copy(), Configuration(seed=11))
        assert (
            first.statistics["stimuli_digest"]
            == second.statistics["stimuli_digest"]
        )
        assert first.equivalence is second.equivalence

    def test_stimuli_digest_differs_across_seeds(self):
        circuit = random_circuit(4, 20, seed=8)
        a = simulation_check(circuit, circuit.copy(), Configuration(seed=1))
        b = simulation_check(circuit, circuit.copy(), Configuration(seed=2))
        assert a.statistics["stimuli_digest"] != b.statistics["stimuli_digest"]

    @pytest.mark.parametrize(
        "stimuli", ("classical", "local_quantum", "global_quantum")
    )
    def test_stimuli_digest_reproducible_per_type(self, stimuli):
        circuit = random_circuit(3, 12, seed=9)
        config = Configuration(seed=5, stimuli_type=stimuli, num_simulations=4)
        first = simulation_check(circuit, circuit.copy(), config)
        second = simulation_check(circuit, circuit.copy(), config)
        assert (
            first.statistics["stimuli_digest"]
            == second.statistics["stimuli_digest"]
        )

    def test_stimuli_digest_identical_under_isolation(self):
        """The reproducibility contract holds across process boundaries:
        an in-process run and a sandboxed subprocess run with the same
        seed must report the same digest and verdict."""
        from repro.harness import run_check

        circuit = random_circuit(3, 15, seed=10)
        config = Configuration(strategy="simulation", seed=21, timeout=30.0)
        inline = simulation_check(circuit, circuit.copy(), config)
        isolated = run_check(circuit, circuit.copy(), config, isolate=True)
        assert isolated.failure is None
        assert (
            inline.statistics["stimuli_digest"]
            == isolated.statistics["stimuli_digest"]
        )
        assert inline.equivalence is isolated.equivalence

    def test_phase_error_invisible_to_classical_stimuli(self):
        """A diagonal error after the final H layer can hide from basis
        states only if it commutes with them; a Z on a plain wire does
        not change basis-state amplitudes' magnitude — documenting the
        known blind spot of purely classical stimuli."""
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).z(0)
        result = simulation_check(a, b, Configuration(seed=1))
        # |<x|Z|x>| = 1 for basis states: simulation cannot distinguish.
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
