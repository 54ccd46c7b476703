"""Tests for permutation handling (`repro.ec.permutations`)."""

import random

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, circuit_unitary, unitaries_equivalent
from repro.circuit.circuit import compiled_ghz_example, ghz_example
from repro.circuit.unitary import permutation_matrix
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.permutations import reconstruct_swaps, to_logical_form
from tests.conftest import random_circuit


class TestReconstructSwaps:
    def test_cnot_triple_becomes_swap(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(1, 0).cx(0, 1)
        rebuilt = reconstruct_swaps(circuit)
        assert rebuilt.count_ops() == {"swap": 1}

    def test_partial_triple_untouched(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(1, 0)
        rebuilt = reconstruct_swaps(circuit)
        assert rebuilt.count_ops() == {"cx": 2}

    def test_same_direction_triple_untouched(self):
        circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        rebuilt = reconstruct_swaps(circuit)
        assert rebuilt.count_ops() == {"cx": 3}

    def test_semantics_preserved(self):
        circuit = random_circuit(3, 10, seed=1).cx(0, 1).cx(1, 0).cx(0, 1)
        rebuilt = reconstruct_swaps(circuit)
        assert unitaries_equivalent(
            circuit_unitary(rebuilt), circuit_unitary(circuit)
        )

    def test_multiple_triples(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 0).cx(0, 1)
        circuit.h(2)
        circuit.cx(1, 2).cx(2, 1).cx(1, 2)
        rebuilt = reconstruct_swaps(circuit)
        assert rebuilt.count_ops()["swap"] == 2


class TestToLogicalForm:
    def test_plain_circuit_unchanged(self):
        # clifford_t circuits contain no SWAPs, so nothing is elided
        circuit = random_circuit(3, 10, seed=2, gate_set="clifford_t")
        logical, stats = to_logical_form(circuit)
        assert logical.operations == circuit.operations
        assert stats["correction_swaps"] == 0

    def test_plain_circuit_with_swaps_stays_equivalent(self):
        circuit = random_circuit(3, 10, seed=2)  # may contain SWAPs
        logical, _ = to_logical_form(circuit)
        assert unitaries_equivalent(
            circuit_unitary(logical), circuit_unitary(circuit)
        )

    def test_width_extension(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        logical, _ = to_logical_form(circuit, num_qubits=4)
        assert logical.num_qubits == 4

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            to_logical_form(QuantumCircuit(3), num_qubits=2)

    def test_swaps_elided(self):
        circuit = QuantumCircuit(2).swap(0, 1)
        circuit.output_permutation = {0: 1, 1: 0}
        logical, stats = to_logical_form(circuit)
        assert stats["swaps_elided"] == 1
        assert len(logical) == 0  # swap matches declared permutation

    def test_correction_swaps_added_on_mismatch(self):
        circuit = QuantumCircuit(2).swap(0, 1)  # metadata claims identity
        logical, stats = to_logical_form(circuit)
        assert stats["correction_swaps"] == 1

    def test_logical_form_semantics(self):
        """P_out† U' P_in == U_logical for the compiled GHZ example."""
        compiled = compiled_ghz_example()
        logical, stats = to_logical_form(compiled)
        assert stats["swaps_reconstructed"] == 1
        expected = np.kron(np.eye(4), circuit_unitary(ghz_example()))
        assert unitaries_equivalent(circuit_unitary(logical), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_circuit_logical_form_matches_original(self, seed):
        circuit = random_circuit(4, 15, seed=seed, gate_set="clifford_t")
        compiled = compile_circuit(circuit, line_architecture(6))
        logical, _ = to_logical_form(compiled)
        expected = np.kron(np.eye(4), circuit_unitary(circuit))
        assert unitaries_equivalent(circuit_unitary(logical), expected)


#: Every proving strategy must fold layout metadata the same way.
_STRATEGIES = ("construction", "alternating", "zx", "simulation")


class TestPermutationsAcrossStrategies:
    """SWAP-relabeled and routed mutant pairs through every strategy.

    Regression net for the permutation-folding path: the metamorphic
    mutators declare layouts exactly the way the compiler does, so a
    checker that mishandles ``initial_layout`` / ``output_permutation``
    flips these known-equivalent pairs to NOT_EQUIVALENT.
    """

    def _check(self, circuit1, circuit2, strategy):
        config = Configuration(strategy=strategy, timeout=20.0, seed=0)
        return EquivalenceCheckingManager(circuit1, circuit2, config).run()

    @pytest.mark.parametrize("strategy", _STRATEGIES + ("stabilizer",))
    @pytest.mark.parametrize("seed", range(3))
    def test_swap_relabeled_pair_equivalent(self, strategy, seed):
        from repro.fuzz.mutators import swap_relabel

        base = random_circuit(4, 12, seed=seed, gate_set="clifford_t")
        if strategy == "stabilizer":
            base = QuantumCircuit(
                4,
                operations=[
                    op for op in base if op.name not in ("t", "tdg")
                ],
            )
        mutant, label, _ = swap_relabel(base, random.Random(seed))
        assert label == "equivalent"
        result = self._check(base, mutant, strategy)
        assert result.considered_equivalent, (
            f"{strategy} rejected a relabeled pair: {result.equivalence}"
        )

    @pytest.mark.parametrize("strategy", _STRATEGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_routed_pair_with_final_layout_equivalent(self, strategy, seed):
        from repro.fuzz.mutators import routed_swaps

        base = random_circuit(4, 12, seed=seed, gate_set="clifford_t")
        mutant, label, witness = routed_swaps(base, random.Random(seed))
        assert label == "equivalent"
        assert witness["swaps"]
        result = self._check(base, mutant, strategy)
        assert result.considered_equivalent, (
            f"{strategy} rejected a routed pair: {result.equivalence}"
        )

    @pytest.mark.parametrize("strategy", _STRATEGIES)
    def test_compiled_circuit_with_final_layout(self, strategy):
        # The real compiler path: routing onto a line leaves both an
        # initial layout and a final-layout output permutation.
        circuit = random_circuit(4, 14, seed=9, gate_set="clifford_t")
        compiled = compile_circuit(circuit, line_architecture(5))
        assert compiled.initial_layout or compiled.output_permutation
        result = self._check(circuit, compiled, strategy)
        assert result.considered_equivalent

    def test_relabeled_pair_not_equivalent_without_metadata(self):
        # Sanity: stripping the declared layout must break equivalence,
        # proving the tests above exercise the folding path at all.
        from repro.fuzz.mutators import swap_relabel

        base = random_circuit(3, 10, seed=1, gate_set="clifford_t")
        mutant, _, _ = swap_relabel(base, random.Random(1))
        stripped = mutant.copy()
        stripped.initial_layout = {}
        stripped.output_permutation = {}
        result = self._check(base, stripped, "alternating")
        assert not result.considered_equivalent
