"""Tests for the ZX-based checker (`repro.ec.zx_checker`)."""

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.circuit import compiled_ghz_example, ghz_example
from repro.compile import compile_circuit, line_architecture
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec import Configuration, logical_pair, zx_check
from repro.ec.results import Equivalence
from repro.bench.errors import flip_random_cnot, remove_random_gate
from tests.conftest import random_circuit


class TestZXCheck:
    def test_compiled_ghz(self):
        """Paper Example 7: the composed diagram reduces to the expected
        permutation, proving equivalence."""
        result = zx_check(logical_pair(ghz_example(), compiled_ghz_example()))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )
        assert result.statistics["spiders_remaining"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_compiled_random_circuits(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        compiled = compile_circuit(circuit, line_architecture(6))
        result = zx_check(logical_pair(circuit, compiled))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )

    def test_optimized_circuits(self):
        circuit = random_circuit(4, 25, seed=4)
        lowered = decompose_to_basis(circuit)
        optimized = optimize_circuit(lowered, level=2)
        result = zx_check(logical_pair(lowered, optimized))
        assert (
            result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )

    def test_gate_missing_gives_no_information(self):
        """Section 6.2: a stuck reduction is an indication, not a proof."""
        circuit = random_circuit(4, 25, seed=5)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=1)
        result = zx_check(logical_pair(circuit, broken))
        assert result.equivalence in (
            Equivalence.NO_INFORMATION,
            Equivalence.NOT_EQUIVALENT,  # residual permutation case
        )
        assert result.equivalence is not Equivalence.EQUIVALENT
        assert (
            result.equivalence
            is not Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        )

    def test_flipped_cnot_not_accepted(self):
        circuit = random_circuit(4, 25, seed=6)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = flip_random_cnot(compiled, seed=2)
        result = zx_check(logical_pair(circuit, broken))
        assert result.equivalence in (
            Equivalence.NO_INFORMATION,
            Equivalence.NOT_EQUIVALENT,
        )

    def test_wrong_permutation_is_not_equivalent(self):
        a = QuantumCircuit(2)  # identity
        b = QuantumCircuit(2).swap(0, 1)  # claims identity metadata
        result = zx_check(logical_pair(a, b))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_statistics(self):
        circuit = random_circuit(3, 15, seed=7)
        result = zx_check(logical_pair(circuit, circuit.copy()))
        assert result.statistics["initial_spiders"] > 0
        assert result.statistics["zx_rewrites"] > 0
        assert result.strategy == "zx"

    def test_spiders_never_increase(self):
        """The paper's claim: diagram size is bounded by the input."""
        circuit = random_circuit(4, 30, seed=8, gate_set="rotations")
        result = zx_check(logical_pair(circuit, circuit.copy()))
        assert (
            result.statistics["spiders_remaining"]
            <= result.statistics["initial_spiders"]
        )
