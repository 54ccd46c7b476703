"""Cross-engine agreement sweep: array vs object DD kernels.

The array engine must be *bit-identical* to the object engine, not just
numerically close: built over one shared complex table, both engines'
circuit DDs must have equal canonical signatures on every fuzz family,
and every checker strategy must return the same verdict whichever engine
``Configuration.array_dd`` selects.  This mirrors the incremental-ZX
agreement sweep (`tests/zx/test_incremental.py`) for the DD substrate.
"""

import math
import random

import pytest

from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.dd import (
    ArrayDDPackage,
    ComplexTable,
    DDPackage,
    matrix_signature,
    vector_signature,
)
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.permutations import to_logical_form
from repro.fuzz.generator import FAMILIES, random_family_circuit

#: Checker strategies exercised for verdict agreement (Table 1 columns
#: that run on the DD substrate, plus the combined flow).
_STRATEGIES = ("construction", "alternating", "simulation", "combined")


def _family_circuit(family, seed, num_qubits=4, num_gates=24):
    rng = random.Random(seed)
    circuit = random_family_circuit(
        family, rng, num_qubits=num_qubits, num_gates=num_gates
    )
    if is_symbolic_circuit(circuit):
        # DDs build dense gate matrices, so the parameterized family is
        # swept at a seeded concrete valuation.
        valuation = {
            name: rng.uniform(-math.pi, math.pi)
            for name in circuit_parameters(circuit)
        }
        circuit = instantiate_circuit(circuit, valuation)
    return circuit


def _variant(circuit, kind, seed):
    if kind == "equivalent":
        return circuit.copy()
    if kind == "gate_missing":
        return remove_random_gate(circuit, seed=seed)
    if kind == "flipped_cnot":
        return flip_random_cnot(circuit, seed=seed)
    raise ValueError(kind)


class TestBitIdenticalRoots:
    """Shared-table signatures equal on every fuzz family."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_roots_identical(self, family, seed):
        circuit = _family_circuit(family, seed)
        n = circuit.num_qubits
        logical, _ = to_logical_form(circuit, n)
        table = ComplexTable()
        obj = DDPackage(complex_table=table)
        arr = ArrayDDPackage(complex_table=table)
        obj_root = circuit_dd(obj, logical)
        arr_root = circuit_dd(arr, logical)
        assert matrix_signature(obj_root) == matrix_signature(arr_root, arr)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_vector_roots_identical(self, family, seed):
        circuit = _family_circuit(family, seed)
        table = ComplexTable()
        obj = DDPackage(complex_table=table)
        arr = ArrayDDPackage(complex_table=table)
        obj_state = simulate_circuit_dd(obj, circuit)
        arr_state = simulate_circuit_dd(arr, circuit)
        assert vector_signature(obj_state) == vector_signature(
            arr_state, arr
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_legacy_kernel_path_identical_too(self, family):
        """The full-height multiply path agrees across engines as well."""
        circuit = _family_circuit(family, 7, num_gates=12)
        n = circuit.num_qubits
        logical, _ = to_logical_form(circuit, n)
        table = ComplexTable()
        obj = DDPackage(complex_table=table)
        arr = ArrayDDPackage(complex_table=table)
        obj_root = circuit_dd(obj, logical, direct=False)
        arr_root = circuit_dd(arr, logical, direct=False)
        assert matrix_signature(obj_root) == matrix_signature(arr_root, arr)


class TestVerdictAgreement:
    """Same verdict from both engines on every strategy and variant."""

    @pytest.mark.parametrize("strategy", _STRATEGIES)
    @pytest.mark.parametrize(
        "kind", ("equivalent", "gate_missing", "flipped_cnot")
    )
    def test_strategy_verdicts_agree(self, strategy, kind):
        # The trailing CNOT guarantees flip_random_cnot has a target.
        circuit = _family_circuit("clifford_t", 11).cx(0, 1)
        other = _variant(circuit, kind, 11)
        verdicts = []
        for array_dd in (False, True):
            config = Configuration(
                strategy=strategy, seed=5, num_simulations=8,
                array_dd=array_dd,
            )
            result = EquivalenceCheckingManager(
                circuit, other, config
            ).run()
            verdicts.append(result.equivalence)
        assert verdicts[0] is verdicts[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_verdicts_agree(self, family):
        circuit = _family_circuit(family, 13)
        broken = remove_random_gate(circuit, seed=13)
        for other in (circuit.copy(), broken):
            verdicts = []
            for array_dd in (False, True):
                config = Configuration(
                    strategy="alternating", seed=3, array_dd=array_dd
                )
                result = EquivalenceCheckingManager(
                    circuit, other, config
                ).run()
                verdicts.append(result.equivalence)
            assert verdicts[0] is verdicts[1]

    def test_simulation_digest_identical_across_engines(self):
        """Both engines run one simulation loop on the very same stimuli."""
        circuit = _family_circuit("clifford_t", 17)
        digests = []
        for array_dd in (False, True):
            config = Configuration(
                strategy="simulation", seed=9, num_simulations=6,
                array_dd=array_dd,
            )
            result = EquivalenceCheckingManager(
                circuit, circuit.copy(), config
            ).run()
            digests.append(result.statistics["stimuli_digest"])
        assert digests[0] == digests[1]
