"""The DD checkers run on the active register only, exactly.

Wires above :func:`repro.ec.permutations.active_width` are ``|0>`` (or
the identity) in both circuits, so dropping them must reproduce the
dense-unitary verdict on the declared register.  All pairs here stay at
or below 10 qubits so the truth is an explicit matrix.
"""

import numpy as np
import pytest

from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit import QuantumCircuit, circuit_unitary
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, simulation_check
from repro.ec.dd_checker import AlternatingChecker, ConstructionChecker
from repro.ec.permutations import active_width, to_logical_form
from repro.ec.results import Equivalence
from repro.ec.state_checker import state_check
from tests.conftest import random_circuit

POSITIVE = {
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
}


def _dense_unitaries(circuit1, circuit2):
    n = max(circuit1.num_qubits, circuit2.num_qubits)
    return tuple(
        circuit_unitary(to_logical_form(circuit, n)[0])
        for circuit in (circuit1, circuit2)
    )


def _dense_equivalent(circuit1, circuit2) -> bool:
    u1, u2 = _dense_unitaries(circuit1, circuit2)
    return bool(abs(abs(np.trace(u1.conj().T @ u2)) / len(u1) - 1.0) < 1e-8)


def _dense_same_state(circuit1, circuit2) -> bool:
    u1, u2 = _dense_unitaries(circuit1, circuit2)
    return bool(abs(abs(np.vdot(u1[:, 0], u2[:, 0])) ** 2 - 1.0) < 1e-8)


def _checkers(circuit1, circuit2, config):
    yield "simulation", simulation_check(circuit1, circuit2, config)
    yield "alternating", AlternatingChecker(circuit1, circuit2, config).run()
    yield "construction", ConstructionChecker(circuit1, circuit2, config).run()


class TestActiveWidth:
    def test_width_is_one_past_the_highest_touched_wire(self):
        a = QuantumCircuit(9).h(0).cx(0, 2)
        b = QuantumCircuit(9).x(4)
        assert active_width(a, b) == 5
        assert active_width(a, a) == 3
        assert active_width(a, a, floor=4) == 4
        assert active_width(QuantumCircuit(9), QuantumCircuit(9)) == 0


class TestPaddedCompiledPairs:
    @pytest.mark.parametrize("variant", ("equivalent", "missing", "flipped"))
    def test_dense_verdict_on_every_dd_checker(self, variant):
        original = random_circuit(4, 24, seed=31, gate_set="clifford_t")
        compiled = compile_circuit(original, line_architecture(9))
        assert compiled.num_qubits == 9
        other = {
            "equivalent": compiled,
            "missing": remove_random_gate(compiled, seed=2),
            "flipped": flip_random_cnot(compiled, seed=2),
        }[variant]
        expected = _dense_equivalent(original, other)
        assert expected is (variant == "equivalent")
        config = Configuration(seed=0, stimuli_type="global_quantum")
        for name, result in _checkers(original, other, config):
            assert result.statistics["active_qubits"] == 4, name
            if name == "simulation":
                assert (
                    result.equivalence is Equivalence.PROBABLY_EQUIVALENT
                ) is expected, name
            else:
                assert (result.equivalence in POSITIVE) is expected, name
        state = state_check(original, other, config)
        assert state.statistics["active_qubits"] == 4
        assert (state.equivalence in POSITIVE) is _dense_same_state(
            original, other
        )

    def test_alternating_fidelity_matches_the_dense_trace(self):
        original = random_circuit(3, 16, seed=5, gate_set="rotations")
        compiled = compile_circuit(original, line_architecture(8))
        broken = remove_random_gate(compiled, seed=1)
        u1, u2 = _dense_unitaries(original, broken)
        dense = abs(np.trace(u1.conj().T @ u2)) / len(u1)
        result = AlternatingChecker(original, broken, Configuration()).run()
        assert result.statistics["active_qubits"] == 3
        assert result.statistics["hilbert_schmidt_fidelity"] == pytest.approx(
            dense, abs=1e-9
        )


class TestAncillaAboveTheDataRegister:
    def test_x_on_an_ancilla_in_one_circuit_is_not_equivalent(self):
        narrow = random_circuit(3, 12, seed=7, gate_set="clifford_t")
        wide = QuantumCircuit(6, operations=list(narrow)).x(5)
        assert not _dense_equivalent(narrow, wide)
        config = Configuration(seed=0)
        for name, result in _checkers(narrow, wide, config):
            assert result.equivalence is Equivalence.NOT_EQUIVALENT, name
            assert result.statistics["active_qubits"] == 6, name


class TestCorrectionSwaps:
    def test_a_wire_touched_only_by_a_correction_swap_stays_inside(self):
        # ``moved`` declares that physical wire 0 ends up holding logical
        # qubit 4, and ``reference`` swaps explicitly (the swap is elided
        # into the tracked permutation): both logical forms end with a
        # correction swap(0, 4), the only operation on wire 4.
        reference = QuantumCircuit(5).h(0).swap(0, 4)
        moved = QuantumCircuit(5, output_permutation={0: 4, 4: 0}).h(0)
        for circuit in (reference, moved):
            logical, stats = to_logical_form(circuit)
            assert stats["correction_swaps"] == 1
            assert [op.name for op in logical] == ["h", "swap"]
        assert _dense_equivalent(reference, moved)
        config = Configuration(seed=0)
        for name, result in _checkers(reference, moved, config):
            assert result.statistics["active_qubits"] == 5, name
            assert result.equivalence in POSITIVE | {
                Equivalence.PROBABLY_EQUIVALENT
            }, name
        unmoved = QuantumCircuit(5).h(0)
        assert not _dense_equivalent(unmoved, moved)
        for name, result in _checkers(unmoved, moved, config):
            assert result.statistics["active_qubits"] == 5, name
            assert result.equivalence is Equivalence.NOT_EQUIVALENT, name


class TestEarlyExit:
    @pytest.mark.parametrize("array_dd", (True, False))
    def test_first_stimulus_mismatch_runs_one_simulation(self, array_dd):
        circuit = random_circuit(3, 10, seed=2, gate_set="clifford_t")
        # Flipping an input bit maps every basis stimulus to an
        # orthogonal output.
        broken = QuantumCircuit(3).x(0)
        for op in circuit:
            broken.append(op)
        result = simulation_check(
            circuit, broken, Configuration(seed=0, array_dd=array_dd)
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.statistics["first_mismatch"] == 1
        assert result.statistics["simulations_run"] == 1
        counters = result.statistics["perf"]["counters"]
        assert counters["dd.batch_width"] == 1

    def test_engines_agree_on_not_equivalent_statistics(self):
        circuit = random_circuit(4, 30, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        results = [
            simulation_check(
                circuit, broken, Configuration(seed=7, array_dd=array_dd)
            )
            for array_dd in (False, True)
        ]
        keys = ("simulations_run", "first_mismatch", "stimuli_digest")
        assert [r.equivalence for r in results] == [
            Equivalence.NOT_EQUIVALENT
        ] * 2
        assert {k: results[0].statistics[k] for k in keys} == {
            k: results[1].statistics[k] for k in keys
        }

    def test_batches_double_until_every_stimulus_ran(self):
        circuit = random_circuit(3, 10, seed=4)
        result = simulation_check(
            circuit, circuit.copy(), Configuration(seed=0, num_simulations=11)
        )
        assert result.statistics["simulations_run"] == 11
        assert "first_mismatch" not in result.statistics
        counters = result.statistics["perf"]["counters"]
        assert counters["dd.batch_width"] == 11  # batches 1, 1, 2, 4, 3
