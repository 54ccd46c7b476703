"""Unit tests for qubit-support / idle-wire analysis (pass 1)."""

import numpy as np

from repro.analysis import analyze_pair
from repro.analysis.support import (
    local_unitaries_proportional,
    support_check,
    wire_profiles,
)
from repro.circuit.circuit import QuantumCircuit, ghz_example
from repro.compile import compile_circuit, line_architecture
from repro.ec.permutations import logical_pair, to_logical_form


class TestWireProfiles:
    def test_idle_wire(self):
        profiles = wire_profiles(QuantumCircuit(2).h(0), 2)
        assert profiles[1].idle
        assert np.allclose(profiles[1].local_unitary, np.eye(2))

    def test_single_qubit_product_is_tracked(self):
        circuit = QuantumCircuit(1).h(0).s(0)
        profile = wire_profiles(circuit)[0]
        s_h = np.array([[1, 0], [0, 1j]]) @ (
            np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        )
        assert np.allclose(profile.local_unitary, s_h)

    def test_multi_qubit_gate_poisons_the_wire(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        profiles = wire_profiles(circuit)
        assert profiles[0].local_unitary is None
        assert profiles[1].local_unitary is None
        assert profiles[0].multi_qubit_gates == 1

    def test_padding_to_wider_register(self):
        profiles = wire_profiles(QuantumCircuit(1).x(0), 3)
        assert len(profiles) == 3
        assert profiles[2].idle


class TestSoundness:
    def test_x_x_identity_is_not_flagged(self):
        # The classic trap: non-empty support but identity action.
        circuit1 = QuantumCircuit(2).x(0).x(0)
        circuit2 = QuantumCircuit(2)
        witness, _ = support_check(circuit1, circuit2, 2)
        assert witness is None

    def test_global_phase_difference_is_not_flagged(self):
        # rz(θ) and p(θ) differ by a global phase only.
        circuit1 = QuantumCircuit(1).rz(0.7, 0)
        circuit2 = QuantumCircuit(1).p(0.7, 0)
        witness, _ = support_check(circuit1, circuit2, 1)
        assert witness is None

    def test_idle_wire_mismatch_is_flagged(self):
        circuit1 = QuantumCircuit(3).h(0).cx(0, 1)
        circuit2 = QuantumCircuit(3).h(0).cx(0, 1).x(2)
        witness, summary = support_check(circuit1, circuit2, 3)
        assert witness is not None
        assert witness["kind"] == "idle_wire_mismatch"
        assert witness["wire"] == 2
        assert summary["support"] == [[0, 1], [0, 1, 2]]

    def test_local_wire_mismatch_is_flagged(self):
        circuit1 = QuantumCircuit(2).h(0).cx(0, 1)
        circuit2 = QuantumCircuit(2).h(0).cx(0, 1)
        # Same entangled pair, but circuit2 carries an extra product wire.
        circuit1 = QuantumCircuit(3).h(0).cx(0, 1).s(2)
        circuit2 = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        witness, _ = support_check(circuit1, circuit2, 3)
        assert witness is not None
        assert witness["kind"] == "local_wire_mismatch"
        assert witness["wire"] == 2

    def test_entangled_wires_are_never_ruled_on(self):
        circuit1 = QuantumCircuit(2).h(0).cx(0, 1).z(1)
        circuit2 = QuantumCircuit(2).h(0).cx(0, 1)
        witness, summary = support_check(circuit1, circuit2, 2)
        assert witness is None
        assert summary["local_wires_compared"] == 0


class TestProportionality:
    def test_proportional_up_to_phase(self):
        u = np.eye(2, dtype=np.complex128)
        v = np.exp(1j * 0.4) * u
        proportional, defect = local_unitaries_proportional(u, v)
        assert proportional
        assert defect < 1e-12

    def test_distinct_unitaries(self):
        u = np.eye(2, dtype=np.complex128)
        v = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        proportional, defect = local_unitaries_proportional(u, v)
        assert not proportional
        assert defect == 2.0


class TestPermutationAwareness:
    def test_routed_pair_is_compared_on_logical_wires(self):
        # Compiling onto a line inserts SWAPs and a layout; the support
        # pass must fold both in before comparing wires.  The pair is
        # genuinely equivalent, so no witness may appear.
        original = ghz_example()
        compiled = compile_circuit(original, line_architecture(4))
        report = analyze_pair(logical_pair(original, compiled))
        assert report.verdict != "not_equivalent"

    def test_routed_pair_with_planted_idle_error(self):
        original = ghz_example()  # 3 qubits
        compiled = compile_circuit(original, line_architecture(4))
        # Plant an error on a wire that is idle in logical terms.
        broken = compiled.copy().x(3)
        broken.initial_layout = dict(compiled.initial_layout)
        broken.output_permutation = dict(compiled.output_permutation)
        report = analyze_pair(logical_pair(original, broken))
        assert report.verdict == "not_equivalent"
        assert report.witness["pass"] in ("support", "interaction")

    def test_to_logical_form_consistency(self):
        # Sanity: the pass sees exactly the logical rewriting the DD
        # checkers use, so verdicts transfer.
        original = ghz_example()
        compiled = compile_circuit(original, line_architecture(5))
        logical, _ = to_logical_form(compiled, 5)
        witness, _ = support_check(
            to_logical_form(original, 5)[0], logical, 5
        )
        assert witness is None
