"""What `full_reduce` leaves of one circuit's diagram, checked against the
circuit's dense unitary through the reduced diagram's tensor, and Clifford
pairs on which the ZX checker, the tableau and dense matrices must agree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.compile.optimize import optimize_circuit
from repro.ec import logical_pair, stabilizer_check, zx_check
from repro.ec.results import Equivalence
from repro.zx import (
    circuit_to_zx,
    diagram_to_matrix,
    diagrams_proportional,
    full_reduce,
)
from tests.stab.test_tableau import clifford_circuit


def reduced(circuit):
    diagram = circuit_to_zx(circuit)
    full_reduce(diagram)
    return diagram


def assert_reduction_keeps_semantics(circuit):
    assert diagrams_proportional(
        diagram_to_matrix(reduced(circuit)), circuit_unitary(circuit)
    )


class TestReducedDiagramSemantics:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.h(0),
            lambda c: c.s(0),
            lambda c: c.x(0),
            lambda c: c.rz(0.37, 0),
        ],
        ids=["h", "s", "x", "rz"],
    )
    def test_single_qubit_gates(self, builder):
        circuit = QuantumCircuit(1)
        builder(circuit)
        assert_reduction_keeps_semantics(circuit)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.cx(0, 1),
            lambda c: c.cz(0, 1),
            lambda c: c.swap(0, 1),
            lambda c: c.h(0).cx(0, 1),
            lambda c: c.cx(0, 1).cx(1, 0),
        ],
        ids=["cx", "cz", "swap", "bell", "double_cx"],
    )
    def test_two_qubit_circuits(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        assert_reduction_keeps_semantics(circuit)

    def test_identity_reduces_to_bare_wires(self):
        assert reduced(QuantumCircuit(3)).is_identity_diagram()

    def test_pure_permutation_reduces_to_crossed_wires(self):
        circuit = QuantumCircuit(3).swap(0, 1).swap(1, 2)
        diagram = reduced(circuit)
        assert diagram.num_spiders == 0
        assert diagram.wire_permutation() == {0: 2, 1: 0, 2: 1}
        assert diagrams_proportional(
            diagram_to_matrix(diagram), circuit_unitary(circuit)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_clifford(self, seed):
        """A Clifford diagram reduces to Clifford phases only, and to the
        same linear map."""
        circuit = clifford_circuit(4, 25, seed=seed)
        diagram = reduced(circuit)
        assert diagram.non_clifford_count() == 0
        assert diagrams_proportional(
            diagram_to_matrix(diagram), circuit_unitary(circuit)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_clifford_reduction_property(self, seed):
        assert_reduction_keeps_semantics(clifford_circuit(3, 18, seed=seed))

    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.rzz(0.3, 0, 1).h(0).rzz(0.7, 0, 1),
            lambda c: c.t(0).cx(0, 1).t(1).cx(1, 0).rz(0.9, 0),
        ],
        ids=["double_gadget", "t_heavy"],
    )
    def test_gadget_diagrams(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        assert_reduction_keeps_semantics(circuit)


class TestCliffordEnginesAgree:
    """The ZX checker, the tableau and dense matrices on Clifford pairs
    whose second circuit the peephole optimizer rewrote."""

    @pytest.mark.parametrize("seed", range(5))
    def test_optimized_pair_proven_by_zx_and_tableau(self, seed):
        circuit = clifford_circuit(4, 30, seed=seed)
        optimized = optimize_circuit(circuit, level=1)
        assert diagrams_proportional(
            circuit_unitary(optimized), circuit_unitary(circuit)
        )
        pair = logical_pair(circuit, optimized)
        assert zx_check(pair).considered_equivalent
        assert stabilizer_check(pair).considered_equivalent

    @pytest.mark.parametrize("seed", range(5))
    def test_missing_gate_refuted_by_tableau_never_proven_by_zx(self, seed):
        circuit = clifford_circuit(4, 30, seed=seed)
        operations = list(optimize_circuit(circuit, level=1).operations)
        del operations[len(operations) // 2]
        broken = QuantumCircuit(4, operations=operations)
        assert not diagrams_proportional(
            circuit_unitary(broken), circuit_unitary(circuit)
        )
        pair = logical_pair(circuit, broken)
        assert stabilizer_check(pair).equivalence is Equivalence.NOT_EQUIVALENT
        assert not zx_check(pair).considered_equivalent
