"""Tests for ZX circuit extraction and the ZX optimizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.ec import (
    Configuration,
    EquivalenceCheckingManager,
    logical_pair,
    stabilizer_check,
)
from repro.zx import circuit_to_zx, diagrams_proportional, full_reduce
from repro.zx.extract import ExtractionError, extract_circuit
from repro.zx.optimize import zx_optimize
from tests.stab.test_tableau import clifford_circuit


def roundtrip(circuit):
    diagram = circuit_to_zx(circuit)
    full_reduce(diagram)
    return extract_circuit(diagram)


class TestExtraction:
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
        extracted = roundtrip(circuit)
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

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
        extracted = roundtrip(circuit)
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

    def test_identity_extracts_to_empty(self):
        circuit = QuantumCircuit(3)
        extracted = roundtrip(circuit)
        assert len(extracted) == 0

    def test_pure_permutation(self):
        circuit = QuantumCircuit(3).swap(0, 1).swap(1, 2)
        extracted = roundtrip(circuit)
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_clifford_roundtrip(self, seed):
        """Three engines agree: ZX extraction validated by the tableau."""
        circuit = clifford_circuit(4, 25, seed=seed)
        extracted = roundtrip(circuit)
        result = stabilizer_check(logical_pair(circuit, extracted))
        if result.considered_equivalent:
            return
        # extracted rz(k*pi/2) phases are Clifford; if the tableau could
        # not digest them, fall back to the dense ground truth
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_clifford_roundtrip_property(self, seed):
        circuit = clifford_circuit(3, 18, seed=seed)
        extracted = roundtrip(circuit)
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.rzz(0.3, 0, 1).h(0).rzz(0.7, 0, 1),
            lambda c: c.t(0).cx(0, 1).t(1).cx(1, 0).rz(0.9, 0),
        ],
        ids=["double_gadget", "t_heavy"],
    )
    def test_gadget_diagrams_extract_correctly(self, builder):
        """Simple phase gadgets pass through the frontier machinery: the
        axis becomes an ordinary back-neighbour column and its phase leaf
        extracts once the axis reaches the frontier."""
        circuit = QuantumCircuit(2)
        builder(circuit)
        diagram = circuit_to_zx(circuit)
        full_reduce(diagram)
        extracted = extract_circuit(diagram)
        assert diagrams_proportional(
            circuit_unitary(extracted), circuit_unitary(circuit)
        )

    def test_non_unitary_arity_rejected(self):
        from repro.zx.diagram import VertexType, ZXDiagram

        diagram = ZXDiagram()
        out = diagram.add_vertex(VertexType.BOUNDARY)
        spider = diagram.add_vertex(VertexType.Z)
        diagram.connect(spider, out)
        diagram.outputs = [out]
        with pytest.raises(ExtractionError):
            extract_circuit(diagram)


class TestZXOptimize:
    @pytest.mark.parametrize("seed", range(5))
    def test_clifford_optimization_preserves_semantics(self, seed):
        circuit = clifford_circuit(4, 30, seed=seed)
        optimized, extracted = zx_optimize(circuit)
        assert extracted
        result = EquivalenceCheckingManager(
            circuit, optimized, Configuration(strategy="alternating")
        ).run()
        assert result.considered_equivalent

    def test_clifford_optimization_reduces_gates(self):
        """A redundant Clifford circuit shrinks through the round trip."""
        circuit = QuantumCircuit(2)
        for _ in range(6):
            circuit.h(0).h(0).cz(0, 1).cz(0, 1).s(0).sdg(0)
        optimized, extracted = zx_optimize(circuit)
        assert extracted
        assert len(optimized) < len(circuit)

    def test_fallback_on_gadgets(self):
        circuit = QuantumCircuit(2).rzz(0.3, 0, 1).h(0).rzz(0.7, 0, 1)
        optimized, extracted = zx_optimize(circuit)
        if not extracted:
            # fallback returns an (optimized copy of the) input
            result = EquivalenceCheckingManager(
                circuit, optimized, Configuration(strategy="alternating")
            ).run()
            assert result.considered_equivalent

    def test_optimized_pair_checks_with_both_paradigms(self):
        """The new optimizer feeds the case study's second use-case."""
        circuit = clifford_circuit(4, 30, seed=11)
        optimized, extracted = zx_optimize(circuit)
        assert extracted
        for strategy in ("combined", "zx", "stabilizer"):
            result = EquivalenceCheckingManager(
                circuit, optimized, Configuration(strategy=strategy, seed=0)
            ).run()
            assert result.considered_equivalent, strategy
