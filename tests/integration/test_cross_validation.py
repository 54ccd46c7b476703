"""Cross-engine validation and metamorphic properties.

The reproduction contains four independent semantic engines — dense
matrices, decision diagrams, ZX tensor networks and the Clifford tableau.
These tests pit them against each other on the same random circuits, and
check metamorphic properties of the equivalence checkers (verdicts must be
invariant under transformations that provably preserve — or provably
break — equivalence).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.circuit.gate import Operation
from repro.dd import ArrayDDPackage, edge_to_matrix
from repro.dd.gates import circuit_dd
from repro.ec import (
    Configuration,
    EquivalenceCheckingManager,
    alternating_dd_check,
    construction_dd_check,
    logical_pair,
    simulation_check,
    zx_check,
)
from repro.ec.results import Equivalence
from repro.zx import circuit_to_zx, diagram_to_matrix, diagrams_proportional
from tests.conftest import random_circuit


class TestEngineAgreement:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_dd_zx_dense_same_unitary(self, seed):
        """Three ways to compute the same unitary must agree."""
        circuit = random_circuit(3, 12, seed=seed)
        dense = circuit_unitary(circuit)
        pkg = ArrayDDPackage()
        dd_matrix = edge_to_matrix(circuit_dd(pkg, circuit), 3, pkg)
        np.testing.assert_allclose(dd_matrix, dense, atol=1e-8)
        zx_matrix = diagram_to_matrix(circuit_to_zx(circuit))
        assert diagrams_proportional(zx_matrix, dense)

    @pytest.mark.parametrize("seed", range(6))
    def test_checker_verdicts_agree_on_equivalent_pairs(self, seed):
        circuit = random_circuit(4, 20, seed=seed)
        partner = circuit.copy()
        verdicts = {
            "alternating": alternating_dd_check(
                logical_pair(circuit, partner)
            ),
            "construction": construction_dd_check(
                logical_pair(circuit, partner)
            ),
            "simulation": simulation_check(
                logical_pair(circuit, partner), Configuration(seed=0)
            ),
            "zx": zx_check(logical_pair(circuit, partner)),
        }
        for name, result in verdicts.items():
            assert result.considered_equivalent, name

    @pytest.mark.parametrize("seed", range(6))
    def test_no_checker_accepts_a_perturbed_circuit(self, seed):
        """A visibly wrong circuit must never be *proven* equivalent."""
        rng = random.Random(seed)
        circuit = random_circuit(4, 20, seed=seed)
        broken = circuit.copy().x(rng.randrange(4))
        pair = logical_pair(circuit, broken)
        for check in (alternating_dd_check, construction_dd_check):
            result = check(pair)
            assert result.equivalence is Equivalence.NOT_EQUIVALENT
        zx = zx_check(pair)
        assert not zx.considered_equivalent


class TestMetamorphicProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 100))
    def test_inserting_inverse_pair_preserves_equivalence(
        self, seed, position_seed
    ):
        """G ~ G with any g g^-1 inserted anywhere."""
        circuit = random_circuit(3, 15, seed=seed)
        rng = random.Random(position_seed)
        position = rng.randrange(len(circuit) + 1)
        gate = Operation("t", (rng.randrange(3),))
        ops = list(circuit.operations)
        ops[position:position] = [gate, gate.inverse()]
        modified = QuantumCircuit(3, operations=ops)
        result = alternating_dd_check(logical_pair(circuit, modified))
        assert result.considered_equivalent

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100_000))
    def test_conjugating_by_circuit_preserves_identity(self, seed):
        """C G G^-1 C^-1 is the identity for any C, G."""
        conjugator = random_circuit(3, 8, seed=seed)
        inner = random_circuit(3, 8, seed=seed + 1)
        composed = (
            conjugator
            .compose(inner)
            .compose(inner.inverse())
            .compose(conjugator.inverse())
        )
        result = alternating_dd_check(
            logical_pair(composed, QuantumCircuit(3))
        )
        assert result.considered_equivalent

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 100_000))
    def test_appending_t_breaks_equivalence(self, seed):
        circuit = random_circuit(3, 15, seed=seed)
        modified = circuit.copy().t(0)
        result = alternating_dd_check(logical_pair(circuit, modified))
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 100_000))
    def test_relabelling_qubits_with_metadata_is_equivalent(self, seed):
        """A relabelled circuit with matching layout metadata passes."""
        circuit = random_circuit(3, 12, seed=seed)
        permutation = {0: 2, 1: 0, 2: 1}
        relabelled = circuit.remapped(permutation)
        # wire w of the relabelled circuit carries logical q with
        # permutation[q] = w at input and output alike
        inverse = {w: q for q, w in permutation.items()}
        relabelled.initial_layout = inverse
        relabelled.output_permutation = inverse
        result = alternating_dd_check(logical_pair(circuit, relabelled))
        assert result.considered_equivalent

    def test_global_phase_never_breaks_equivalence(self):
        circuit = random_circuit(3, 15, seed=3)
        # X Z X Z = -I: a pure global phase tail
        phased = circuit.copy().x(0).z(0).x(0).z(0)
        result = alternating_dd_check(logical_pair(circuit, phased))
        assert result.equivalence in (
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
            Equivalence.EQUIVALENT,
        )


class TestManagerConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_combined_matches_alternating_on_equivalent(self, seed):
        circuit = random_circuit(4, 15, seed=seed)
        combined = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="combined", seed=0)
        ).run()
        alternating = EquivalenceCheckingManager(
            circuit,
            circuit.copy(),
            Configuration(strategy="alternating", seed=0),
        ).run()
        assert combined.considered_equivalent
        assert (
            combined.considered_equivalent
            == alternating.considered_equivalent
        )
