"""Unit tests for the DD package algebra (`repro.dd.array_package`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.circuit.unitary import statevector
from repro.dd import ArrayDDPackage, edge_to_matrix, edge_to_vector
from repro.dd.gates import circuit_dd, operation_dd, simulate_circuit_dd
from tests.conftest import random_circuit


@pytest.fixture
def pkg():
    return ArrayDDPackage()


class TestElementaryDiagrams:
    def test_basis_state_vector(self, pkg):
        for bits in range(8):
            vec = edge_to_vector(pkg.basis_state(3, bits), 3, pkg)
            expected = np.zeros(8)
            expected[bits] = 1.0
            np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_identity_matrix(self, pkg):
        np.testing.assert_allclose(
            edge_to_matrix(pkg.identity(3), 3, pkg), np.eye(8), atol=1e-12
        )

    def test_identity_is_linear_size(self, pkg):
        """Paper Fig. 3b: the identity DD has n nodes."""
        for n in (1, 4, 16, 65):
            assert pkg.matrix_dd_size(pkg.identity(n)) == n

    def test_identity_cached(self, pkg):
        assert pkg.identity(5) == pkg.identity(5)

    def test_zero_edges(self, pkg):
        assert pkg.edge_weight(pkg.zero_matrix_edge()) == 0
        assert pkg.edge_weight(pkg.zero_vector_edge()) == 0

    def test_layered_kron(self, pkg):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        edge = pkg.layered_kron(2, {0: x})
        np.testing.assert_allclose(
            edge_to_matrix(edge, 2, pkg), np.kron(np.eye(2), x), atol=1e-12
        )
        edge = pkg.layered_kron(2, {1: x})
        np.testing.assert_allclose(
            edge_to_matrix(edge, 2, pkg), np.kron(x, np.eye(2)), atol=1e-12
        )


class TestCanonicity:
    def test_same_function_same_node(self, pkg):
        """Canonicity: equal circuits yield the identical root node."""
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        assert pkg.edge_node(circuit_dd(pkg, a)) == pkg.edge_node(
            circuit_dd(pkg, b)
        )

    def test_hadamard_squared_is_identity_node(self, pkg):
        hh = QuantumCircuit(2).h(0).h(0)
        edge = circuit_dd(pkg, hh)
        assert pkg.edge_node(edge) == pkg.edge_node(pkg.identity(2))

    def test_commuting_constructions_agree(self, pkg):
        a = QuantumCircuit(2).z(0).x(1)
        b = QuantumCircuit(2).x(1).z(0)
        ea, eb = circuit_dd(pkg, a), circuit_dd(pkg, b)
        assert ea == eb  # same node handle and same weight id

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_canonicity_property(self, seed):
        """G and (G†)† build the very same canonical DD."""
        pkg = ArrayDDPackage()
        circuit = random_circuit(3, 12, seed=seed)
        direct = circuit_dd(pkg, circuit)
        double_inverse = circuit_dd(pkg, circuit.inverse().inverse())
        assert pkg.edge_node(direct) == pkg.edge_node(double_inverse)


class TestAlgebra:
    @pytest.mark.parametrize("seed", range(4))
    def test_multiply_matches_dense(self, seed, pkg):
        a = random_circuit(3, 10, seed=seed)
        b = random_circuit(3, 10, seed=seed + 100)
        product = pkg.multiply(circuit_dd(pkg, a), circuit_dd(pkg, b))
        np.testing.assert_allclose(
            edge_to_matrix(product, 3, pkg),
            circuit_unitary(a) @ circuit_unitary(b),
            atol=1e-8,
        )

    def test_add_matches_dense(self, pkg):
        a = random_circuit(2, 8, seed=1)
        b = random_circuit(2, 8, seed=2)
        total = pkg.add(circuit_dd(pkg, a), circuit_dd(pkg, b))
        np.testing.assert_allclose(
            edge_to_matrix(total, 2, pkg),
            circuit_unitary(a) + circuit_unitary(b),
            atol=1e-8,
        )

    def test_add_zero_identity(self, pkg):
        edge = circuit_dd(pkg, random_circuit(2, 5, seed=3))
        assert pkg.add(edge, pkg.zero_matrix_edge()) == edge
        assert pkg.add(pkg.zero_matrix_edge(), edge) == edge

    def test_conjugate_transpose_matches_dense(self, pkg):
        circuit = random_circuit(3, 12, seed=5)
        adjoint = pkg.conjugate_transpose(circuit_dd(pkg, circuit))
        np.testing.assert_allclose(
            edge_to_matrix(adjoint, 3, pkg),
            circuit_unitary(circuit).conj().T,
            atol=1e-8,
        )

    def test_trace_matches_dense(self, pkg):
        circuit = random_circuit(3, 12, seed=6)
        edge = circuit_dd(pkg, circuit)
        assert pkg.trace(edge) == pytest.approx(
            np.trace(circuit_unitary(circuit)), abs=1e-8
        )

    def test_unitarity_via_product(self, pkg):
        circuit = random_circuit(3, 15, seed=7)
        edge = circuit_dd(pkg, circuit)
        product = pkg.multiply(pkg.conjugate_transpose(edge), edge)
        assert pkg.is_identity(product, 3)

    def test_height_mismatch_rejected(self, pkg):
        with pytest.raises(ValueError, match="different height"):
            pkg.add(pkg.identity(2), pkg.identity(3))
        with pytest.raises(ValueError, match="different height"):
            pkg.multiply(pkg.identity(2), pkg.identity(3))
        with pytest.raises(ValueError, match="different height"):
            pkg.add_vectors(pkg.basis_state(2), pkg.basis_state(3))
        with pytest.raises(ValueError, match="different height"):
            pkg.multiply_matrix_vector(pkg.identity(2), pkg.basis_state(3))


class TestVectors:
    @pytest.mark.parametrize("seed", range(4))
    def test_simulation_matches_dense(self, seed, pkg):
        circuit = random_circuit(3, 15, seed=seed)
        state = simulate_circuit_dd(pkg, circuit)
        np.testing.assert_allclose(
            edge_to_vector(state, 3, pkg), statevector(circuit), atol=1e-8
        )

    def test_inner_product_matches_dense(self, pkg):
        a = random_circuit(3, 10, seed=11)
        b = random_circuit(3, 10, seed=12)
        va, vb = simulate_circuit_dd(pkg, a), simulate_circuit_dd(pkg, b)
        dense = np.vdot(statevector(a), statevector(b))
        assert pkg.inner_product(va, vb) == pytest.approx(dense, abs=1e-8)

    def test_fidelity_of_same_state_is_one(self, pkg):
        circuit = random_circuit(3, 10, seed=13)
        state = simulate_circuit_dd(pkg, circuit)
        assert pkg.fidelity(state, state) == pytest.approx(1.0)

    def test_add_vectors_matches_dense(self, pkg):
        a = simulate_circuit_dd(pkg, random_circuit(2, 6, seed=14))
        b = simulate_circuit_dd(pkg, random_circuit(2, 6, seed=15))
        total = pkg.add_vectors(a, b)
        np.testing.assert_allclose(
            edge_to_vector(total, 2, pkg),
            edge_to_vector(a, 2, pkg) + edge_to_vector(b, 2, pkg),
            atol=1e-8,
        )

    def test_vector_dd_size(self, pkg):
        ghz = QuantumCircuit(3).h(0).cx(0, 1).cx(0, 2)
        state = simulate_circuit_dd(pkg, ghz)
        # one shared node at the top level, two per level below
        assert pkg.vector_dd_size(state) == 5


class TestIdentityPredicates:
    def test_is_identity_accepts_phase(self, pkg):
        circuit = QuantumCircuit(2).z(0).x(0).z(0).x(0)  # = -I
        edge = circuit_dd(pkg, circuit)
        assert pkg.is_identity(edge, 2, up_to_global_phase=True)
        assert not pkg.is_identity(edge, 2, up_to_global_phase=False)

    def test_hs_fidelity_identity(self, pkg):
        assert pkg.hilbert_schmidt_fidelity(pkg.identity(3), 3) == pytest.approx(1.0)

    def test_hs_fidelity_traceless(self, pkg):
        x_edge = circuit_dd(pkg, QuantumCircuit(1).x(0))
        assert pkg.hilbert_schmidt_fidelity(x_edge, 1) == pytest.approx(0.0)


class TestGateCache:
    def test_operation_dd_memoized(self, pkg):
        from repro.circuit.gate import Operation

        op = Operation("x", (1,), (0,))
        first = operation_dd(pkg, op, 3)
        second = operation_dd(pkg, op, 3)
        assert first is second
