"""Tests for the DD engine's node store and packed-integer algebra
(`repro.dd.array_package` / `repro.dd.array_store`).

Canonical handles are node identity, the unique table gives every
distinct key its own handle in creation order and finds it again, and
dense exports must agree with numpy.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.unitary import circuit_unitary, statevector
from repro.dd import (
    ArrayDDPackage,
    NodeStore,
    edge_to_matrix,
    edge_to_vector,
)
from repro.dd.array_package import EDGE_SHIFT, WEIGHT_MASK, ZERO_EDGE
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from tests.conftest import assert_allclose, random_circuit


@pytest.fixture
def pkg():
    return ArrayDDPackage()


class TestNodeStore:
    def test_terminal_is_handle_zero(self):
        store = NodeStore(2)
        assert len(store) == 1
        assert store.num_nodes == 0
        assert store.nodes[0] == (-1, 0, 0, 0, 0)

    def test_lookup_is_canonical(self):
        store = NodeStore(2)
        handle1 = store.lookup_or_insert((0, 0, 1, 0, 0))
        handle2 = store.lookup_or_insert((0, 0, 1, 0, 0))
        assert handle1 == handle2 == 1
        assert store.num_nodes == 1
        assert store.stats() == {"nodes": 1, "lookups": 2, "hits": 1}

    def test_distinct_fields_distinct_handles(self):
        store = NodeStore(2)
        a = store.lookup_or_insert((0, 0, 1, 0, 0))
        b = store.lookup_or_insert((0, 0, 0, 0, 1))
        c = store.lookup_or_insert((1, 0, 1, 0, 0))
        assert len({a, b, c}) == 3

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            NodeStore(1)

    def test_many_keys_found_again(self):
        """48 keys each get the next handle and are all found again."""
        store = NodeStore(2)
        handles = {}
        for level in range(6):
            for wid in range(1, 9):
                handle = store.lookup_or_insert((0, 0, wid, 0, level))
                if (level, wid) in handles:
                    assert handle == handles[(level, wid)]
                else:
                    assert handle == len(handles) + 1
                    handles[(level, wid)] = handle
        assert store.num_nodes == len(handles) == 48
        for (level, wid), expected in handles.items():
            assert store.lookup_or_insert((0, 0, wid, 0, level)) == expected
            assert store.nodes[expected] == (0, 0, wid, 0, level)
        assert store.hits == 48

    def test_arity_four_keys_never_alias(self):
        """39 arity-4 keys that differ in one field or in the level
        each get their own handle and are all found again."""
        store = NodeStore(4)
        handles = []
        for i in range(1, 40):
            handle = store.lookup_or_insert((i % 3, 0, i, 0, 0, 0, 0, 0, 0))
            assert handle not in handles
            handles.append(handle)
        for i, expected in zip(range(1, 40), handles):
            key = (i % 3, 0, i, 0, 0, 0, 0, 0, 0)
            assert store.lookup_or_insert(key) == expected
        assert store.stats() == {"nodes": 39, "lookups": 78, "hits": 39}

    def test_tuple_layout(self):
        """Each key is stored verbatim as the node at its handle."""
        store = NodeStore(2)
        store.lookup_or_insert((3, 0, 1, 0, 2))
        assert store.nodes == [(-1, 0, 0, 0, 0), (3, 0, 1, 0, 2)]
        assert NodeStore(4).nodes == [(-1,) + (0,) * 8]


class TestArrayAlgebra:
    def test_identity_matrix(self, pkg):
        dense = edge_to_matrix(pkg.identity(3), 3, pkg)
        assert_allclose(dense, np.eye(8))

    def test_basis_state(self, pkg):
        dense = edge_to_vector(pkg.basis_state(3, bits=0b101), 3, pkg)
        expected = np.zeros(8, dtype=complex)
        expected[0b101] = 1.0
        assert_allclose(dense, expected)

    def test_circuit_matrix_matches_dense(self, pkg):
        circuit = random_circuit(3, 20, seed=1)
        actual = edge_to_matrix(circuit_dd(pkg, circuit), 3, pkg)
        assert_allclose(actual, circuit_unitary(circuit))

    def test_simulation_matches_dense(self, pkg):
        circuit = random_circuit(3, 20, seed=2)
        actual = edge_to_vector(simulate_circuit_dd(pkg, circuit), 3, pkg)
        assert_allclose(actual, statevector(circuit))

    def test_unitarity_via_conjugate_transpose(self, pkg):
        circuit = random_circuit(3, 15, seed=3)
        u = circuit_dd(pkg, circuit)
        product = pkg.multiply(pkg.conjugate_transpose(u), u)
        assert pkg.is_identity(product, 3)

    def test_fidelity_of_equal_states(self, pkg):
        circuit = random_circuit(3, 12, seed=4)
        state = simulate_circuit_dd(pkg, circuit)
        assert pkg.fidelity(state, state) == pytest.approx(1.0)

    def test_trace_of_identity(self, pkg):
        assert pkg.trace(pkg.identity(4)) == pytest.approx(16.0)

    def test_zero_edge_weight_mask(self, pkg):
        """`is_zero` is a weight-id test, never `edge == 0`: arithmetic
        can snap a weight to zero under a non-terminal handle."""
        assert ZERO_EDGE & WEIGHT_MASK == 0
        ghz = QuantumCircuit(2).h(0).cx(0, 1)
        root = circuit_dd(pkg, ghz)
        assert root & WEIGHT_MASK != 0
        assert root >> EDGE_SHIFT != 0

    def test_fresh_packages_same_handles(self):
        """Handles and weight ids are assigned in lookup order, so two
        packages building the same circuit hold identical stores, and
        every child was created before its parent."""
        circuit = random_circuit(4, 30, seed=5)
        first, second = ArrayDDPackage(), ArrayDDPackage()
        root = circuit_dd(first, circuit)
        assert circuit_dd(second, circuit) == root
        assert second.mat.nodes == first.mat.nodes
        assert second.store_statistics() == first.store_statistics()
        for handle, node in enumerate(first.mat.nodes[1:], start=1):
            assert len(node) == 9
            for child in node[1::2]:
                assert child < handle
                assert first.mat.nodes[child][0] < node[0]

    def test_store_statistics_shape(self, pkg):
        circuit_dd(pkg, QuantumCircuit(2).h(0).cx(0, 1))
        stats = pkg.store_statistics()
        assert stats["matrix_store"]["nodes"] > 0
        assert stats["matrix_store"]["hits"] >= 0
        assert set(stats) == {"matrix_store", "vector_store"}


class TestHandleExportRoundTrip:
    def test_dense_round_trip(self, pkg):
        """Handle-based dense export is deterministic across packages."""
        circuit = random_circuit(3, 18, seed=7)
        root = circuit_dd(pkg, circuit)
        dense = edge_to_matrix(root, 3, pkg)
        fresh = ArrayDDPackage()
        rebuilt = circuit_dd(fresh, circuit)
        assert fresh.matrix_dd_size(rebuilt) == pkg.matrix_dd_size(root)
        assert_allclose(edge_to_matrix(rebuilt, 3, fresh), dense, atol=0)

    def test_ghz2_diagram_is_pinned(self, pkg):
        """The GHZ-2 unitary, node by node: a q1 root of weight 1/sqrt(2)
        over two q0 nodes with one non-zero row each, ``[1, 1]`` on top
        in the diagonal blocks and ``[1, -1]`` below in the others."""
        root = circuit_dd(pkg, QuantumCircuit(2).h(0).cx(0, 1))
        nodes = pkg.mat.nodes

        def entries(handle):
            node = nodes[handle]
            return node[0], list(node[1::2]), [
                pkg.weight_value(wid) for wid in node[2::2]
            ]

        assert pkg.weight_value(root & WEIGHT_MASK) == pytest.approx(
            2 ** -0.5
        )
        level, children, weights = entries(root >> EDGE_SHIFT)
        assert level == 1
        upper, lower = children[0], children[1]
        assert children == [upper, lower, lower, upper]
        assert weights == pytest.approx([1, 1, 1, 1])
        assert entries(upper) == (0, [0] * 4, pytest.approx([1, 1, 0, 0]))
        assert entries(lower) == (0, [0] * 4, pytest.approx([0, 0, 1, -1]))
        assert pkg.matrix_dd_size(root) == 3

