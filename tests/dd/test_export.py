"""Tests for DD export utilities (`repro.dd.export`)."""

import numpy as np
import pytest

from repro.bench.algorithms import qft
from repro.circuit import QuantumCircuit
from repro.circuit.circuit import ghz_example
from repro.dd import ArrayDDPackage, edge_to_matrix, edge_to_vector
from repro.dd.array_package import EDGE_SHIFT, WEIGHT_MASK
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from tests.conftest import random_circuit

_CIRCUITS = {
    "ghz3": ghz_example,
    "qft3": lambda: qft(3),
    "random3": lambda: random_circuit(3, 15, seed=4),
}


@pytest.fixture
def pkg():
    return ArrayDDPackage()


class TestDenseExport:
    def test_zero_edges(self, pkg):
        np.testing.assert_allclose(
            edge_to_matrix(pkg.zero_matrix_edge(), 2, pkg), np.zeros((4, 4))
        )
        np.testing.assert_allclose(
            edge_to_vector(pkg.zero_vector_edge(), 2, pkg), np.zeros(4)
        )

    def test_terminal_scalar(self, pkg):
        matrix = edge_to_matrix(pkg.terminal_matrix_edge(2.5 + 0j), 0, pkg)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(2.5)

    def test_sizes_of_zero(self, pkg):
        assert pkg.matrix_dd_size(pkg.zero_matrix_edge()) == 0


def _node_levels(nodes, edge):
    """Level of every node reachable from ``edge``, by handle, checking
    on the way that each child sits one level below its parent and that
    a zero weight always points at the terminal."""
    levels = {}
    stack = [edge >> EDGE_SHIFT]
    while stack:
        handle = stack.pop()
        if handle == 0 or handle in levels:
            continue
        node = nodes[handle]
        levels[handle] = node[0]
        for child, weight in zip(node[1::2], node[2::2]):
            assert weight or child == 0, node
            assert child == 0 or nodes[child][0] == node[0] - 1, node
            stack.append(child)
    return levels


class TestDiagramStructure:
    @pytest.mark.parametrize("name", sorted(_CIRCUITS))
    def test_matrix_size_counts_reachable_nodes(self, pkg, name):
        root = circuit_dd(pkg, _CIRCUITS[name]())
        levels = _node_levels(pkg.mat.nodes, root)
        assert levels[root >> EDGE_SHIFT] == 2
        assert pkg.matrix_dd_size(root) == len(levels)

    @pytest.mark.parametrize("name", sorted(_CIRCUITS))
    def test_vector_size_counts_reachable_nodes(self, pkg, name):
        state = simulate_circuit_dd(pkg, _CIRCUITS[name]())
        levels = _node_levels(pkg.vec.nodes, state)
        assert levels[state >> EDGE_SHIFT] == 2
        assert pkg.vector_dd_size(state) == len(levels)

    def test_hadamard_weights(self, pkg):
        """One node: the 1/sqrt(2) sits on the root edge, the node keeps
        the signs."""
        root = circuit_dd(pkg, QuantumCircuit(1).h(0))
        assert pkg.weight_value(root & WEIGHT_MASK) == pytest.approx(
            2 ** -0.5
        )
        level, *entries = pkg.mat.nodes[root >> EDGE_SHIFT]
        assert level == 0
        assert entries[0::2] == [0, 0, 0, 0]
        assert [pkg.weight_value(wid) for wid in entries[1::2]] == (
            pytest.approx([1, 1, 1, -1])
        )
