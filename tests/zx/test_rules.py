"""Soundness of the rewrite rules against tensor semantics (paper Fig. 5).

Every primitive rule is applied to concrete diagrams and the tensor before
and after are compared up to a global scalar — the reproduction of the
paper's axiom figure as executable checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.zx import circuit_to_zx, diagram_to_matrix, diagrams_proportional
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.rules import color_change, fuse, local_complement, pivot, remove_identity
from repro.zx.simplify import (
    _lcomp_applicable,
    _pivot_endpoint_applicable,
    to_graph_like,
)
from tests.conftest import random_circuit


def two_spider_chain(phase_a, phase_b):
    """in - Z(a) - Z(b) - out, simple edges."""
    d = ZXDiagram()
    i = d.add_vertex(VertexType.BOUNDARY)
    a = d.add_vertex(VertexType.Z, phase_a)
    b = d.add_vertex(VertexType.Z, phase_b)
    o = d.add_vertex(VertexType.BOUNDARY)
    d.connect(i, a)
    d.connect(a, b)
    d.connect(b, o)
    d.inputs, d.outputs = [i], [o]
    return d, a, b


class TestFusion:
    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=2, max_denominator=8),
        st.fractions(min_value=0, max_value=2, max_denominator=8),
    )
    def test_fusion_rule_f(self, pa, pb):
        diagram, a, b = two_spider_chain(pa, pb)
        before = diagram_to_matrix(diagram)
        fuse(diagram, a, b)
        assert diagram.phase(a) == (pa + pb) % 2
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_fusion_requires_simple_edge(self):
        diagram, a, b = two_spider_chain(0, 0)
        diagram.set_edge_type(a, b, EdgeType.HADAMARD)
        with pytest.raises(ValueError):
            fuse(diagram, a, b)

    def test_fusion_requires_z_spiders(self):
        diagram, a, b = two_spider_chain(0, 0)
        diagram.set_vertex_type(b, VertexType.X)
        with pytest.raises(ValueError):
            fuse(diagram, a, b)


class TestIdentityRule:
    def test_identity_rule_id(self):
        diagram, a, b = two_spider_chain(Fraction(0), Fraction(1, 4))
        before = diagram_to_matrix(diagram)
        remove_identity(diagram, a)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_identity_rule_combines_hadamards(self):
        # in -H- Z(0) -H- out reduces to a plain wire
        d = ZXDiagram()
        i = d.add_vertex(VertexType.BOUNDARY)
        v = d.add_vertex(VertexType.Z)
        o = d.add_vertex(VertexType.BOUNDARY)
        d.connect(i, v, EdgeType.HADAMARD)
        d.connect(v, o, EdgeType.HADAMARD)
        d.inputs, d.outputs = [i], [o]
        remove_identity(d, v)
        assert d.is_identity_diagram()

    def test_identity_rule_rejects_phase(self):
        diagram, a, b = two_spider_chain(Fraction(1, 2), Fraction(0))
        with pytest.raises(ValueError):
            remove_identity(diagram, a)


class TestColorChange:
    @pytest.mark.parametrize("seed", range(3))
    def test_color_change_rule_h(self, seed):
        circuit = random_circuit(2, 8, seed=seed, gate_set="clifford_t")
        diagram = circuit_to_zx(circuit)
        before = diagram_to_matrix(diagram)
        for vertex in list(diagram.vertices()):
            if not diagram.is_boundary(vertex):
                color_change(diagram, vertex)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_double_color_change_is_identity(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        diagram = circuit_to_zx(circuit)
        spiders = [v for v in diagram.vertices() if not diagram.is_boundary(v)]
        snapshot = [
            (diagram.vertex_type(v), diagram.phase(v)) for v in spiders
        ]
        for v in spiders:
            color_change(diagram, v)
            color_change(diagram, v)
        assert snapshot == [
            (diagram.vertex_type(v), diagram.phase(v)) for v in spiders
        ]

    def test_boundary_recolor_rejected(self):
        diagram = circuit_to_zx(QuantumCircuit(1).h(0))
        with pytest.raises(ValueError):
            color_change(diagram, diagram.inputs[0])


def _graph_like_ec_diagram(seed):
    """A graph-like diagram with interior spiders (from G†G of a circuit)."""
    circuit = random_circuit(3, 14, seed=seed, gate_set="clifford_t")
    diagram = circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
    to_graph_like(diagram)
    return diagram


class TestLocalComplementation:
    @pytest.mark.parametrize("seed", range(8))
    def test_lcomp_preserves_semantics(self, seed):
        diagram = _graph_like_ec_diagram(seed)
        candidates = [
            v for v in diagram.vertices() if _lcomp_applicable(diagram, v)
        ]
        if not candidates:
            pytest.skip("no lcomp match in this diagram")
        before = diagram_to_matrix(diagram)
        local_complement(diagram, candidates[0])
        assert diagrams_proportional(diagram_to_matrix(diagram), before)


class TestPivot:
    @pytest.mark.parametrize("seed", range(8))
    def test_pivot_preserves_semantics(self, seed):
        diagram = _graph_like_ec_diagram(seed)
        match = None
        for u, v, edge_type in diagram.edges():
            if (
                edge_type is EdgeType.HADAMARD
                and _pivot_endpoint_applicable(diagram, u)
                and _pivot_endpoint_applicable(diagram, v)
            ):
                match = (u, v)
                break
        if match is None:
            pytest.skip("no pivot match in this diagram")
        before = diagram_to_matrix(diagram)
        pivot(diagram, *match)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)


def _wired_spider(d, phase=Fraction(0)):
    """A Z spider attached to fresh input and output boundaries."""
    i = d.add_vertex(VertexType.BOUNDARY)
    v = d.add_vertex(VertexType.Z, phase)
    o = d.add_vertex(VertexType.BOUNDARY)
    d.connect(i, v)
    d.connect(v, o)
    d.inputs.append(i)
    d.outputs.append(o)
    return v


class TestLocalComplementationDeterministic:
    @pytest.mark.parametrize("center_phase", [Fraction(1, 2), Fraction(3, 2)])
    @pytest.mark.parametrize(
        "neighbor_phases",
        [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1), Fraction(7, 4)),
        ],
    )
    def test_explicit_lcomp(self, center_phase, neighbor_phases):
        """A hand-built interior ±pi/2 spider with three Z neighbors."""
        d = ZXDiagram()
        neighbors = [_wired_spider(d, p) for p in neighbor_phases]
        center = d.add_vertex(VertexType.Z, center_phase)
        for n in neighbors:
            d.connect(center, n, EdgeType.HADAMARD)
        assert _lcomp_applicable(d, center)
        before = diagram_to_matrix(d)
        local_complement(d, center)
        assert diagrams_proportional(diagram_to_matrix(d), before)
        # complementation fully connected the (previously independent) trio
        for a in neighbors:
            for b in neighbors:
                if a != b:
                    assert d.connected(a, b)


class TestPivotDeterministic:
    @pytest.mark.parametrize("phase_u", [Fraction(0), Fraction(1)])
    @pytest.mark.parametrize("phase_v", [Fraction(0), Fraction(1)])
    def test_explicit_pivot(self, phase_u, phase_v):
        """A hand-built interior Pauli pair with exclusive + common
        neighbors."""
        d = ZXDiagram()
        only_u = _wired_spider(d, Fraction(1, 4))
        only_v = _wired_spider(d, Fraction(0))
        common = _wired_spider(d, Fraction(1))
        u = d.add_vertex(VertexType.Z, phase_u)
        v = d.add_vertex(VertexType.Z, phase_v)
        d.connect(u, v, EdgeType.HADAMARD)
        d.connect(u, only_u, EdgeType.HADAMARD)
        d.connect(v, only_v, EdgeType.HADAMARD)
        d.connect(u, common, EdgeType.HADAMARD)
        d.connect(v, common, EdgeType.HADAMARD)
        assert _pivot_endpoint_applicable(d, u)
        assert _pivot_endpoint_applicable(d, v)
        before = diagram_to_matrix(d)
        pivot(d, u, v)
        assert diagrams_proportional(diagram_to_matrix(d), before)
        # the exclusive neighbors are now joined, u and v are gone
        assert d.connected(only_u, only_v)
        assert d.num_spiders == 3
