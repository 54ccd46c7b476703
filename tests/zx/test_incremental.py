"""Tests for the worklist engine (`repro.zx.worklist`).

On random Clifford+T verification instances (equivalent pairs,
one-gate-missing pairs, flipped-CNOT pairs) the reduced diagram must
still denote the unreduced pair (dense truth), must be the identity
exactly when the pair is equivalent and ZX decides it, and must be
``full_reduce``'s own fixpoint: a second pass that finds a rewrite has
found a match the first pass lost.  The :class:`DirtyTracker` candidate
indexes must always mirror the live diagram, its gadget cache must not
lose a gadget whose support spider changed, and every current match of
the identity, local-complementation and (boundary) pivot rules must have
an endpoint among the vertices that rule will re-examine.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit import QuantumCircuit, circuit_unitary
from repro.perf import PerfCounters
from repro.zx import (
    circuit_to_zx,
    diagram_to_matrix,
    diagrams_proportional,
    full_reduce,
    to_graph_like,
)
from repro.zx import worklist
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.simplify import (
    _id_applicable,
    _lcomp_applicable,
    _pivot_boundary_partner_applicable,
    _pivot_endpoint_applicable,
)
from repro.zx.worklist import (
    NEIGHBORHOOD_RULES,
    RULES,
    DirtyTracker,
    _pivot_anchors,
    _pivot_gadget_round,
    _run_rule,
)
from tests.conftest import random_circuit


def _composed(circuit1, circuit2):
    return circuit_to_zx(circuit1).adjoint().compose(circuit_to_zx(circuit2))


def _reduced(circuit1, circuit2):
    """The reduced ``G'·G†`` diagram, checked to be its own fixpoint."""
    diagram = _composed(circuit1, circuit2)
    full_reduce(diagram)
    assert full_reduce(diagram) == 0
    return diagram


def _denotes_pair(diagram, circuit1, circuit2):
    """The diagram is proportional to ``U2 · U1†`` (dense truth)."""
    truth = circuit_unitary(circuit2) @ circuit_unitary(circuit1).conj().T
    return diagrams_proportional(diagram_to_matrix(diagram), truth)


def _variant(circuit, kind, seed):
    if kind == "equivalent":
        return circuit
    if kind == "gate_missing":
        return remove_random_gate(circuit, seed=seed)
    if kind == "flipped_cnot":
        return flip_random_cnot(circuit, seed=seed)
    raise ValueError(kind)


class TestReduction:
    """Random Clifford+T verification instances against dense truth."""

    @pytest.mark.parametrize("kind", [
        "equivalent", "gate_missing", "flipped_cnot",
    ])
    @pytest.mark.parametrize("num_qubits", [4, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_fixpoint_denotes_the_pair(self, kind, num_qubits, seed):
        circuit = random_circuit(
            num_qubits, 6 * num_qubits, seed=seed, gate_set="clifford_t"
        )
        other = _variant(circuit, kind, seed)
        diagram = _reduced(circuit, other)
        assert _denotes_pair(diagram, circuit, other)
        if kind == "equivalent":
            assert diagram.is_identity_diagram()

    @pytest.mark.parametrize("kind", [
        "equivalent", "gate_missing", "flipped_cnot",
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_tensor_proportional(self, kind, seed):
        """At 3 qubits the unreduced diagram itself is cheap to evaluate."""
        circuit = random_circuit(3, 18, seed=seed, gate_set="clifford_t")
        other = _variant(circuit, kind, seed)
        before = diagram_to_matrix(_composed(circuit, other))
        diagram = _reduced(circuit, other)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_self_composition_property(self, seed):
        circuit = random_circuit(4, 24, seed=seed, gate_set="clifford_t")
        assert _reduced(circuit, circuit).is_identity_diagram()

    def test_preserves_semantics_vs_input(self):
        circuit = random_circuit(3, 20, seed=11, gate_set="clifford_t")
        diagram = _composed(circuit, circuit)
        before = diagram_to_matrix(diagram)
        full_reduce(diagram)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_tracker_detached_after_reduce(self):
        """full_reduce must not leave its tracker attached (copy/re-reduce)."""
        circuit = random_circuit(3, 10, seed=0, gate_set="clifford_t")
        diagram = _composed(circuit, circuit)
        full_reduce(diagram)
        assert diagram._tracker is None
        # a second reduction attaches a fresh tracker without complaint
        assert full_reduce(diagram) == 0


def _recomputed_indexes(diagram):
    """Phase indexes rebuilt from scratch — the tracker's invariant."""
    pauli, clifford = set(), set()
    for vertex in diagram.vertices():
        if diagram.vertex_type(vertex) is not VertexType.Z:
            continue
        phase = diagram.phase(vertex)
        if phase == 0 or phase == 1:
            pauli.add(vertex)
        elif phase == Fraction(1, 2) or phase == Fraction(3, 2):
            clifford.add(vertex)
    return pauli, clifford


class TestDirtyTracker:
    def _tracked_diagram(self, seed=0):
        circuit = random_circuit(3, 15, seed=seed, gate_set="clifford_t")
        diagram = to_graph_like(_composed(circuit, circuit))
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        return diagram, tracker

    def test_phase_indexes_mirror_diagram(self):
        diagram, tracker = self._tracked_diagram()
        pauli, clifford = _recomputed_indexes(diagram)
        assert tracker.pauli_spiders == pauli
        assert tracker.clifford_spiders == clifford

    def test_phase_indexes_track_mutations(self):
        diagram, tracker = self._tracked_diagram()
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.set_phase(spiders[0], Fraction(1, 2))
        diagram.set_phase(spiders[1], Fraction(1, 4))
        diagram.set_phase(spiders[2], Fraction(1))
        diagram.remove_vertex(spiders[3])
        vertex = diagram.add_vertex(VertexType.Z, Fraction(3, 2))
        diagram.connect(vertex, spiders[0], EdgeType.HADAMARD)
        pauli, clifford = _recomputed_indexes(diagram)
        assert tracker.pauli_spiders == pauli
        assert tracker.clifford_spiders == clifford

    def test_mutations_dirty_every_rule(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
            assert not tracker.pending(rule)
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.add_to_phase(spiders[0], Fraction(1, 2))
        for rule in RULES:
            assert tracker.pending(rule)

    @pytest.mark.parametrize("rule", sorted(NEIGHBORHOOD_RULES))
    def test_drain_includes_neighbors_of_dirty(self, rule):
        """The pivot-gadget guards read neighbor degrees and gadget
        fusion is non-local, so these two rules still expand."""
        diagram, tracker = self._tracked_diagram()
        for name in RULES:
            tracker.drain(name)
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.set_phase(spiders[0], Fraction(1, 4))
        candidates = tracker.drain(rule)
        assert spiders[0] in candidates
        assert set(diagram.neighbor_view(spiders[0])) <= set(candidates)

    @pytest.mark.parametrize(
        "rule", sorted(set(RULES) - NEIGHBORHOOD_RULES)
    )
    def test_local_rules_drain_exactly_the_dirty_vertices(self, rule):
        diagram, tracker = self._tracked_diagram()
        for name in RULES:
            tracker.drain(name)
        spider = next(
            v for v in diagram.vertices()
            if not diagram.is_boundary(v) and diagram.degree(v) > 1
        )
        diagram.set_phase(spider, Fraction(1, 4))
        assert tracker.drain(rule) == [spider]

    def test_pivot_anchors_of_a_dirty_pauli_spider(self):
        """A dirty Pauli spider scans all its edges; each Pauli neighbor
        scans only its edge back to it, and other neighbors not at all."""
        diagram = ZXDiagram()
        hub = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        pauli = [
            diagram.add_vertex(VertexType.Z, Fraction(1)) for _ in range(2)
        ]
        t_spider = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        _hadamard_edges(diagram, [(hub, n) for n in (*pauli, t_spider)])
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        for name in RULES:
            tracker.drain(name)
        diagram.set_phase(hub, Fraction(0))
        dirty = tracker.drain("pivot")
        assert dirty == [hub]
        assert _pivot_anchors(diagram, tracker, dirty) == [
            (hub, None), (pauli[0], [hub]), (pauli[1], [hub]),
        ]

    def test_removed_vertex_dirties_former_neighbors(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        victim = next(
            v for v in diagram.vertices()
            if not diagram.is_boundary(v) and diagram.degree(v) > 0
        )
        former_neighbors = set(diagram.neighbor_view(victim))
        diagram.remove_vertex(victim)
        candidates = set(tracker.drain("id"))
        assert victim not in candidates
        assert former_neighbors <= candidates

    def test_touch_between_two_drains_reaches_both_rules(self):
        """A touch after one rule drained and before another drains is a
        candidate for both, whichever drains first."""
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        spider = next(
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        )
        diagram.add_to_phase(spider, Fraction(1, 4))
        assert spider in tracker.drain("lcomp")
        assert spider in tracker.drain("id")

    @pytest.mark.parametrize("drained_between", [False, True])
    def test_touched_then_removed_is_never_a_candidate(self, drained_between):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        victim = next(
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        )
        diagram.set_phase(victim, Fraction(1, 4))
        rules = list(RULES)
        if drained_between:
            # the pending touch is folded into every rule before removal
            assert victim in tracker.drain(rules.pop())
        diagram.remove_vertex(victim)
        for rule in rules:
            assert victim not in tracker.drain(rule)

    def test_nothing_pending_once_every_rule_drained(self):
        diagram, tracker = self._tracked_diagram()
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        for mutate in (
            lambda: None,
            lambda: diagram.add_to_phase(spiders[0], Fraction(1, 2)),
            lambda: diagram.remove_vertex(spiders[1]),
        ):
            mutate()
            for rule in RULES:
                tracker.drain(rule)
            assert not any(tracker.pending(rule) for rule in RULES)

    def test_single_tracker_enforced(self):
        diagram, tracker = self._tracked_diagram()
        with pytest.raises(ValueError):
            diagram.attach_tracker(DirtyTracker(diagram))
        diagram.detach_tracker()
        diagram.attach_tracker(DirtyTracker(diagram))


def _local_matches(diagram):
    """Every current match of the four local rules, by brute force over
    every vertex and edge, as ``(rule, endpoints)``."""
    for vertex in diagram.vertices():
        if _id_applicable(diagram, vertex):
            yield "id", (vertex,)
        if _lcomp_applicable(diagram, vertex):
            yield "lcomp", (vertex,)
    for a, b, edge_type in diagram.edges():
        if edge_type is not EdgeType.HADAMARD:
            continue
        for anchor, partner in ((a, b), (b, a)):
            if not _pivot_endpoint_applicable(diagram, anchor):
                continue
            if anchor < partner and _pivot_endpoint_applicable(
                diagram, partner
            ):
                yield "pivot", (anchor, partner)
            if _pivot_boundary_partner_applicable(diagram, partner):
                yield "pivot_boundary", (anchor, partner)


class TestLocalMatchesStayQueued:
    """The identity, local-complementation and pivot rounds re-examine
    only their dirty vertices, which is complete only if every current
    match keeps an endpoint among them (or among the pending touches)
    after every round of every rule."""

    @pytest.fixture
    def checked_rounds(self, monkeypatch):
        seen = {"rounds": 0, "matches": 0}

        def checked(round_fn, diagram, tracker, counters):
            applied = round_fn(diagram, tracker, counters)
            seen["rounds"] += 1
            for rule, endpoints in _local_matches(diagram):
                queued = tracker._dirty[rule] | tracker._pending
                assert queued.intersection(endpoints), (rule, endpoints)
                seen["matches"] += 1
            return applied

        for rule, round_fn in list(worklist._ROUNDS.items()):
            monkeypatch.setitem(
                worklist._ROUNDS, rule,
                lambda *args, round_fn=round_fn: checked(round_fn, *args),
            )
        return seen

    @pytest.mark.parametrize("kind", ["equivalent", "gate_missing"])
    @pytest.mark.parametrize("gate_set", ["clifford_t", "mixed"])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("qubits, depth", [(4, 30), (6, 100)])
    def test_every_match_has_a_queued_endpoint(
        self, checked_rounds, qubits, depth, kind, gate_set, seed
    ):
        # the larger size reaches boundary pivots whose only dirty
        # endpoint is the boundary-adjacent partner
        circuit = random_circuit(qubits, depth, seed=seed, gate_set=gate_set)
        diagram = _composed(circuit, _variant(circuit, kind, seed))
        full_reduce(diagram)
        assert checked_rounds["rounds"] > 0
        assert checked_rounds["matches"] > 0


class TestLargerCircuit:
    def test_mixed_gate_set_reduces_to_identity(self):
        """Non-Clifford phases exercise the gadget machinery."""
        circuit = random_circuit(4, 30, seed=3, gate_set="mixed")
        assert _reduced(circuit, circuit).is_identity_diagram()

    def test_unequal_pair_stays_unequal(self):
        circuit = random_circuit(4, 30, seed=5, gate_set="clifford_t")
        broken_ops = list(circuit.operations)
        del broken_ops[len(broken_ops) // 2]
        broken = QuantumCircuit(4, operations=broken_ops)
        diagram = _reduced(circuit, broken)
        assert not diagram.is_identity_diagram()
        assert _denotes_pair(diagram, circuit, broken)


def _wired_support_spider(diagram, phase):
    """A Z spider on its own wire, between an input and an output."""
    i = diagram.add_vertex(VertexType.BOUNDARY)
    spider = diagram.add_vertex(VertexType.Z, phase)
    o = diagram.add_vertex(VertexType.BOUNDARY)
    diagram.connect(i, spider)
    diagram.connect(spider, o)
    diagram.inputs.append(i)
    diagram.outputs.append(o)
    return spider


def _add_gadget(diagram, support, phase):
    """A phase gadget (axis + leaf) on ``support``; returns the leaf."""
    axis = diagram.add_vertex(VertexType.Z)
    leaf = diagram.add_vertex(VertexType.Z, phase)
    for spider in support:
        diagram.connect(axis, spider, EdgeType.HADAMARD)
    diagram.connect(axis, leaf, EdgeType.HADAMARD)
    return leaf


class TestGadgetCache:
    """Gadget fusion is the one non-local match: the cache bridges two
    gadgets on the same support, so it must not lose a registered one."""

    def test_gadget_survives_a_support_phase_change(self):
        diagram = ZXDiagram()
        support = [
            _wired_support_spider(diagram, Fraction(1, 4)),
            _wired_support_spider(diagram, Fraction(1, 4)),
        ]
        first_leaf = _add_gadget(diagram, support, Fraction(1, 4))
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        try:
            # The first round registers the gadget in the support cache.
            assert _run_rule(diagram, tracker, "gadget", None, None) == 0
            assert frozenset(support) in tracker.gadget_supports
            # A support spider changes, dirtying the cached gadget's axis
            # but not its leaf, while a second gadget on the same support
            # appears.
            diagram.set_phase(support[0], Fraction(3, 8))
            second_leaf = _add_gadget(diagram, support, Fraction(1, 8))
            before = diagram_to_matrix(diagram)
            assert _run_rule(diagram, tracker, "gadget", None, None) == 1
        finally:
            diagram.detach_tracker()
        assert second_leaf not in diagram._types
        assert diagram.phase(first_leaf) == Fraction(3, 8)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)


class TestLostGadgetFusion:
    """``generate_instance(127, "rotations")``, a compiled 4-qubit pair
    (19 against 49 gates) that is equivalent.  The worklist engine used to
    stop with 6 spiders left: two support spiders and two gadgets on
    exactly that support, whose fusion the gadget cache had lost."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.fuzz.generator import generate_instance

        _, pair = generate_instance(127, "rotations")
        return pair

    def test_dense_truth_says_equivalent(self, pair):
        from repro.circuit import unitaries_equivalent
        from repro.ec.permutations import to_logical_form

        unitaries = [
            circuit_unitary(to_logical_form(circuit, pair.num_qubits)[0])
            for circuit in (pair.circuit1, pair.circuit2)
        ]
        assert pair.label == "equivalent"
        assert unitaries_equivalent(*unitaries)

    def test_zx_decides(self, pair):
        from repro.ec import Configuration, EquivalenceCheckingManager
        from repro.ec.results import Equivalence

        config = Configuration(strategy="zx", static_analysis=False)
        result = EquivalenceCheckingManager(
            pair.circuit1, pair.circuit2, config
        ).run()
        assert result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        assert result.statistics["spiders_remaining"] == 0


def _hadamard_edges(diagram, pairs):
    for u, v in pairs:
        diagram.connect(u, v, EdgeType.HADAMARD)


class TestEndpointClaims:
    """A pivot-family match ``(a, b)`` claims ``N(a) ∪ N(b)``; a later
    match of the same round only needs its two endpoints outside it.

    The diagrams are graph-like by hand: each ``w`` spider sits on its
    own wire (so it is not interior), ``a`` anchors are Pauli, ``b``
    partners carry a T phase, and each round is driven directly.
    """

    def _round(self, diagram, tracker):
        counters = PerfCounters()
        _pivot_gadget_round(diagram, tracker, counters)
        return (
            counters.counters.get("zx.pivot_gadget.matches", 0),
            counters.counters.get("zx.pivot_gadget.rewrites", 0),
        )

    def test_overlapping_neighbourhoods_share_one_round(self):
        diagram = ZXDiagram()
        w1, w2, w3 = (
            _wired_support_spider(diagram, Fraction(0)) for _ in range(3)
        )
        a1 = diagram.add_vertex(VertexType.Z, Fraction(0))
        b1 = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        shared = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        a2 = diagram.add_vertex(VertexType.Z, Fraction(1))
        b2 = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        _hadamard_edges(diagram, [
            (a1, b1), (a1, w1), (b1, w1), (b1, shared), (shared, w2),
            (a2, b2), (a2, w3), (b2, w3), (b2, shared),
        ])
        # (a2, b2) keeps both endpoints outside N(a1) ∪ N(b1), though
        # b2 shares a neighbour with b1.
        assert {a2, b2}.isdisjoint(
            set(diagram.neighbor_view(a1)) | set(diagram.neighbor_view(b1))
        )
        assert shared in diagram.neighbor_view(b2)
        before = diagram_to_matrix(diagram)
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        try:
            assert self._round(diagram, tracker) == (2, 2)
        finally:
            diagram.detach_tracker()
        assert not {a1, b1, a2, b2} & set(diagram.vertices())
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    @pytest.mark.parametrize("endpoint", ["anchor", "partner"])
    def test_endpoint_next_to_a_match_waits_for_a_later_round(
        self, endpoint
    ):
        diagram = ZXDiagram()
        w1, w2 = (
            _wired_support_spider(diagram, Fraction(0)) for _ in range(2)
        )
        a1 = diagram.add_vertex(VertexType.Z, Fraction(0))
        b1 = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        a2 = diagram.add_vertex(VertexType.Z, Fraction(1))
        b2 = diagram.add_vertex(VertexType.Z, Fraction(1, 4))
        # Either a2 is a neighbour of b1 or b2 one of a1, so (a2, b2)
        # must wait for (a1, b1).
        link = (b1, a2) if endpoint == "anchor" else (a1, b2)
        _hadamard_edges(diagram, [
            (a1, b1), (a1, w1), (b1, w1), link,
            (a2, b2), (a2, w2), (b2, w2),
        ])
        before = diagram_to_matrix(diagram)
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        try:
            assert self._round(diagram, tracker) == (1, 1)
            assert a2 in diagram.vertices()
            # re-queued by the round itself, not only by the pivot's
            # notifications (those are still pending, not yet folded)
            assert a2 in tracker._dirty["pivot_gadget"]
            assert self._round(diagram, tracker) == (1, 1)
            assert not {a2, b2} & set(diagram.vertices())
            assert self._round(diagram, tracker) == (0, 0)
        finally:
            diagram.detach_tracker()
        assert diagrams_proportional(diagram_to_matrix(diagram), before)
