"""Unit tests for the DD package's compute tables and their clears.

The package memoizes every operation in a plain dict per table and
empties all of them, between gate applications only, once one holds
more than ``COMPUTE_TABLE_CAP`` entries.  The key property under test:
*clears never change results*.  A clear costs recomputation but yields
the very same canonical nodes — the randomized stress test below checks
construction, multiplication and addition against dense truth and an
uncapped package with the cap monkeypatched to 0, to 8 and to the
default.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from repro.circuit.unitary import circuit_unitary
from repro.dd import array_package
from repro.dd.array_package import COMPUTE_TABLE_CAP, ArrayDDPackage
from repro.dd.complex_table import DEFAULT_TOLERANCE
from repro.dd.export import edge_to_matrix
from repro.dd.gates import (
    apply_operation_right,
    circuit_dd,
    simulate_circuit_dd,
)
from repro.ec import Configuration, EquivalenceCheckingManager

from tests.conftest import random_circuit

TABLES = (
    "add", "add_vec", "apply_left", "apply_right", "apply_vec",
    "conj", "inner", "mul", "mul_vec", "trace",
)


@pytest.fixture
def set_cap(monkeypatch):
    """Monkeypatch the module-level cap for one test."""
    def set_to(cap):
        monkeypatch.setattr(array_package, "COMPUTE_TABLE_CAP", cap)
    return set_to


def _entries(pkg):
    return {name: len(table) for name, table in pkg._tables.items()}


class TestComputeTables:
    def test_repeated_operation_hits(self):
        pkg = ArrayDDPackage()
        a = circuit_dd(pkg, random_circuit(3, 10, seed=1))
        b = circuit_dd(pkg, random_circuit(3, 10, seed=2))
        pkg.multiply(a, b)
        before = pkg.compute_table_stats()["mul"]
        assert before["misses"] == before["entries"] > 0
        pkg.multiply(a, b)
        after = pkg.compute_table_stats()["mul"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_zero_valued_entries_hit(self):
        # A memoized trace of 0j is falsy but still an entry: the X
        # block's trace is computed once and hit for the second
        # diagonal block, and the root's is hit on the second call.
        pkg = ArrayDDPackage()
        circuit = random_circuit(2, 0)
        circuit.x(0)
        x = circuit_dd(pkg, circuit)
        assert pkg.trace(x) == 0
        assert pkg.compute_table_stats()["trace"] == {
            "hits": 1, "misses": 2, "entries": 2,
        }
        assert pkg.trace(x) == 0
        assert pkg.compute_table_stats()["trace"]["hits"] == 2

    def test_stats_shape(self):
        pkg = ArrayDDPackage()
        stats = pkg.compute_table_stats()
        assert tuple(stats) == TABLES
        for table in stats.values():
            assert table == {"hits": 0, "misses": 0, "entries": 0}
        assert pkg.compute_table_clears == 0

    def test_clear_compute_tables_clears_all(self):
        pkg = ArrayDDPackage()
        circuit = random_circuit(3, 15, seed=2)
        circuit_dd(pkg, circuit)
        simulate_circuit_dd(pkg, circuit)
        assert any(_entries(pkg).values())
        pkg.clear_compute_tables()
        assert not any(_entries(pkg).values())
        assert pkg.compute_table_clears == 1

    def test_clear_keeps_counters(self):
        # A clear empties the tables but not the statistics: misses
        # keep the entries it dropped, so they count every insert.
        pkg = ArrayDDPackage()
        circuit_dd(pkg, random_circuit(3, 15, seed=2))
        before = pkg.compute_table_stats()
        pkg.clear_compute_tables()
        after = pkg.compute_table_stats()
        for name in TABLES:
            assert after[name]["hits"] == before[name]["hits"]
            assert after[name]["misses"] == before[name]["misses"]
            assert after[name]["entries"] == 0

    def test_no_table_size_knob(self):
        # The cap is the module constant, not a field or a parameter.
        names = {field.name for field in dataclasses.fields(Configuration)}
        assert not any("table" in name for name in names)
        with pytest.raises(TypeError):
            ArrayDDPackage(compute_table_size=64)

    def test_no_tolerance_parameter(self):
        # The package's complex table merges at DEFAULT_TOLERANCE; there
        # is no tolerance or shared-table parameter.
        with pytest.raises(TypeError):
            ArrayDDPackage(1e-6)
        assert ArrayDDPackage().tolerance == DEFAULT_TOLERANCE


class TestClearBetweenGates:
    def test_every_gate_application_clears_at_cap_zero(self, set_cap):
        set_cap(0)
        pkg = ArrayDDPackage()
        circuit = random_circuit(5, 40, seed=3)
        circuit_dd(pkg, circuit)
        # Building each gate diagram fills the add table, so every one
        # of the 40 applications starts by emptying the tables.
        assert pkg.compute_table_clears == len(circuit)

    def test_no_clear_inside_a_recursion(self, set_cap):
        # At cap 0 nothing survives from one gate application to the
        # next, so every mul hit comes from the application's own
        # recursion: a clear inside it would lose them.
        set_cap(0)
        pkg = ArrayDDPackage()
        circuit_dd(pkg, random_circuit(5, 40, seed=3))
        assert pkg.compute_table_stats()["mul"]["hits"] > 0

    def test_right_applications_clear_between_gates(self, set_cap):
        set_cap(0)
        pkg = ArrayDDPackage()
        circuit = random_circuit(4, 20, seed=4)
        u = pkg.identity(4)
        for op in circuit:
            u = apply_operation_right(pkg, u, op)
        assert pkg.compute_table_clears == len(circuit)

    def test_simulation_clears_between_gates(self, set_cap):
        set_cap(0)
        pkg = ArrayDDPackage()
        circuit = random_circuit(4, 20, seed=4)
        simulate_circuit_dd(pkg, circuit)
        assert pkg.compute_table_clears == len(circuit)

    def test_only_gate_applications_clear(self, set_cap):
        set_cap(0)
        pkg = ArrayDDPackage()
        a = circuit_dd(pkg, random_circuit(4, 12, seed=5))
        b = circuit_dd(pkg, random_circuit(4, 12, seed=6))
        clears = pkg.compute_table_clears
        pkg.multiply(a, b)
        pkg.add(a, b)
        pkg.trace(pkg.conjugate_transpose(a))
        assert pkg.compute_table_clears == clears
        assert all(
            _entries(pkg)[name] > 0 for name in ("mul", "add", "conj", "trace")
        )

    def test_one_full_table_clears_all(self, set_cap):
        pkg = ArrayDDPackage()
        circuit = random_circuit(4, 12, seed=5)
        state = simulate_circuit_dd(pkg, circuit)
        result = circuit_dd(pkg, circuit)
        entries = _entries(pkg)
        assert entries["mul"] > 0 and entries["apply_vec"] > 0
        set_cap(entries["mul"] - 1)
        clears = pkg.compute_table_clears
        # One gate application: the check finds mul over the cap and
        # empties every table, apply_vec included, before applying.
        pkg.apply_gate_left(pkg.identity(4), result)
        assert pkg.compute_table_clears == clears + 1
        assert _entries(pkg)["apply_vec"] == 0
        assert pkg.vector_dd_size(state) > 0

    def test_pinned_counts(self, set_cap):
        # Measured with the slot tables' unbounded mode before the dict
        # tables replaced them: with no clear, each table sees exactly
        # the hits and misses it saw there.  The 16,384-slot default
        # evicted on this scenario and read add 2848/4807, mul
        # 5733/9783.
        set_cap(sys.maxsize)
        pkg = ArrayDDPackage()
        first = random_circuit(5, 28, seed=3, gate_set="rotations")
        second = random_circuit(5, 28, seed=4, gate_set="rotations")
        u = circuit_dd(pkg, first)
        for op in second:
            u = apply_operation_right(pkg, u, op)
        pkg.trace(pkg.multiply(pkg.conjugate_transpose(u), u))
        pkg.inner_product(
            simulate_circuit_dd(pkg, first), simulate_circuit_dd(pkg, second)
        )
        stats = pkg.compute_table_stats()
        assert {
            name: (table["hits"], table["misses"])
            for name, table in stats.items()
        } == {
            "add": (2889, 4758),
            "add_vec": (56, 128),
            "apply_left": (64, 274),
            "apply_right": (32, 711),
            "apply_vec": (43, 134),
            "conj": (0, 341),
            "inner": (8, 23),
            "mul": (5735, 9781),
            "mul_vec": (318, 240),
            "trace": (4, 5),
        }
        assert pkg.compute_table_clears == 0


class TestEvictionStress:
    """Randomized stress: results are identical under any cap."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    def test_eviction_invariance(self, seed, gate_set, set_cap):
        circuits = [
            random_circuit(5, 25, seed=10 * seed + offset, gate_set=gate_set)
            for offset in range(2)
        ]
        truth_a, truth_b = (circuit_unitary(c) for c in circuits)
        truth = [truth_a, truth_b, truth_a @ truth_b, truth_a + truth_b]

        def run(cap):
            set_cap(cap)
            pkg = ArrayDDPackage()
            a = circuit_dd(pkg, circuits[0])
            b = circuit_dd(pkg, circuits[1])
            edges = [a, b, pkg.multiply(a, b), pkg.add(a, b)]
            return pkg, edges

        _, reference = run(sys.maxsize)
        for cap in (0, 8, COMPUTE_TABLE_CAP):
            pkg, edges = run(cap)
            if cap < COMPUTE_TABLE_CAP:
                # A tiny cap must actually clear, otherwise this stress
                # test exercises nothing.
                assert pkg.compute_table_clears > 0
            for edge, expected in zip(edges, truth):
                assert pkg.matrix_dd_size(edge) > 1
                np.testing.assert_allclose(
                    edge_to_matrix(edge, 5, pkg), expected, atol=1e-12
                )
            # Recomputation after a clear replays the same memoized
            # weight operations, so even the handles agree.
            assert edges == reference

    @pytest.mark.parametrize("cap", [0, 64, 4096, COMPUTE_TABLE_CAP])
    def test_checker_verdicts_invariant_under_table_size(self, cap, set_cap):
        from repro.bench.algorithms import ghz_state
        from repro.compile import compile_circuit, line_architecture
        from repro.ec.results import Equivalence

        set_cap(cap)
        original = ghz_state(6)
        compiled = compile_circuit(original, line_architecture(8))
        config = Configuration(strategy="alternating", seed=0)
        result = EquivalenceCheckingManager(original, compiled, config).run()
        assert result.equivalence in (
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        )
        clears = result.statistics["perf"]["compute_table_clears"]
        assert (clears > 0) == (cap == 0)

    def test_same_package_canonicity_under_clears(self):
        """Recomputing after a clear returns the *same* canonical node."""
        pkg = ArrayDDPackage()
        circuit = random_circuit(4, 30, seed=7)
        first = circuit_dd(pkg, circuit)
        nodes = pkg.mat.num_nodes
        pkg.clear_compute_tables()  # worst case: every memo gone
        second = circuit_dd(pkg, circuit)
        assert first == second
        assert pkg.mat.num_nodes == nodes
