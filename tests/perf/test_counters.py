"""Tests for the observability layer (`repro.perf`).

Covers the :class:`PerfCounters` primitive, the package statistics
snapshot, and the surfacing of both through checker results and the CLI.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import ghz_state
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.perf import PerfCounters, package_statistics
from tests.conftest import random_circuit


class TestPerfCounters:
    def test_phase_accumulates(self):
        perf = PerfCounters()
        with perf.phase("work"):
            pass
        first = perf.phase_seconds["work"]
        with perf.phase("work"):
            sum(range(1000))
        assert perf.phase_seconds["work"] >= first
        assert set(perf.phase_seconds) == {"work"}

    def test_phase_records_on_exception(self):
        perf = PerfCounters()
        with pytest.raises(RuntimeError):
            with perf.phase("failing"):
                raise RuntimeError("boom")
        assert "failing" in perf.phase_seconds

    def test_count(self):
        perf = PerfCounters()
        perf.count("gate_applications")
        perf.count("gate_applications", 4)
        assert perf.counters == {"gate_applications": 5}

    def test_as_dict_shape(self):
        perf = PerfCounters()
        with perf.phase("a"):
            pass
        out = perf.as_dict()
        assert set(out) == {"phase_seconds"}
        assert isinstance(out["phase_seconds"]["a"], float)
        perf.count("n", 3)
        out = perf.as_dict()
        assert out["counters"] == {"n": 3}


class TestPackageStatistics:
    def test_snapshot_keys(self):
        pkg = ArrayDDPackage()
        circuit_dd(pkg, random_circuit(4, 20, seed=0))
        simulate_circuit_dd(pkg, random_circuit(4, 10, seed=1))
        stats = package_statistics(pkg)
        assert set(stats) == {
            "compute_tables",
            "compute_table_clears",
            "complex_table",
            "unique_matrix_nodes",
            "unique_vector_nodes",
            "matrix_nodes_created",
            "vector_nodes_created",
            "node_stores",
        }
        assert stats["matrix_nodes_created"] > 0
        assert stats["vector_nodes_created"] > 0
        assert stats["unique_matrix_nodes"] <= stats["matrix_nodes_created"]
        assert stats["compute_table_clears"] == 0
        assert set(stats["complex_table"]) == {"hits", "misses", "size"}
        assert set(stats["node_stores"]) == {"matrix_store", "vector_store"}
        for store in stats["node_stores"].values():
            assert set(store) == {"nodes", "lookups", "hits"}
            assert store["hits"] <= store["lookups"]
        matrix_store = stats["node_stores"]["matrix_store"]
        assert matrix_store["nodes"] == stats["unique_matrix_nodes"]
        # Direct kernels were exercised, so their caches saw traffic.
        tables = stats["compute_tables"]
        assert tables["apply_left"]["misses"] > 0
        assert tables["apply_vec"]["misses"] > 0

    def test_nodes_created_counts_unique_table_misses_only(self):
        pkg = ArrayDDPackage()
        circuit = random_circuit(3, 10, seed=5)
        circuit_dd(pkg, circuit)
        created = pkg.matrix_nodes_created
        # Rebuilding the same circuit hits the unique table throughout.
        pkg.clear_compute_tables()
        circuit_dd(pkg, circuit)
        assert pkg.matrix_nodes_created == created


CHECKER_CASES = [
    ("construction", {"construction", "verdict"}),
    ("alternating", {"schedule", "alternation", "verdict"}),
    ("simulation", {"stimulus_preparation", "simulation", "fidelity"}),
    ("state", {"simulation", "fidelity"}),
]


class TestCheckerStatistics:
    @pytest.mark.parametrize("strategy,expected_phases", CHECKER_CASES)
    def test_result_carries_perf_block(self, strategy, expected_phases):
        circuit = ghz_state(4)
        config = Configuration(strategy=strategy, seed=0, num_simulations=2)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        assert "perf" in result.statistics
        if strategy != "state":
            assert "complex_table" in result.statistics
        perf = result.statistics["perf"]
        assert expected_phases <= set(perf["phase_seconds"])
        assert "compute_tables" in perf
        assert perf["unique_matrix_nodes"] >= 0

    def test_simulation_counts_blocks(self):
        # h(0) and cx(0,1), cx(1,2) fuse on wires 0-2; cx(2,3) starts a
        # second block.
        circuit = ghz_state(4)
        config = Configuration(strategy="simulation", seed=0, num_simulations=2)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        counters = result.statistics["perf"]["counters"]
        assert counters["dd.blocks_built"] == 4
        assert counters["dd.block_operations"] == 2 * len(circuit)
        # Two batches of one stimulus, each through both circuits' blocks.
        assert counters["dd.batched_block_applications"] == 8

    def test_alternating_counts_gate_applications(self):
        circuit = ghz_state(4)
        config = Configuration(strategy="alternating", seed=0)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        counters = result.statistics["perf"]["counters"]
        assert counters["gate_applications"] == 2 * len(circuit)


    def test_exhaustion_phase(self, monkeypatch):
        # Forced onto the basis columns, the combined result keeps the
        # stimuli's phases under "simulation" and adds the exhaustion's
        # under "columns".
        from repro.ec.sim_checker import ColumnChecker

        monkeypatch.setattr(ColumnChecker, "price", lambda self: 0.0)
        circuit = ghz_state(4)
        config = Configuration(seed=0, static_analysis=False)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        columns = result.statistics["columns"]
        assert columns["proof"] == "columns"
        perf = columns["perf"]
        assert set(perf["phase_seconds"]) == {"exhaustion"}
        assert perf["counters"]["dd.batched_block_applications"] > 0
        assert "apply_vec" in perf["compute_tables"]
        simulation = result.statistics["simulation"]["perf"]
        assert {"stimulus_preparation", "simulation", "fidelity"} <= set(
            simulation["phase_seconds"]
        )


class TestCliSurfacing:
    @pytest.fixture
    def qasm_file(self, tmp_path):
        from repro.circuit import circuit_to_qasm

        path = tmp_path / "ghz.qasm"
        path.write_text(circuit_to_qasm(ghz_state(3)))
        return path

    def test_verbose_prints_nested_perf_statistics(self, qasm_file, capsys):
        from repro.cli import main

        code = main([
            "verify", str(qasm_file), str(qasm_file),
            "--strategy", "alternating", "-v",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perf:" in out
        assert "phase_seconds:" in out
        assert "complex_table:" in out
        assert "apply_left:" in out
        assert "compute_table_clears: 0" in out

    def test_verbose_prints_both_combined_blocks(self, qasm_file, capsys):
        # The combined schedule says which proof decided ("columns") and
        # keeps the stimuli stage's perf ("simulation").
        from repro.cli import main

        code = main([
            "verify", str(qasm_file), str(qasm_file),
            "--no-static-analysis", "-v",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "  columns:\n" in out
        assert "    proof: " in out
        assert "    price_seconds: " in out
        assert "    steps_done: " in out
        assert "  simulation:\n" in out
        assert "stimulus_preparation: " in out

    def test_compute_table_size_flag(self, qasm_file, capsys):
        # The cap is a module constant: the old flag is an unknown
        # argument, not a silently ignored one.
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([
                "verify", str(qasm_file), str(qasm_file),
                "--strategy", "construction", "--compute-table-size", "64",
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --compute-table-size 64" in err
