"""Tests for the command-line interface (`repro.cli`)."""

import json

import pytest

from repro.bench.algorithms import ghz_state, qft
from repro.circuit import circuit_to_qasm
from repro.cli import main


@pytest.fixture
def qasm_files(tmp_path):
    original = tmp_path / "ghz.qasm"
    original.write_text(circuit_to_qasm(ghz_state(3)))
    other = tmp_path / "qft.qasm"
    other.write_text(circuit_to_qasm(qft(3)))
    return original, other


class TestVerifyCommand:
    def test_equivalent_exit_code(self, qasm_files, capsys):
        original, _ = qasm_files
        code = main(["verify", str(original), str(original)])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_non_equivalent_exit_code(self, qasm_files):
        original, other = qasm_files
        assert main(["verify", str(original), str(other)]) == 1

    def test_zx_no_information_exit_code(self, qasm_files):
        original, other = qasm_files
        code = main(
            ["verify", str(original), str(other), "--strategy", "zx"]
        )
        assert code in (1, 2)

    def test_verbose_prints_statistics(self, qasm_files, capsys):
        original, _ = qasm_files
        main([
            "verify", str(original), str(original),
            "--strategy", "alternating", "-v",
        ])
        assert "max_dd_size" in capsys.readouterr().out

    def test_verbose_prints_the_active_width(self, qasm_files, capsys):
        from repro.circuit import QuantumCircuit

        original, _ = qasm_files
        padded = original.parent / "ghz_padded.qasm"
        padded.write_text(circuit_to_qasm(
            QuantumCircuit(5, operations=list(ghz_state(3)))
        ))
        main([
            "verify", str(original), str(padded),
            "--strategy", "alternating", "-v",
        ])
        assert "checked 3 of 5 wires" in capsys.readouterr().out

    def test_stimuli_and_seed_options(self, qasm_files):
        original, _ = qasm_files
        code = main([
            "verify", str(original), str(original),
            "--strategy", "simulation", "--stimuli", "global_quantum",
            "--simulations", "3", "--seed", "7",
        ])
        assert code == 0


class TestCompileCommand:
    def test_compile_writes_qasm_and_sidecar(self, qasm_files, tmp_path):
        original, _ = qasm_files
        out = tmp_path / "compiled.qasm"
        code = main([
            "compile", str(original), "--device", "line:5",
            "-o", str(out),
        ])
        assert code == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "compiled.qasm.layout.json").read_text())
        assert "initial_layout" in sidecar
        assert "output_permutation" in sidecar

    def test_compiled_output_verifies_against_original(
        self, qasm_files, tmp_path
    ):
        """The full CLI round trip: compile, then verify via sidecar."""
        original, _ = qasm_files
        out = tmp_path / "compiled.qasm"
        main(["compile", str(original), "--device", "line:5", "-o", str(out)])
        code = main(["verify", str(original), str(out)])
        assert code == 0

    def test_lookahead_routing_option(self, qasm_files, tmp_path):
        original, _ = qasm_files
        out = tmp_path / "c.qasm"
        code = main([
            "compile", str(original), "--device", "grid:2x3",
            "--routing-method", "lookahead", "-o", str(out),
        ])
        assert code == 0

    def test_unknown_device_rejected(self, qasm_files, tmp_path):
        original, _ = qasm_files
        with pytest.raises(SystemExit):
            main([
                "compile", str(original), "--device", "torus:9",
                "-o", str(tmp_path / "x.qasm"),
            ])


class TestStatsCommand:
    def test_stats_output(self, qasm_files, capsys):
        original, _ = qasm_files
        assert main(["stats", str(original)]) == 0
        out = capsys.readouterr().out
        assert "qubits:          3" in out
        assert "cx=2" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_strategy_rejected(self, qasm_files):
        original, _ = qasm_files
        with pytest.raises(SystemExit):
            main([
                "verify", str(original), str(original),
                "--strategy", "psychic",
            ])
