"""Tests for the command-line interface (`repro.cli`)."""

import json
import socket

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


class TestVerifyUsageErrors:
    """A bad option value is a usage error: exit 2, never the NEQ status."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--simulations", "-1"],
            ["--timeout", "-5"],
            ["--portfolio", "--strategy", "zx"],
            ["--timeout", "-5", "--isolate"],
        ],
        ids=["simulations", "timeout", "portfolio-zx", "timeout-isolate"],
    )
    def test_one_error_line_and_exit_2(self, qasm_files, capsys, flags):
        original, _ = qasm_files
        code = main(["verify", str(original), str(original), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro verify: error: ")


class TestRunCommandUsageErrors:
    """``bench``, ``fuzz``, ``serve`` and ``soak`` check their option
    values before any work starts: one error line, exit 2 (for
    ``bench``, exit 1 would mean a wrong verdict)."""

    @pytest.fixture(autouse=True)
    def no_work_starts(self, monkeypatch, tmp_path):
        """Fail the test if a bad value reaches a table, a campaign, a
        pool or a server; none of them is started."""
        import repro.bench.study
        import repro.fuzz
        import repro.service

        def refuse(*_args, **_kwargs):
            raise AssertionError("work started with a bad option value")

        monkeypatch.setattr(repro.bench.study, "run", refuse)
        monkeypatch.setattr(repro.fuzz, "run_fuzz", refuse)
        monkeypatch.setattr(repro.service, "WorkerPool", refuse)
        monkeypatch.setattr(repro.service, "ServiceServer", refuse)
        monkeypatch.setattr(repro.service, "run_soak", refuse)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--use-case", "compiled", "--timeout", "0"],
             "timeout must be positive"),
            (["bench", "--use-case", "compiled", "--retries", "-1"],
             "max_retries must be at least 0"),
            (["fuzz", "--budget", "0"], "budget must be at least 1"),
            (["fuzz", "--timeout", "0"], "check_timeout must be positive"),
            (["fuzz", "--max-seconds", "0"], "max_seconds must be positive"),
            (["fuzz", "--qubits", "0"], "num_qubits must be at least 1"),
            (["serve", "--workers", "0"], "workers must be a positive"),
            (["serve", "--queue-depth", "0"], "queue_depth must be at least 1"),
            (["serve", "--memory-limit", "0"], "memory_mb must be at least 1"),
            (["serve", "--max-worker-rss", "0"],
             "max_worker_rss_mb must be positive"),
            (["soak", "--jobs", "0"], "jobs must be positive"),
            (["soak", "--fault-rate", "2"], "fault_rate must be within [0, 1]"),
        ],
        ids=[
            "bench-timeout", "bench-retries", "fuzz-budget", "fuzz-timeout",
            "fuzz-max-seconds", "fuzz-qubits", "serve-workers",
            "serve-queue-depth", "serve-memory-limit", "serve-max-worker-rss",
            "soak-jobs", "soak-fault-rate",
        ],
    )
    def test_one_error_line_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: {message}")


@pytest.fixture
def analyze_files(tmp_path):
    """A pair, and the pair with an extra X on its idle wire 2."""
    from repro.circuit import QuantumCircuit

    base = QuantumCircuit(3).h(0).cx(0, 1)
    paths = []
    for name, circuit in (("base", base), ("extra_x", base.copy().x(2))):
        path = tmp_path / f"{name}.qasm"
        path.write_text(circuit_to_qasm(circuit))
        paths.append(str(path))
    return paths


class TestAnalyzeCommand:
    def test_sound_neq_witness_exits_1(self, analyze_files, capsys):
        base, extra_x = analyze_files
        assert main(["analyze", base, extra_x]) == 1
        assert "not_equivalent" in capsys.readouterr().out

    def test_undecided_pair_exits_0(self, qasm_files, capsys):
        original, qft_file = qasm_files
        assert main(["analyze", str(original), str(original)]) == 0
        out = capsys.readouterr().out
        # GHZ is Clifford: the plan puts the stabilizer lane first.
        assert (
            "plan:      stabilizer, simulation, alternating, zx, construction"
            in out.splitlines()
        )
        assert "score" not in out
        assert main(["analyze", str(qft_file), str(qft_file)]) == 0
        assert (
            "plan:      simulation, alternating, zx, construction"
            in capsys.readouterr().out.splitlines()
        )

    def test_json_payload(self, analyze_files, capsys):
        base, extra_x = analyze_files
        assert main(["analyze", base, extra_x, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "not_equivalent"
        assert payload["witness"]["pass"] == "support"
        assert "support" in payload["passes_run"]
        assert {"profiles", "lanes"} <= set(payload)
        assert "estimate" not in payload

    def test_timeout_exits_2(self, analyze_files, capsys):
        base, extra_x = analyze_files
        code = main(["analyze", base, extra_x, "--timeout", "1e-9"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "timed out" in captured.err

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_non_positive_timeout_is_a_usage_error(
        self, analyze_files, capsys, timeout
    ):
        base, extra_x = analyze_files
        assert main(["analyze", base, extra_x, "--timeout", timeout]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_option_is_gone(self, analyze_files):
        base, extra_x = analyze_files
        with pytest.raises(SystemExit):
            main(["analyze", base, extra_x, "--seed", "1"])


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

    @pytest.mark.parametrize(
        "device", ["torus:9", "line:x", "ring:0", "grid:2", "grid:2x-1"]
    )
    def test_unknown_device_rejected(self, qasm_files, tmp_path, capsys, device):
        original, _ = qasm_files
        code = main([
            "compile", str(original), "--device", device,
            "-o", str(tmp_path / "x.qasm"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro compile: error: unknown device {device!r} (use manhattan, "
            "line:N, ring:N or grid:RxC, with positive sizes)\n"
        )
        assert not (tmp_path / "x.qasm").exists()

    def test_circuit_wider_than_device_rejected(
        self, qasm_files, tmp_path, capsys
    ):
        original, _ = qasm_files
        code = main([
            "compile", str(original), "--device", "line:2",
            "-o", str(tmp_path / "x.qasm"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro compile: error: {original}: 3 qubits do not fit on "
            "line-2 (2 qubits)\n"
        )

    def test_input_with_a_layout_rejected(self, qasm_files, tmp_path, capsys):
        """Compiling ``compile``'s own output again: the sidecar gives the
        input a layout, which the compiler cannot take."""
        original, _ = qasm_files
        compiled = tmp_path / "c.qasm"
        assert main([
            "compile", str(original), "--device", "line:5",
            "-o", str(compiled),
        ]) == 0
        capsys.readouterr()
        code = main([
            "compile", str(compiled), "--device", "line:5",
            "-o", str(tmp_path / "cc.qasm"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro compile: error: {compiled}: input circuit already "
            "carries layout metadata\n"
        )
        assert not (tmp_path / "cc.qasm").exists()

    @pytest.mark.parametrize("level", ["0", "1", "2"])
    def test_each_optimization_level_verifies(self, qasm_files, tmp_path, level):
        original, _ = qasm_files
        out = tmp_path / "compiled.qasm"
        code = main([
            "compile", str(original), "--device", "line:5",
            "--optimization-level", level, "-o", str(out),
        ])
        assert code == 0
        assert main(["verify", str(original), str(out)]) == 0

    @pytest.mark.parametrize("level", ["-1", "3", "7"])
    def test_unknown_optimization_level_exits_2(
        self, qasm_files, tmp_path, capsys, level
    ):
        original, _ = qasm_files
        out = tmp_path / "x.qasm"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "compile", str(original), "--device", "line:5",
                "--optimization-level", level, "-o", str(out),
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert errors[0].startswith(
            "repro compile: error: argument --optimization-level: "
            "invalid choice"
        )
        assert not out.exists()


class TestStatsCommand:
    def test_stats_output(self, qasm_files, capsys):
        original, _ = qasm_files
        assert main(["stats", str(original)]) == 0
        out = capsys.readouterr().out
        assert "qubits:          3" in out
        assert "cx=2" in out


class TestSubmitCommand:
    def test_odd_number_of_circuits_is_a_usage_error(
        self, qasm_files, tmp_path, capsys
    ):
        """Exit 1 would read as "a pair is not equivalent"."""
        original, other = qasm_files
        code = main([
            "submit", "--socket", str(tmp_path / "none.sock"),
            str(original), str(other), str(original),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro submit: error: needs an even number of circuits (pairs "
            "of original/compiled QASM files), got 3\n"
        )

    @pytest.mark.parametrize("server", ["missing", "not_listening"])
    def test_unreachable_service_is_a_usage_error(
        self, qasm_files, tmp_path, capsys, server
    ):
        """No server on ``--socket``: one line and exit 2, not a
        traceback and the non-equivalence status."""
        original, _ = qasm_files
        path = tmp_path / "service.sock"
        reason = "No such file or directory"
        if server == "not_listening":
            # a socket file that nothing listens on refuses connections
            bound = socket.socket(socket.AF_UNIX)
            bound.bind(str(path))
            bound.close()
            reason = "Connection refused"
        code = main([
            "submit", "--socket", str(path), str(original), str(original),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro submit: error: cannot reach the service at {path}: "
            f"{reason}\n"
        )


class TestUnreadableInput:
    """A missing or malformed input file is a usage error, never the
    NEQ status: one ``error:`` line naming the file, exit 2."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nfrob q[0];\n'
        )
        return bad

    @pytest.mark.parametrize(
        "command", ["verify", "analyze", "compile", "stats", "submit"]
    )
    def test_malformed_qasm(self, command, bad_file, qasm_files, tmp_path, capsys):
        good, _ = qasm_files
        argv = {
            "verify": ["verify", str(bad_file), str(good)],
            "analyze": ["analyze", str(good), str(bad_file)],
            "compile": ["compile", str(bad_file), "-o", str(tmp_path / "o.qasm")],
            "stats": ["stats", str(bad_file)],
            "submit": [
                "submit", "--socket", str(tmp_path / "none.sock"),
                str(good), str(bad_file),
            ],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == (
            f"repro {command}: error: {bad_file}: "
            "line 4, column 1: unknown gate 'frob'"
        )
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("gate g a { g a; }", "line 4, column 12: gate 'g' applies 'g'"),
            ("gate g a { x b; }", "line 4, column 14: 'b' is not a qubit"),
        ],
        ids=["recursion", "free-qubit"],
    )
    def test_malformed_macro(self, body, message, qasm_files, tmp_path, capsys):
        good, _ = qasm_files
        bad = tmp_path / "macro.qasm"
        bad.write_text(
            f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{body}\n'
            "g q[0];\n"
        )
        assert main(["verify", str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"repro verify: error: {bad}: {message}"
        )
        assert "Traceback" not in captured.err

    def test_missing_file(self, qasm_files, tmp_path, capsys):
        good, _ = qasm_files
        missing = tmp_path / "missing.qasm"
        assert main(["verify", str(good), str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"repro verify: error: {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ("[1, 2]", "layout must be an object, not list"),
            ('{"initial_layout": [0, 1, 2]}',
             "initial_layout must be an object or null, not list"),
            ('{"initial_layout": {"0": 1.9, "1": 0.2, "2": 2}}',
             "initial_layout: value 1.9 of key '0' is not an integer"),
            ('{"output_permutation": {"0": true}}',
             "output_permutation: value True of key '0' is not an integer"),
        ],
        ids=["top-level list", "section list", "float value", "bool value"],
    )
    @pytest.mark.parametrize(
        "command", ["verify", "analyze", "compile", "stats", "submit"]
    )
    def test_malformed_layout(
        self, command, sidecar, message, qasm_files, tmp_path, capsys
    ):
        good, _ = qasm_files
        layout = tmp_path / f"{good.name}.layout.json"
        layout.write_text(sidecar)
        argv = {
            "verify": ["verify", str(good), str(good)],
            "analyze": ["analyze", str(good)],
            "compile": ["compile", str(good), "-o", str(tmp_path / "o.qasm")],
            "stats": ["stats", str(good)],
            "submit": [
                "submit", "--socket", str(tmp_path / "none.sock"),
                str(good), str(good),
            ],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro {command}: error: {layout}: {message}\n"

    def test_null_layout_sections_mean_empty(self, qasm_files, tmp_path, capsys):
        good, _ = qasm_files
        (tmp_path / f"{good.name}.layout.json").write_text(
            '{"initial_layout": null, "output_permutation": null}'
        )
        assert main(["verify", str(good), str(good)]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_layout_given_by_option(self, qasm_files, tmp_path, capsys):
        """An explicit ``--layout1`` is read, never skipped: checking a
        compiled circuit without its layout can prove a false NEQ."""
        good, _ = qasm_files
        missing = tmp_path / "missing.layout.json"
        code = main(["verify", str(good), str(good), "--layout1", str(missing)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro verify: error: {missing}: No such file or directory\n"
        )


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
