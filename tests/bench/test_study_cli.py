"""End-to-end tests of the study harness CLI (`repro.bench.study.main`)."""

import pytest

import repro.bench.study as study
from repro.bench.algorithms import ghz_state
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.bench.suite import BenchmarkInstance
from repro.compile import compile_circuit, line_architecture


@pytest.fixture
def tiny_suite(monkeypatch):
    """Swap the real benchmark builders for a single tiny instance."""
    original = ghz_state(3)
    compiled = compile_circuit(original, line_architecture(4))
    instance = BenchmarkInstance(
        "ghz_3",
        "compiled",
        original,
        {
            "equivalent": compiled,
            "gate_missing": remove_random_gate(compiled, seed=1),
            "flipped_cnot": flip_random_cnot(compiled, seed=1),
        },
    )
    monkeypatch.setattr(
        study, "compiled_benchmarks", lambda scale, seed: [instance]
    )
    monkeypatch.setattr(
        study, "optimized_benchmarks", lambda scale, seed: [instance]
    )
    return instance


class TestStudyMain:
    def test_single_use_case(self, tiny_suite, capsys):
        assert study.main(["--use-case", "compiled", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert "Compiled Circuits" in out
        assert "ghz_3" in out
        assert "t_dd" in out and "t_zx" in out

    def test_both_use_cases(self, tiny_suite, capsys):
        assert study.main(["--use-case", "both", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert "Optimized Circuits" in out

    def test_report_written(self, tiny_suite, tmp_path, capsys):
        report = tmp_path / "run.md"
        assert (
            study.main(
                [
                    "--use-case", "compiled", "--timeout", "20",
                    "--report", str(report),
                ]
            )
            == 0
        )
        text = report.read_text()
        assert text.startswith("# Case-study run")
        assert "| ghz_3 |" in text

    def test_report_holds_the_printed_lines(
        self, tiny_suite, tmp_path, capsys
    ):
        """One renderer: the console table and the report are the same
        Markdown lines, a block per use case with one legend line."""
        report = tmp_path / "run.md"
        assert study.main(
            ["--use-case", "both", "--timeout", "20", "--report", str(report)]
        ) == 0
        text = report.read_text()
        assert capsys.readouterr().out == (
            text + f"\nreport written to {report}\n"
        )
        assert "## Compiled Circuits" in text
        assert "## Optimized Circuits" in text
        assert text.count("Cells: seconds per check (6 checks total)") == 2

    def test_unknown_use_case_rejected(self):
        with pytest.raises(SystemExit):
            study.main(["--use-case", "imaginary"])

    def test_run_table_rejects_unknown_use_case(self):
        with pytest.raises(ValueError):
            study.run_table(use_case="imaginary")


class TestWrongVerdictExitCode:
    def test_a_wrong_cell_exits_1(self, tiny_suite, capsys):
        # Plant a wrong verdict: the "equivalent" variant has a flipped
        # CNOT, so its t_dd cell proves non-equivalence and reads "!".
        tiny_suite.variants["equivalent"] = tiny_suite.variants["flipped_cnot"]
        assert study.main(["--use-case", "compiled", "--timeout", "20"]) == 1
        out = capsys.readouterr().out
        assert "!" in out
        assert "wrong verdicts: compiled:ghz_3:equivalent/dd" in out

    def test_timeouts_and_degraded_cells_exit_0(
        self, tiny_suite, capsys, monkeypatch
    ):
        from repro.ec.results import Equivalence, EquivalenceCheckingResult

        verdicts = iter(
            [Equivalence.TIMEOUT, Equivalence.NO_INFORMATION] * 3
        )

        class Undecided:
            def __init__(self, *args):
                pass

            def run(self):
                return EquivalenceCheckingResult(
                    next(verdicts), "combined", 0.0,
                    {"failure": {"kind": "crashed"}},
                )

        monkeypatch.setattr(study, "EquivalenceCheckingManager", Undecided)
        assert study.main(["--use-case", "compiled", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert ">20" in out and "crash" in out


class TestReproBench:
    """``repro bench`` is the study's own parser under the ``repro`` CLI."""

    def test_report_is_written(self, tiny_suite, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "t1.md"
        assert main(
            ["bench", "--use-case", "compiled", "--timeout", "20",
             "--report", str(report)]
        ) == 0
        assert "| ghz_3 |" in report.read_text()

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err == "repro bench: error: --resume requires --journal PATH\n"

    def test_every_study_option_is_accepted(self):
        from repro.cli import build_parser

        args = build_parser("bench").parse_args(["bench"])
        study_args = study.build_parser().parse_args([])
        assert vars(study_args).items() <= vars(args).items()
