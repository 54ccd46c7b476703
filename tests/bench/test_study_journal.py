"""Robustness features of the Table-1 harness: overrun flagging,
JSONL journaling with ``--resume``, and chaos containment at table level."""

import time

import pytest

import repro.bench.study as study
import repro.harness
from repro.bench.algorithms import ghz_state
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.bench.study import CellResult, run_instance, run_table
from repro.bench.suite import BenchmarkInstance
from repro.compile import compile_circuit, line_architecture
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.harness import Journal
from repro.harness.chaos import ChaosSpec


@pytest.fixture
def tiny_instance():
    original = ghz_state(3)
    compiled = compile_circuit(original, line_architecture(4))
    return BenchmarkInstance(
        "ghz_3",
        "compiled",
        original,
        {
            "equivalent": compiled,
            "gate_missing": remove_random_gate(compiled, seed=1),
            "flipped_cnot": flip_random_cnot(compiled, seed=1),
        },
    )


@pytest.fixture
def tiny_suite(monkeypatch, tiny_instance):
    monkeypatch.setattr(
        study, "compiled_benchmarks", lambda scale, seed: [tiny_instance]
    )
    monkeypatch.setattr(
        study, "optimized_benchmarks", lambda scale, seed: [tiny_instance]
    )
    return tiny_instance


class TestOverrunAccounting:
    def test_cooperative_overrun_is_flagged(self, tiny_instance, monkeypatch):
        """A check that returns a verdict *after* blowing its budget must
        render as '>T', not as a normal runtime."""

        class SlowManager:
            def __init__(self, *args, **kwargs):
                pass

            def run(self):
                time.sleep(0.05)
                return EquivalenceCheckingResult(
                    Equivalence.EQUIVALENT, "combined", 0.05
                )

        monkeypatch.setattr(study, "EquivalenceCheckingManager", SlowManager)
        row = run_instance(tiny_instance, timeout=0.01, seed=0)
        for cell in row.cells.values():
            assert cell.overrun
            assert not cell.timed_out  # verdict was not TIMEOUT ...
            assert cell.render(0.01) == ">0.01"  # ... yet it renders as one

    def test_within_budget_not_flagged(self, tiny_instance):
        row = run_instance(tiny_instance, timeout=30.0, seed=0)
        for cell in row.cells.values():
            assert not cell.overrun
            assert not cell.render(30.0).startswith(">")

    def test_timeout_verdict_still_renders_as_timeout(self):
        cell = CellResult(5.0, Equivalence.TIMEOUT, True, None)
        assert cell.render(2.0) == ">2"

    def test_failure_cells_render_codes(self):
        cell = CellResult(
            0.1, Equivalence.NO_INFORMATION, False, None,
            failure="out_of_memory",
        )
        assert cell.render(60.0) == "oom"
        cell = CellResult(
            0.1, Equivalence.NO_INFORMATION, False, None, failure="crashed"
        )
        assert cell.render(60.0) == "crash"


class TestCellRecordRoundTrip:
    def test_round_trip(self):
        cell = CellResult(
            1.25, Equivalence.NOT_EQUIVALENT, False, True,
            overrun=False, failure=None,
        )
        restored = CellResult.from_record(cell.to_record())
        assert restored.seconds == cell.seconds
        assert restored.verdict is cell.verdict
        assert restored.correct is True
        assert restored.cached

    def test_round_trip_degraded(self):
        cell = CellResult(
            0.5, Equivalence.NO_INFORMATION, False, None,
            overrun=True, failure="crashed",
        )
        restored = CellResult.from_record(cell.to_record())
        assert restored.overrun
        assert restored.failure == "crashed"
        assert restored.correct is None

    def test_round_trip_portfolio_attribution(self):
        """The deciding lane and loser kill codes survive the journal."""
        cell = CellResult(
            0.3, Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE, False, True,
            decided_by="zx",
            kills={"alternating": "loser", "construction": "loser"},
        )
        record = cell.to_record()
        assert record["decided_by"] == "zx"
        restored = CellResult.from_record(record)
        assert restored.decided_by == "zx"
        assert restored.kills == {
            "alternating": "loser", "construction": "loser",
        }

    def test_round_trip_stimuli(self):
        cell = CellResult(
            0.1, Equivalence.NOT_EQUIVALENT, False, True,
            decided_by="simulation", stimuli=4,
        )
        record = cell.to_record()
        assert (record["decided_by"], record["stimuli"]) == ("simulation", 4)
        restored = CellResult.from_record(record)
        assert (restored.decided_by, restored.stimuli) == ("simulation", 4)

    def test_unset_fields_are_omitted(self):
        cell = CellResult(1.0, Equivalence.EQUIVALENT, False, True)
        record = cell.to_record()
        assert not {"decided_by", "stimuli", "kills"} & set(record)
        restored = CellResult.from_record(record)
        assert restored.decided_by is None
        assert restored.stimuli is None
        assert restored.kills is None


class TestJournalResume:
    def _run_with_journal(self, instance, path, resume=False):
        with Journal(path, {"timeout": 30.0, "seed": 0}, resume=resume) as j:
            row = run_instance(instance, timeout=30.0, seed=0, journal=j)
        return row

    def test_completed_cells_not_re_run(
        self, tiny_instance, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        first = self._run_with_journal(tiny_instance, path)

        calls = []
        real_manager = study.EquivalenceCheckingManager

        class CountingManager(real_manager):
            def run(self):
                calls.append(1)
                return super().run()

        monkeypatch.setattr(study, "EquivalenceCheckingManager", CountingManager)
        resumed = self._run_with_journal(tiny_instance, path, resume=True)
        assert calls == []  # every cell restored from the journal
        for key, cell in resumed.cells.items():
            assert cell.cached
            assert cell.verdict is first.cells[key].verdict

    def test_partial_journal_reruns_only_missing_cells(
        self, tiny_instance, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        self._run_with_journal(tiny_instance, path)
        # Simulate a kill after three completed cells: header + 3 records.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")

        calls = []
        real_manager = study.EquivalenceCheckingManager

        class CountingManager(real_manager):
            def run(self):
                calls.append(1)
                return super().run()

        monkeypatch.setattr(study, "EquivalenceCheckingManager", CountingManager)
        resumed = self._run_with_journal(tiny_instance, path, resume=True)
        assert len(calls) == 3  # exactly the journaled-but-missing cells
        assert sum(cell.cached for cell in resumed.cells.values()) == 3

    def test_main_resume_flow(self, tiny_suite, tmp_path, capsys):
        path = tmp_path / "study.jsonl"
        args = [
            "--use-case", "compiled", "--timeout", "30",
            "--journal", str(path),
        ]
        assert study.main(args) == 0
        capsys.readouterr()
        assert study.main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming: 6 cells restored" in out

    def test_main_resume_requires_journal(self):
        with pytest.raises(SystemExit):
            study.main(["--resume"])

    def test_mismatched_journal_refused(self, tiny_suite, tmp_path):
        path = tmp_path / "study.jsonl"
        assert (
            study.main(
                ["--use-case", "compiled", "--timeout", "30",
                 "--journal", str(path)]
            )
            == 0
        )
        from repro.harness import JournalMismatch

        with pytest.raises(JournalMismatch):
            study.main(
                ["--use-case", "compiled", "--timeout", "60",
                 "--journal", str(path), "--resume"]
            )

    def test_portfolio_flag_mismatch_refused(self, tiny_suite, tmp_path):
        """A sequential journal must not silently resume as a portfolio
        run (or vice versa) — the cells would not be comparable."""
        path = tmp_path / "study.jsonl"
        assert (
            study.main(
                ["--use-case", "compiled", "--timeout", "30",
                 "--journal", str(path)]
            )
            == 0
        )
        from repro.harness import JournalMismatch

        with pytest.raises(JournalMismatch):
            study.main(
                ["--use-case", "compiled", "--timeout", "30",
                 "--journal", str(path), "--resume", "--portfolio"]
            )


class TestDecidedBy:
    def test_sequential_cells_name_the_deciding_stage(self, tiny_instance):
        row = run_instance(tiny_instance, timeout=30.0, seed=0)
        for key, cell in row.cells.items():
            if key.endswith("/zx"):
                assert cell.decided_by == "zx", key
            else:
                assert cell.decided_by is not None, key
            # Only a verdict of the stimuli carries their count.
            assert (cell.stimuli is not None) == (
                cell.decided_by == "simulation"
            ), key
            assert cell.kills is None, key

    def test_raced_cells_name_the_winning_lane(self, tiny_instance):
        row = run_instance(
            tiny_instance, timeout=30.0, seed=0, portfolio=True
        )
        for key, cell in row.cells.items():
            if key.endswith("/dd"):
                # The racing column: every cell records which lane won.
                assert cell.decided_by is not None, key
            else:
                # The standalone ZX column never races.
                assert cell.decided_by == "zx", key
                assert cell.kills is None, key

    def test_failed_cells_name_no_stage(self, tiny_instance, monkeypatch):
        class Crashing:
            def __init__(self, *args):
                pass

            def run(self):
                return EquivalenceCheckingResult(
                    Equivalence.NO_INFORMATION, "combined", 0.0,
                    {"failure": {"kind": "crashed"}},
                )

        monkeypatch.setattr(study, "EquivalenceCheckingManager", Crashing)
        row = run_instance(tiny_instance, timeout=30.0, seed=0)
        assert all(cell.decided_by is None for cell in row.cells.values())


@pytest.mark.chaos
class TestTableLevelContainment:
    def test_one_crashing_cell_does_not_kill_the_table(
        self, tiny_instance, monkeypatch
    ):
        """First cell crashes hard in its sandbox; the harness records a
        structured failure and completes the remaining five cells."""
        baseline = run_instance(tiny_instance, timeout=30.0, seed=0)
        real_run_check = repro.harness.run_check
        calls = []

        def chaotic_run_check(circuit1, circuit2, configuration, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                kwargs["chaos"] = ChaosSpec(mode="crash")
                kwargs["retry"] = None
                configuration = type(configuration)(
                    **{**configuration.__dict__, "max_retries": 0}
                )
            return real_run_check(
                circuit1, circuit2, configuration, **kwargs
            )

        monkeypatch.setattr(repro.harness, "run_check", chaotic_run_check)
        row = run_instance(tiny_instance, timeout=30.0, seed=0, isolate=True)
        keys = list(row.cells)
        assert len(keys) == 6
        crashed = row.cells[keys[0]]
        assert crashed.failure == "crashed"
        assert crashed.verdict is Equivalence.NO_INFORMATION
        for key in keys[1:]:
            cell = row.cells[key]
            assert cell.failure is None
            assert cell.verdict is baseline.cells[key].verdict, key

    def test_isolated_and_in_process_tables_agree(self, tiny_suite):
        isolated = run_table(use_case="compiled", timeout=30.0, isolate=True)
        in_process = run_table(
            use_case="compiled", timeout=30.0, isolate=False
        )
        for row_iso, row_in in zip(isolated, in_process):
            for key in row_in.cells:
                assert (
                    row_iso.cells[key].verdict is row_in.cells[key].verdict
                ), key
