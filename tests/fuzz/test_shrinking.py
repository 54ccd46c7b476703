"""Shrinking and repro persistence — the planted-bug acceptance path.

A chaos-style lying checker is planted through the oracle's verdict
hook; the campaign must catch the disagreement, shrink the instance and
persist a small QASM repro plus a journal entry into the corpus.
"""

import dataclasses
import json

import pytest

from repro.circuit import QuantumCircuit, circuit_from_qasm
from repro.ec.results import Equivalence
from repro.fuzz import FuzzSettings, run_fuzz
from repro.fuzz.generator import FuzzInstance, generate_instance
from repro.fuzz.shrink import shrink_instance


class TestShrinkInstance:
    def test_greedy_reduction_to_trigger(self):
        instance, _ = generate_instance(
            2, "clifford_t", num_qubits=4, num_gates=18
        )

        def reproduces(candidate: FuzzInstance) -> bool:
            # "Bug" fires whenever the base keeps a two-qubit gate.
            return any(len(op.qubits) >= 2 for op in candidate.base)

        assert reproduces(instance)
        result = shrink_instance(instance, reproduces)
        assert result.shrunk_gates <= 2
        assert reproduces(result.instance)
        assert result.checks <= 200
        assert not result.exhausted

    def test_budget_exhaustion_returns_best_so_far(self):
        instance, _ = generate_instance(
            3, "clifford_t", num_qubits=4, num_gates=18
        )
        result = shrink_instance(instance, lambda _c: True, max_checks=5)
        assert result.exhausted
        assert result.checks == 5
        assert result.shrunk_gates < result.original_gates

    def test_non_reproducing_candidates_rejected(self):
        instance, _ = generate_instance(
            4, "clifford_t", num_qubits=3, num_gates=10
        )
        result = shrink_instance(instance, lambda _c: False, max_checks=50)
        # nothing reproduces, so nothing may be removed
        assert result.shrunk_gates == result.original_gates


class TestPlantedBugEndToEnd:
    @pytest.fixture
    def lying_hook(self):
        def hook(name, pair, result):
            # Planted checker bug: the ZX checker falsely
            # refutes any pair whose second circuit has > 8 gates.
            if name == "zx" and len(pair.circuit2) > 8:
                return dataclasses.replace(
                    result, equivalence=Equivalence.NOT_EQUIVALENT
                )
            return result

        return hook

    def test_bug_caught_shrunk_and_persisted(self, tmp_path, lying_hook):
        settings = FuzzSettings(
            seed=5,
            budget=6,
            family="clifford_t",
            num_qubits=3,
            num_gates=16,
            corpus_dir=str(tmp_path / "corpus"),
            check_timeout=20.0,
        )
        outcome = run_fuzz(settings, verdict_hook=lying_hook)
        assert outcome.exit_code == 2
        assert outcome.disagreements

        repro = outcome.disagreements[0]
        kinds = {d["kind"] for d in repro.report.disagreements}
        assert "cross_checker" in kinds

        # the minimized base must be genuinely small
        assert len(repro.instance.base) <= 12
        assert repro.shrink_info["shrunk_gates"] <= 12
        assert (
            repro.shrink_info["shrunk_gates"]
            <= repro.shrink_info["original_gates"]
        )

        # ... and persisted as a loadable QASM pair with metadata
        target = tmp_path / "corpus" / repro.path.split("/")[-1]
        assert target.is_dir()
        circuit1 = circuit_from_qasm((target / "circuit1.qasm").read_text())
        circuit2 = circuit_from_qasm((target / "circuit2.qasm").read_text())
        assert len(circuit1) <= 12
        assert isinstance(circuit2, QuantumCircuit)
        meta = json.loads((target / "meta.json").read_text())
        assert meta["oracle"]["disagreements"]
        assert meta["shrink"]["shrunk_gates"] <= 12
        assert meta["instance"]["recipe"] == repro.instance.recipe

        # ... with a journal entry for triage tooling
        journal = (tmp_path / "corpus" / "journal.jsonl").read_text()
        lines = [json.loads(line) for line in journal.splitlines() if line]
        assert any(
            entry.get("key", "").endswith(repro.instance.recipe)
            for entry in lines
        )

    def test_clean_campaign_exits_zero(self, tmp_path):
        settings = FuzzSettings(
            seed=1,
            budget=5,
            family="clifford",
            num_qubits=3,
            num_gates=10,
            corpus_dir=str(tmp_path / "corpus"),
        )
        outcome = run_fuzz(settings)
        assert outcome.exit_code == 0
        assert not outcome.disagreements
        assert not (tmp_path / "corpus").exists()

    def test_campaigns_append_to_one_journal(self, tmp_path, lying_hook):
        corpus = tmp_path / "corpus"
        for seed in (5, 6):
            run_fuzz(
                FuzzSettings(
                    seed=seed,
                    budget=4,
                    family="clifford_t",
                    num_qubits=3,
                    num_gates=16,
                    corpus_dir=str(corpus),
                ),
                verdict_hook=lying_hook,
            )
        journal = (corpus / "journal.jsonl").read_text()
        entries = [
            json.loads(line)
            for line in journal.splitlines()
            if line and "payload" in line
        ]
        assert len(entries) >= 2


class TestJournalLifetime:
    def test_interrupt_mid_campaign_closes_journal(self, tmp_path, monkeypatch):
        """Ctrl-C after the first persisted repro must not leak the
        campaign's journal handle — run_fuzz closes it in ``finally``."""
        from repro.fuzz import runner as runner_module

        opened = []
        real_open = runner_module.open_corpus_journal

        def tracking_open(corpus_dir):
            journal = real_open(corpus_dir)
            opened.append(journal)
            return journal

        monkeypatch.setattr(
            runner_module, "open_corpus_journal", tracking_open
        )

        def hook(name, pair, result):
            # Once the first repro is on disk (the journal exists), the
            # next oracle call simulates the operator's Ctrl-C.
            if opened:
                raise KeyboardInterrupt
            if name == "zx" and len(pair.circuit2) > 8:
                return dataclasses.replace(
                    result, equivalence=Equivalence.NOT_EQUIVALENT
                )
            return result

        settings = FuzzSettings(
            seed=5,
            budget=6,
            family="clifford_t",
            num_qubits=3,
            num_gates=16,
            corpus_dir=str(tmp_path / "corpus"),
            check_timeout=20.0,
        )
        with pytest.raises(KeyboardInterrupt):
            run_fuzz(settings, verdict_hook=hook)

        # The campaign opened exactly one journal and closed it on the
        # way out, and the already-persisted repro survived the abort.
        assert len(opened) == 1
        assert opened[0]._handle.closed
        journal_text = (tmp_path / "corpus" / "journal.jsonl").read_text()
        assert any(
            "payload" in line for line in journal_text.splitlines()
        )
