"""The fuzz campaign driver behind ``python -m repro fuzz``.

A campaign walks ``budget`` seeded instances of one family, pushes every
derived pair through the differential oracle and, on a disagreement,
shrinks the instance and persists the minimized repro into the corpus
directory.  Everything is deterministic in ``seed``; a wall-clock cap
(``max_seconds``) can stop a campaign early without losing repros.

Exit-code contract (also honoured by ``make fuzz``):

* ``0`` — every pair agreed (no repro written),
* ``2`` — at least one disagreement was found, shrunk and persisted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.ec.configuration import Configuration
from repro.fuzz.corpus import open_corpus_journal, persist_repro
from repro.fuzz.generator import (
    FAMILIES,
    FuzzInstance,
    MutationNotApplicable,
    generate_instance,
)
from repro.fuzz.oracle import DifferentialOracle, OracleReport, VerdictHook
from repro.fuzz.shrink import shrink_instance

#: Exit codes of the campaign (the CLI contract).
EXIT_AGREED = 0
EXIT_REPRO_WRITTEN = 2


@dataclass
class FuzzSettings:
    """Knobs of one fuzz campaign."""

    seed: int = 0
    budget: int = 100
    family: str = "clifford_t"
    num_qubits: Optional[int] = None
    num_gates: Optional[int] = None
    corpus_dir: str = "corpus"
    isolate: bool = False
    portfolio: bool = False
    check_timeout: float = 10.0
    max_seconds: Optional[float] = None
    shrink_checks: int = 150
    dense_limit: int = 8

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown fuzz family {self.family!r}; pick one of {FAMILIES}"
            )
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.num_qubits is not None and self.num_qubits < 1:
            raise ValueError("num_qubits must be at least 1")
        if self.check_timeout <= 0:
            raise ValueError("check_timeout must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.shrink_checks < 0:
            raise ValueError("shrink_checks must be non-negative")


@dataclass
class Disagreement:
    """One found, shrunk and persisted failure."""

    instance: FuzzInstance
    report: OracleReport
    shrink_info: Dict[str, object]
    path: Optional[str] = None


@dataclass
class FuzzOutcome:
    """Summary of one campaign."""

    settings: FuzzSettings
    pairs_run: int = 0
    recipe_counts: Dict[str, int] = field(default_factory=dict)
    label_counts: Dict[str, int] = field(default_factory=dict)
    missed_by_simulation: int = 0
    skipped_instances: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    stopped_early: bool = False
    seconds: float = 0.0
    leaked_children: int = 0
    witnesses_persisted: int = 0

    @property
    def exit_code(self) -> int:
        return EXIT_REPRO_WRITTEN if self.disagreements else EXIT_AGREED

    def describe(self) -> Dict[str, object]:
        return {
            "family": self.settings.family,
            "seed": self.settings.seed,
            "budget": self.settings.budget,
            "pairs_run": self.pairs_run,
            "recipes": dict(sorted(self.recipe_counts.items())),
            "labels": dict(sorted(self.label_counts.items())),
            "missed_by_simulation": self.missed_by_simulation,
            "disagreements": len(self.disagreements),
            "stopped_early": self.stopped_early,
            "seconds": round(self.seconds, 3),
            "leaked_children": self.leaked_children,
            "witnesses_persisted": self.witnesses_persisted,
        }


def run_fuzz(
    settings: FuzzSettings,
    verdict_hook: Optional[VerdictHook] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Run one differential fuzzing campaign.

    ``verdict_hook`` is forwarded to the oracle — production campaigns
    leave it None; the chaos-style tests plant a lying checker there to
    prove the pipeline catches, shrinks and persists real bugs.
    """
    settings.validate()
    emit = log or (lambda _message: None)
    oracle = DifferentialOracle(
        configuration=Configuration(
            timeout=settings.check_timeout, seed=settings.seed
        ),
        isolate=settings.isolate,
        dense_limit=settings.dense_limit,
        verdict_hook=verdict_hook,
        portfolio=settings.portfolio,
    )
    outcome = FuzzOutcome(settings=settings)
    start = time.monotonic()
    # The corpus journal is opened lazily (on the first disagreement)
    # and owned by the campaign, so repeated repros share one handle.
    # The ``finally`` at the bottom is load-bearing: an early
    # KeyboardInterrupt (Ctrl-C mid-shrink, the common way to stop
    # ``fuzz --isolate``) must close the handle instead of leaking it.
    journal = None
    # Witness log for parameterized campaigns: every planted-NEQ pair
    # records its witness valuation (planted and checker-found), so a
    # campaign leaves an auditable trail of the defects it covered.
    witness_log = None

    def persist_witness(
        index: int, pair, report: OracleReport
    ) -> None:
        nonlocal witness_log
        planted = pair.witness.get("valuation")
        if pair.label != "not_equivalent" or not isinstance(planted, dict):
            return
        found = None
        for name, result in report.results.items():
            block = result.statistics.get("parameterized")
            if isinstance(block, dict) and "witness_valuation" in block:
                found = {
                    "checker": name,
                    "path": block.get("path"),
                    "valuation": block["witness_valuation"],
                }
                break
        if witness_log is None:
            corpus = Path(settings.corpus_dir)
            corpus.mkdir(parents=True, exist_ok=True)
            witness_log = (corpus / "witnesses.jsonl").open(
                "a", encoding="utf-8"
            )
        record = {
            "index": index,
            "family": settings.family,
            "recipe": pair.recipe,
            "witness": {
                key: value
                for key, value in pair.witness.items()
                if key != "valuation"
            },
            "planted_valuation": planted,
            "found": found,
            "truth": report.truth,
        }
        witness_log.write(json.dumps(record, sort_keys=True) + "\n")
        witness_log.flush()
        outcome.witnesses_persisted += 1

    def reproduces(candidate: FuzzInstance) -> bool:
        try:
            candidate_pair = candidate.build_pair()
        except MutationNotApplicable:
            return False
        return not oracle.check(candidate_pair).agreed

    try:
        for index in range(settings.budget):
            if (
                settings.max_seconds is not None
                and time.monotonic() - start > settings.max_seconds
            ):
                outcome.stopped_early = True
                emit(
                    f"wall-clock cap of {settings.max_seconds:.0f}s reached "
                    f"after {outcome.pairs_run} pairs"
                )
                break
            instance_seed = settings.seed * 1_000_000 + index
            try:
                instance, pair = generate_instance(
                    instance_seed,
                    settings.family,
                    num_qubits=settings.num_qubits,
                    num_gates=settings.num_gates,
                )
            except MutationNotApplicable:
                outcome.skipped_instances += 1
                continue
            report = oracle.check(pair)
            outcome.pairs_run += 1
            outcome.recipe_counts[pair.recipe] = (
                outcome.recipe_counts.get(pair.recipe, 0) + 1
            )
            outcome.label_counts[pair.label] = (
                outcome.label_counts.get(pair.label, 0) + 1
            )
            persist_witness(index, pair, report)
            if report.missed_by_simulation:
                outcome.missed_by_simulation += 1
            if report.agreed:
                if (index + 1) % 25 == 0:
                    emit(
                        f"[{index + 1}/{settings.budget}] all agreed "
                        f"({outcome.pairs_run} pairs checked)"
                    )
                continue

            emit(
                f"[{index + 1}/{settings.budget}] DISAGREEMENT on "
                f"{pair.recipe} pair (label={pair.label}): "
                f"{report.disagreements}"
            )
            shrunk = shrink_instance(
                instance, reproduces, max_checks=settings.shrink_checks
            )
            final_instance = shrunk.instance
            try:
                final_pair = final_instance.build_pair()
                final_report = oracle.check(final_pair)
            except MutationNotApplicable:  # pragma: no cover - shrink guards
                final_instance, final_pair, final_report = (
                    instance, pair, report
                )
            disagreement = Disagreement(
                final_instance, final_report, shrunk.describe()
            )
            if journal is None:
                journal = open_corpus_journal(settings.corpus_dir)
            path = persist_repro(
                settings.corpus_dir,
                final_instance,
                final_pair,
                final_report,
                shrink_info=disagreement.shrink_info,
                journal=journal,
            )
            disagreement.path = str(path)
            outcome.disagreements.append(disagreement)
            emit(
                f"  shrunk {shrunk.original_gates} -> {shrunk.shrunk_gates} "
                f"base gates in {shrunk.checks} oracle calls; repro at {path}"
            )
    finally:
        if journal is not None:
            journal.close()
        if witness_log is not None:
            witness_log.close()

    # Leak audit: every race/sandbox child must be SIGKILLed and reaped
    # by the time its check returns, so a campaign that leaves live
    # children behind has a harness bug worth failing loudly over.
    import multiprocessing

    outcome.leaked_children = len(multiprocessing.active_children())
    if outcome.leaked_children:
        emit(f"WARNING: {outcome.leaked_children} child process(es) leaked")
    outcome.seconds = time.monotonic() - start
    return outcome
