"""The case-study harness: regenerate the paper's Table 1.

For every benchmark instance and every configuration (equivalent / one
gate missing / flipped CNOT) the harness runs both checkers —

* ``t_dd``: the combined DD strategy (alternating scheme + 16 random
  simulations), standing in for QCEC,
* ``t_zx``: the ZX ``full_reduce`` strategy, standing in for PyZX —

under a hard per-run timeout, judges every verdict against the
configuration's label, and renders the rows in the layout of the
paper's Table 1 as Markdown: the console prints each row as it
completes, and ``--report`` writes the same lines to a file.  Each cell
also records which stage decided it (``decided_by``) and, when the
stimuli did, the stimulus that exposed the difference (``stimuli``);
``tests/bench/test_table1_shape.py`` checks the paper's claims over
those rows.  Runtimes are not comparable in absolute terms (pure Python
vs. optimized C++/compiled Python on the authors' machine); the
reproduced signal is the *relative* behaviour across benchmark families
and configurations (see EXPERIMENTS.md).

Robustness (see docs/architecture.md, "Robustness architecture"):
``--isolate`` runs every cell in a sandboxed subprocess with a hard
SIGKILL timeout and optional ``--memory-limit``, so a non-cooperative
hang, memory balloon or crash in one cell cannot take down the batch;
``--journal PATH`` checkpoints every completed cell to a JSONL file and
``--resume`` restarts an interrupted run from the last completed cell.

Run it as a module (or as ``python -m repro bench``)::

    python -m repro.bench.study --use-case compiled --scale small \
        --isolate --journal table1.jsonl

    # after a crash / kill:
    python -m repro.bench.study --use-case compiled --scale small \
        --isolate --journal table1.jsonl --resume
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench.suite import (
    BenchmarkInstance,
    CONFIGURATIONS,
    compiled_benchmarks,
    optimized_benchmarks,
)
from repro.ec.configuration import Configuration
from repro.ec.manager import EquivalenceCheckingManager
from repro.ec.portfolio import loser_kill_codes, portfolio_winner
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.harness.journal import Journal

#: Expected verdict polarity per configuration.
_EXPECTED = {
    "equivalent": True,
    "gate_missing": False,
    "flipped_cnot": False,
}

#: Compact cell codes for degraded (non-timeout) failures.
_FAILURE_CODES = {
    "out_of_memory": "oom",
    "crashed": "crash",
    "worker_lost": "lost",
    "invalid_input": "inval",
    "check_error": "err",
}


@dataclass
class CellResult:
    """One method on one instance/configuration.

    ``timed_out`` is a ``TIMEOUT`` verdict; ``overrun`` flags the silent
    variant — the check *returned* a verdict but its wall time exceeded
    the budget (a cooperative deadline that fired late, or isolation
    overhead).  Both render as ``>T``: a cell that blew its budget must
    never masquerade as a normal runtime.  ``failure`` is the
    :mod:`repro.errors` taxonomy kind for degraded cells, ``cached``
    marks cells restored from a resume journal.

    ``decided_by`` names the stage whose verdict the cell reports: the
    winning lane of a raced ``t_dd`` cell; the last stage of a
    sequential one's ``combined_schedule``, or ``columns`` when the
    alternating stage handed its proof to the basis columns; ``zx`` on
    a ``t_zx`` cell; None for a failed check.  ``stimuli`` is the
    1-based stimulus that exposed a difference when the simulation
    decided.  ``kills`` holds the per-lane kill codes of a race's
    losers.
    """

    seconds: float
    verdict: Equivalence
    timed_out: bool
    correct: Optional[bool]  # None when the method yields no information
    overrun: bool = False
    failure: Optional[str] = None
    cached: bool = False
    decided_by: Optional[str] = None
    stimuli: Optional[int] = None
    kills: Optional[Dict[str, str]] = None

    def render(self, timeout: Optional[float]) -> str:
        if self.timed_out or self.overrun:
            return f">{timeout:g}" if timeout is not None else "hung"
        if self.failure is not None:
            return _FAILURE_CODES.get(self.failure, "err")
        mark = ""
        if self.correct is False:
            mark = "!"
        elif self.correct is None:
            mark = "?"
        return f"{self.seconds:.2f}{mark}"

    def to_record(self) -> Dict[str, object]:
        """JSONL journal payload for this cell."""
        record: Dict[str, object] = {
            "seconds": self.seconds,
            "verdict": self.verdict.value,
            "timed_out": self.timed_out,
            "correct": self.correct,
            "overrun": self.overrun,
            "failure": self.failure,
        }
        if self.decided_by is not None:
            record["decided_by"] = self.decided_by
        if self.stimuli is not None:
            record["stimuli"] = self.stimuli
        if self.kills:
            record["kills"] = dict(self.kills)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CellResult":
        """Rebuild a cell checkpointed with :meth:`to_record`."""
        correct = record.get("correct")
        failure = record.get("failure")
        decided_by = record.get("decided_by")
        stimuli = record.get("stimuli")
        kills = record.get("kills")
        return cls(
            float(record.get("seconds", 0.0)),
            Equivalence(record["verdict"]),
            bool(record.get("timed_out")),
            None if correct is None else bool(correct),
            overrun=bool(record.get("overrun")),
            failure=None if failure is None else str(failure),
            cached=True,
            decided_by=None if decided_by is None else str(decided_by),
            stimuli=None if stimuli is None else int(stimuli),
            kills=None if not isinstance(kills, dict) else {
                str(k): str(v) for k, v in kills.items()
            },
        )


@dataclass
class TableRow:
    """One benchmark row of Table 1."""

    name: str
    use_case: str
    num_qubits: int
    size_original: int
    size_variant: int
    cells: Dict[str, CellResult]  # keyed by f"{config}/{method}"


def _judge(verdict: Equivalence, expect_equivalent: bool) -> Optional[bool]:
    if verdict in (Equivalence.NO_INFORMATION, Equivalence.TIMEOUT):
        return None
    positive = verdict in (
        Equivalence.EQUIVALENT,
        Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        Equivalence.PROBABLY_EQUIVALENT,
    )
    return positive == expect_equivalent


def _decided_by(method: str, result: EquivalenceCheckingResult) -> Optional[str]:
    """The stage whose verdict ``result`` reports (see :class:`CellResult`)."""
    if result.failure is not None:
        return None
    if method == "zx":
        return "zx"
    winner = portfolio_winner(result)
    if winner is not None:
        return winner
    statistics = result.statistics
    if statistics.get("columns", {}).get("proof") == "columns":
        return "columns"
    schedule = statistics.get("combined_schedule")
    return str(schedule[-1]) if schedule else None


def _cell_key(instance: BenchmarkInstance, config_name: str, method: str) -> str:
    """Stable journal key of one Table-1 cell."""
    return f"{instance.use_case}:{instance.name}:{config_name}:{method}"


def run_instance(
    instance: BenchmarkInstance,
    timeout: Optional[float] = 60.0,
    seed: int = 0,
    *,
    isolate: bool = False,
    memory_limit_mb: Optional[int] = None,
    retries: int = 1,
    journal: Optional[Journal] = None,
    portfolio: bool = False,
) -> TableRow:
    """Run both methods on all three configurations of one instance.

    With ``isolate`` every cell runs in a sandboxed subprocess via
    :func:`repro.harness.run_check` (hard SIGKILL timeout, optional
    address-space limit, transient-failure retries); otherwise the check
    runs in-process through :meth:`EquivalenceCheckingManager.run`,
    which degrades failures into results.
    Either way a failing cell yields a degraded :class:`CellResult`, and
    the remaining cells still run.  With ``journal``, completed cells
    are checkpointed immediately and previously journaled cells are
    restored instead of re-run.  With ``portfolio`` the ``t_dd`` cells
    race all applicable strategies concurrently (the ``t_zx`` column is
    unchanged — it remains the standalone PyZX stand-in).
    """
    cells: Dict[str, CellResult] = {}
    for config_name in CONFIGURATIONS:
        variant = instance.variants[config_name]
        for method, strategy in (("dd", "combined"), ("zx", "zx")):
            key = _cell_key(instance, config_name, method)
            if journal is not None:
                record = journal.get(key)
                if record is not None:
                    cells[f"{config_name}/{method}"] = CellResult.from_record(
                        record
                    )
                    continue
            configuration = Configuration(
                strategy=strategy,
                portfolio=portfolio and strategy == "combined",
                timeout=timeout,
                seed=seed,
                memory_limit_mb=memory_limit_mb,
                max_retries=retries,
            )
            start = time.monotonic()
            if isolate:
                from repro.harness import run_check

                result = run_check(
                    instance.original, variant, configuration, isolate=True
                )
            else:
                result = EquivalenceCheckingManager(
                    instance.original, variant, configuration
                ).run()
            elapsed = time.monotonic() - start
            timed_out = result.equivalence is Equivalence.TIMEOUT
            # A check that cooperatively missed its deadline (or burned
            # the budget in isolation overhead) must not render as a
            # normal runtime: flag any wall time beyond the budget.
            overrun = (
                not timed_out
                and timeout is not None
                and elapsed > timeout
            )
            failure = result.failure
            decided_by = _decided_by(method, result)
            cell = CellResult(
                elapsed,
                result.equivalence,
                timed_out,
                _judge(result.equivalence, _EXPECTED[config_name]),
                overrun=overrun,
                failure=None if failure is None else str(failure.get("kind")),
                decided_by=decided_by,
                stimuli=(
                    result.statistics.get("first_mismatch")
                    if decided_by == "simulation"
                    else None
                ),
                kills=loser_kill_codes(result) or None,
            )
            cells[f"{config_name}/{method}"] = cell
            if journal is not None:
                journal.record(key, cell.to_record())
    return TableRow(
        instance.name,
        instance.use_case,
        instance.num_qubits,
        instance.size_original,
        instance.size_variant,
        cells,
    )


def run_table(
    use_case: str = "compiled",
    scale: str = "small",
    timeout: Optional[float] = 60.0,
    seed: int = 0,
    *,
    isolate: bool = False,
    memory_limit_mb: Optional[int] = None,
    retries: int = 1,
    journal: Optional[Journal] = None,
    portfolio: bool = False,
    on_row: Optional[Callable[[TableRow], None]] = None,
) -> List[TableRow]:
    """Build the benchmark suite and run the full table.

    ``journal`` (a :class:`repro.harness.Journal`) makes the run
    resumable: completed cells are checkpointed as JSONL and restored
    instead of re-run when the journal already holds them.  ``on_row``
    is called with each row as it completes.
    """
    if use_case == "compiled":
        instances = compiled_benchmarks(scale=scale, seed=seed)
    elif use_case == "optimized":
        instances = optimized_benchmarks(scale=scale, seed=seed)
    else:
        raise ValueError(f"unknown use case {use_case!r}")
    rows = []
    for instance in instances:
        row = run_instance(
            instance,
            timeout=timeout,
            seed=seed,
            isolate=isolate,
            memory_limit_mb=memory_limit_mb,
            retries=retries,
            journal=journal,
            portfolio=portfolio,
        )
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


# ---------------------------------------------------------------------------
# rendering: one Markdown table per block, for the console and the report
# ---------------------------------------------------------------------------
#: The header of one Table-1 block, in the paper's column order.
TABLE_HEADER = (
    "| Benchmark | n | \\|G\\| | \\|G'\\| | Equivalent t_dd | t_zx "
    "| 1 Gate Missing t_dd | t_zx | Flipped CNOT t_dd | t_zx |",
    "|---|---|---|---|---|---|---|---|---|---|",
)


def markdown_row(row: TableRow, timeout: Optional[float]) -> str:
    """One Table-1 row as a Markdown table line."""
    cells = [
        row.name,
        str(row.num_qubits),
        str(row.size_original),
        str(row.size_variant),
    ]
    for config in CONFIGURATIONS:
        for method in ("dd", "zx"):
            cells.append(row.cells[f"{config}/{method}"].render(timeout))
    return "| " + " | ".join(cells) + " |"


def summary_line(rows: List[TableRow]) -> str:
    """The legend of one block, with how many of its cells read each mark."""
    counts = Counter(
        "timeout" if cell.timed_out or cell.overrun
        else "degraded" if cell.failure is not None
        else "wrong" if cell.correct is False
        else "unknown" if cell.correct is None
        else "correct"
        for row in rows
        for cell in row.cells.values()
    )
    return (
        f"Cells: seconds per check ({sum(counts.values())} checks total); "
        f"`>T` timeout ({counts['timeout']}), "
        f"`!` wrong verdict ({counts['wrong']}), "
        f"`?` no information ({counts['unknown']}), "
        f"`oom`/`crash`/`lost`/`inval`/`err` degraded ({counts['degraded']})."
    )


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """The study's options; ``repro bench`` builds its sub-command on it."""
    parser = argparse.ArgumentParser(
        description="Regenerate the case study's Table 1.  Exits 1 when "
        "any cell's verdict contradicts its label.",
        add_help=add_help,
    )
    parser.add_argument(
        "--use-case",
        choices=("compiled", "optimized", "both"),
        default="both",
    )
    parser.add_argument("--scale", choices=("small", "paper"), default="small")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="additionally write the printed tables to PATH as Markdown",
    )
    parser.add_argument(
        "--portfolio", action="store_true",
        help="run the t_dd cells as a concurrent strategy portfolio: "
        "race sandboxed checkers, first sound verdict wins",
    )
    parser.add_argument(
        "--isolate", action="store_true",
        help="run every cell in a sandboxed subprocess with a hard "
        "(SIGKILL) timeout, so hangs/crashes cannot take down the run",
    )
    parser.add_argument(
        "--memory-limit", type=int, default=None, metavar="MB",
        help="address-space headroom per isolated cell, in MiB",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="bounded retries of transient (crash/worker-lost) failures",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint every completed cell to a JSONL journal",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed cells from --journal instead of re-running",
    )
    return parser


def validate_options(args: argparse.Namespace) -> None:
    """Raise ``ValueError`` on parsed options no cell can run with, so a
    bad value is reported before the first table line."""
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal PATH")
    Configuration(
        portfolio=args.portfolio,
        timeout=args.timeout,
        seed=args.seed,
        memory_limit_mb=args.memory_limit,
        max_retries=args.retries,
    ).validate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_options(args)
    except ValueError as error:
        parser.error(str(error))
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Run the study on parsed :func:`build_parser` options.

    Prints one Markdown table per block, each row as it completes, and
    writes the same lines to ``args.report`` when given.  Returns 1 when
    any cell's verdict contradicts its label (a ``!`` cell), 0
    otherwise: timeouts, ``?`` cells and degraded cells are not wrong.
    """
    journal = None
    if args.journal:
        journal = Journal(
            args.journal,
            metadata={
                "use_case": args.use_case,
                "scale": args.scale,
                "timeout": args.timeout,
                "seed": args.seed,
                # A sequential journal must not silently resume a
                # portfolio run (and vice versa): the flag participates
                # in the Journal's metadata-mismatch rejection.
                "portfolio": args.portfolio,
            },
            resume=args.resume,
        )
        if args.resume and len(journal):
            print(f"resuming: {len(journal)} cells restored from {args.journal}")

    lines: List[str] = []

    def emit(*new_lines: str) -> None:
        lines.extend(new_lines)
        print("\n".join(new_lines), flush=True)

    emit(
        f"# Case-study run (scale={args.scale}, timeout={args.timeout:g}s, "
        f"seed={args.seed}{', portfolio' if args.portfolio else ''})"
    )
    use_cases = (
        ["compiled", "optimized"] if args.use_case == "both" else [args.use_case]
    )
    rows: List[TableRow] = []
    try:
        for use_case in use_cases:
            emit("", f"## {use_case.capitalize()} Circuits", "", *TABLE_HEADER)
            block = run_table(
                use_case=use_case,
                scale=args.scale,
                timeout=args.timeout,
                seed=args.seed,
                isolate=args.isolate,
                memory_limit_mb=args.memory_limit,
                retries=args.retries,
                journal=journal,
                portfolio=args.portfolio,
                on_row=lambda row: emit(markdown_row(row, args.timeout)),
            )
            emit("", summary_line(block))
            rows += block
    finally:
        if journal is not None:
            journal.close()
    if args.report:
        Path(args.report).write_text("\n".join(lines) + "\n")
        print(f"\nreport written to {args.report}")
    wrong = [
        f"{row.use_case}:{row.name}:{key}"
        for row in rows
        for key, cell in row.cells.items()
        if cell.correct is False
    ]
    if wrong:
        print(f"wrong verdicts: {', '.join(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
