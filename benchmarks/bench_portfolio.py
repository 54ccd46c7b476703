"""Sequential combined schedule vs the concurrent strategy portfolio.

Runs Table-1-style verification cells (compiled-circuit instances,
equivalent and flipped-CNOT variants) through the ``combined`` strategy
twice — once as the sequential schedule and once as the concurrent
portfolio race (``Configuration.portfolio``) — and records the
comparison in ``BENCH_portfolio.json`` at the repository root.

Both arms run with the static pre-pass on, so both executors run the
same lanes (none of these pairs is proven Clifford, so the plan is
``simulation``, ``alternating``, ``zx``, ``construction``): the
sequential schedule walks them in order until a proof, the race starts
the first two at once and each lane that ends without a proof starts
the next.  The pre-pass decides none of these cells, so it
short-circuits neither arm.

Verdict agreement is judged by *polarity* (proven/considered equivalent
vs proven non-equivalent): racing paradigms legitimately prove at
different granularity — ZX's ``full_reduce`` proves equivalence up to
global phase where the alternating scheme proves exact equivalence —
so the enum values may differ while the answer is the same.

The headline claim this benchmark asserts: on at least three cells where
the sequential schedule's *first* strategy is not the strategy that
actually decides the pair, the portfolio cuts wall-clock time by >= 2x —
and no cell ever changes its verdict polarity.

Run:  PYTHONPATH=src python benchmarks/bench_portfolio.py

(The module intentionally defines no ``test_*``/pytest entry points; the
tier-1 smoke guard lives in ``tests/perf/test_bench_smoke.py``.)
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

try:
    from benchmarks.trajectory import with_trajectory
except ImportError:  # executed as a plain script: benchmarks/ is sys.path[0]
    from trajectory import with_trajectory
from repro.bench.suite import compiled_benchmarks
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.portfolio import portfolio_winner
from repro.ec.results import Equivalence

REPEATS = 2
TIMEOUT = 60.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"

#: The compiled-use-case instances of the small-scale Table 1.
INSTANCES = (
    "ghz_16",
    "graphstate_12",
    "qft_6",
    "grover_4",
    "qpe_exact_5",
    "randomwalk_3_2",
)
VARIANTS = ("equivalent", "flipped_cnot")


def polarity(verdict: Equivalence) -> str:
    """Collapse a verdict to its answer polarity."""
    if verdict in (
        Equivalence.EQUIVALENT,
        Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        Equivalence.PROBABLY_EQUIVALENT,
    ):
        return "equivalent"
    if verdict is Equivalence.NOT_EQUIVALENT:
        return "not_equivalent"
    return "undecided"


def timed_check(circuit1, circuit2, portfolio: bool):
    """Best-of-``REPEATS`` wall time plus the last result."""
    config = Configuration(
        strategy="combined",
        portfolio=portfolio,
        timeout=TIMEOUT,
        seed=0,
    )
    best = math.inf
    result = None
    for _ in range(REPEATS):
        manager = EquivalenceCheckingManager(circuit1, circuit2, config)
        start = time.perf_counter()
        result = manager.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    instances = {
        inst.name: inst
        for inst in compiled_benchmarks(scale="small", seed=0)
    }
    cases = []
    for name in INSTANCES:
        instance = instances[name]
        for variant in VARIANTS:
            seq_time, seq_result = timed_check(
                instance.original, instance.variants[variant], portfolio=False
            )
            pf_time, pf_result = timed_check(
                instance.original, instance.variants[variant], portfolio=True
            )
            schedule = seq_result.statistics.get(
                "combined_schedule", ["simulation", "alternating"]
            )
            winner = portfolio_winner(pf_result)
            pf_block = pf_result.statistics.get("portfolio", {})
            speedup = seq_time / pf_time if pf_time else math.inf
            agree = polarity(seq_result.equivalence) == polarity(
                pf_result.equivalence
            )
            off_schedule_win = winner is not None and winner != schedule[0]
            cases.append({
                "case": f"{name}/{variant}",
                "num_qubits": instance.num_qubits,
                "num_gates": [
                    instance.size_original, len(instance.variants[variant]),
                ],
                "sequential_seconds": round(seq_time, 6),
                "portfolio_seconds": round(pf_time, 6),
                "speedup": round(speedup, 3),
                "sequential_schedule": list(schedule),
                "winner": winner,
                "winner_sound": bool(pf_block.get("sound")),
                "off_schedule_win": off_schedule_win,
                "kills": pf_block.get("kills", {}),
                "all_reaped": bool(pf_block.get("all_reaped")),
                "verdict_sequential": seq_result.equivalence.value,
                "verdict_portfolio": pf_result.equivalence.value,
                "verdicts_agree": agree,
            })
            print(
                f"{name + '/' + variant:32s} seq {seq_time:7.3f}s  "
                f"pf {pf_time:7.3f}s  {speedup:5.2f}x  winner={winner}  "
                f"agree={agree}"
            )
            assert agree, f"{name}/{variant}: verdict polarity diverged"
            assert pf_block.get("all_reaped", False), (
                f"{name}/{variant}: leaked child processes"
            )

    decisive = [
        case for case in cases
        if case["off_schedule_win"] and case["speedup"] >= 2.0
    ]
    speedups = [case["speedup"] for case in cases]
    report = {
        "benchmark": "portfolio",
        "description": (
            "Sequential combined schedule vs the concurrent strategy "
            "portfolio (race sandboxed checkers, first sound verdict "
            "wins) on Table-1-style compiled cells"
        ),
        "repeats": REPEATS,
        "timeout": TIMEOUT,
        "python": platform.python_version(),
        "cases": cases,
        "summary": {
            "cells": len(cases),
            "min_speedup": round(min(speedups), 3),
            "max_speedup": round(max(speedups), 3),
            "geomean_speedup": round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)),
                3,
            ),
            "decisive_cells": [case["case"] for case in decisive],
            "all_verdicts_agree":
                all(case["verdicts_agree"] for case in cases),
            "all_reaped": all(case["all_reaped"] for case in cases),
        },
    }
    assert len(decisive) >= 3, (
        f"only {len(decisive)} cell(s) with >=2x speedup and an "
        "off-schedule winner; expected at least 3"
    )
    report = with_trajectory(report, OUTPUT)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    print(
        f"{len(decisive)} decisive cell(s) (>=2x, off-schedule winner); "
        f"geomean speedup {report['summary']['geomean_speedup']}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
