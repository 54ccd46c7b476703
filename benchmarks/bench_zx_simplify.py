"""Timings of the ZX simplification on the Table-1 optimized cells.

Records ``BENCH_zx_simplify.json`` at the repository root: per cell of
the optimized block (``repro.bench.suite``, scale ``small``, seed 0,
all three configurations), keyed by the golden fixture's cell id
(``optimized/hwb5_5/gate_missing``), the best-of-``REPEATS`` wall times
of building the composed ``G' G†`` diagram the ZX checker builds
(``compose_seconds``) and of ``full_reduce`` on it, the verdict it
supports (a bare-wire identity is equivalence up to global phase,
anything else no information), the spider counts before and after, the
final edge count and the per-rule rewrite counters.  The non-equivalent
cells matter as much as the equivalent ones: ZX answers ``?`` there,
but still runs to its fixpoint.  Earlier reports covered six equivalent
pairs only; their summaries stay in the report's ``trajectory``.

The counters are deterministic, so before the previous report is folded
into ``trajectory`` each cell's ``zx.*`` counters are compared with it:
the summary's ``counters_match_previous`` is true when every cell
matches (a change that keeps the rewrite order), false when a cell
differs or is new (each one is printed), and null when there is no
previous report.

Run:  make bench-zx
 (or  PYTHONPATH=src python benchmarks/bench_zx_simplify.py)

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
from repro.bench.suite import CONFIGURATIONS, optimized_benchmarks
from repro.ec.permutations import to_logical_form
from repro.ec.results import Equivalence
from repro.perf import PerfCounters
from repro.zx import circuit_to_zx, full_reduce

REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_zx_simplify.json"


def build_cases():
    """Every optimized Table-1 cell as ``(cell id, G, G')``."""
    return [
        (f"optimized/{instance.name}/{variant}", instance.original,
         instance.variants[variant])
        for instance in optimized_benchmarks(scale="small", seed=0)
        for variant in CONFIGURATIONS
    ]


def composed_diagram(circuit1, circuit2):
    """The ZX checker's ``G'·G†`` diagram of the pair's logical forms."""
    width = max(circuit1.num_qubits, circuit2.num_qubits)
    logical1, _ = to_logical_form(circuit1, width)
    logical2, _ = to_logical_form(circuit2, width)
    return circuit_to_zx(logical1).adjoint().compose(circuit_to_zx(logical2))


def timed_reduce(circuit1, circuit2):
    """Best-of-``REPEATS`` wall times of composing and of reducing, plus
    the initial spider count, the final diagram and the counters."""
    best_compose = best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        diagram = composed_diagram(circuit1, circuit2)
        best_compose = min(best_compose, time.perf_counter() - start)
        initial_spiders = diagram.num_spiders
        perf = PerfCounters()
        start = time.perf_counter()
        full_reduce(diagram, counters=perf)
        best = min(best, time.perf_counter() - start)
    return best_compose, best, initial_spiders, diagram, perf.counters


def counter_changes(cases, previous_path: Path):
    """``(cell, previous counters, counters)`` for every cell whose
    counters differ from the report at ``previous_path``; None without a
    readable one."""
    try:
        previous = json.loads(previous_path.read_text())
        old = {case["case"]: case["counters"] for case in previous["cases"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return [
        (case["case"], old.get(case["case"]), case["counters"])
        for case in cases
        if old.get(case["case"]) != case["counters"]
    ]


def main() -> int:
    cases = []
    for cell, circuit1, circuit2 in build_cases():
        compose_seconds, seconds, initial_spiders, diagram, counters = (
            timed_reduce(circuit1, circuit2)
        )
        verdict = (
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            if diagram.is_identity_diagram()
            else Equivalence.NO_INFORMATION
        )
        cases.append({
            "case": cell,
            "num_qubits": max(circuit1.num_qubits, circuit2.num_qubits),
            "num_gates": [len(circuit1), len(circuit2)],
            "compose_seconds": round(compose_seconds, 6),
            "seconds": round(seconds, 6),
            "verdict": verdict.value,
            "initial_spiders": initial_spiders,
            "final_spiders": diagram.num_spiders,
            "final_edges": diagram.num_edges,
            "counters": dict(sorted(counters.items())),
        })
        print(
            f"{cell:40s} {compose_seconds:6.3f}s + {seconds:7.3f}s  "
            f"{verdict.value}  "
            f"{diagram.num_spiders} spiders, {diagram.num_edges} edges left"
        )

    changes = counter_changes(cases, OUTPUT)
    for cell, previous, current in changes or ():
        print(
            f"counters differ from the previous report: {cell}: "
            f"{previous} -> {current}"
        )
    seconds = [case["seconds"] for case in cases]
    report = {
        "benchmark": "zx_simplify",
        "description": (
            "full_reduce on the composed G'Gdg diagrams of every Table-1 "
            "optimized cell (equivalent, gate_missing, flipped_cnot): "
            "best-of-repeats wall times of composing and reducing, verdict "
            "and final spider and edge counts per cell"
        ),
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cases": cases,
        "summary": {
            "total_seconds": round(sum(seconds), 6),
            "compose_seconds": round(
                sum(case["compose_seconds"] for case in cases), 6
            ),
            "geomean_seconds": round(
                math.exp(sum(math.log(s) for s in seconds) / len(seconds)), 6
            ),
            "variant_seconds": {
                variant: round(sum(
                    case["seconds"] for case in cases
                    if case["case"].endswith(f"/{variant}")
                ), 6)
                for variant in CONFIGURATIONS
            },
            "counters_match_previous": (
                None if changes is None else not changes
            ),
        },
    }
    report = with_trajectory(report, OUTPUT)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    print(
        f"total {report['summary']['total_seconds']} s, "
        f"geomean {report['summary']['geomean_seconds']} s, "
        "counters match the previous report: "
        f"{report['summary']['counters_match_previous']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
