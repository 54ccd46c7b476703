"""Kernel timings of the DD checkers on Table-1-style instances.

Records ``BENCH_dd_kernels.json`` at the repository root: per case, the
best-of-``REPEATS`` wall time, the verdict and, for simulation cases,
the stimulus digest (so a rerun shows at a glance whether the same
stimuli ran).  Earlier reports compared the seed's full-height gate
kernels with the direct fast path, and an object-based DD engine with
the array engine; their summaries stay in the report's ``trajectory``.

Run:  PYTHONPATH=src python benchmarks/bench_dd_kernels.py

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
from repro.bench import algorithms
from repro.compile import compile_circuit, manhattan_architecture
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec import Configuration, EquivalenceCheckingManager

REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dd_kernels.json"


def build_cases():
    """Table-1-style (name, circuit1, circuit2, strategy) instances."""
    manhattan = manhattan_architecture()
    ghz = algorithms.ghz_state(16)
    graphstate = algorithms.graph_state(12, seed=0)
    qft = algorithms.qft(6)
    ghz_compiled = compile_circuit(ghz, manhattan)
    graphstate_compiled = compile_circuit(graphstate, manhattan)
    qft_optimized = optimize_circuit(decompose_to_basis(qft), level=2)
    return [
        ("ghz_16_compiled/alternating", ghz, ghz_compiled, "alternating"),
        ("ghz_16_compiled/simulation", ghz, ghz_compiled, "simulation"),
        (
            "graphstate_12_compiled/alternating",
            graphstate, graphstate_compiled, "alternating",
        ),
        (
            "graphstate_12_compiled/simulation",
            graphstate, graphstate_compiled, "simulation",
        ),
        ("qft_6_optimized/alternating", qft, qft_optimized, "alternating"),
    ]


def timed_check(circuit1, circuit2, strategy):
    """Best-of-``REPEATS`` wall time plus the last result."""
    config = Configuration(strategy=strategy, seed=0, num_simulations=8)
    best = math.inf
    result = None
    for _ in range(REPEATS):
        manager = EquivalenceCheckingManager(circuit1, circuit2, config)
        start = time.perf_counter()
        result = manager.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    cases = []
    for name, circuit1, circuit2, strategy in build_cases():
        seconds, result = timed_check(circuit1, circuit2, strategy)
        case = {
            "case": name,
            "strategy": strategy,
            "num_qubits": max(circuit1.num_qubits, circuit2.num_qubits),
            "num_gates": [len(circuit1), len(circuit2)],
            "seconds": round(seconds, 6),
            "verdict": result.equivalence.value,
        }
        if strategy == "simulation":
            case["stimuli_digest"] = result.statistics["stimuli_digest"]
        cases.append(case)
        print(f"{name:40s} {seconds:7.3f}s  {case['verdict']}")

    seconds = [case["seconds"] for case in cases]
    report = {
        "benchmark": "dd_kernels",
        "description": (
            "DD checkers on Table-1-style pairs: best-of-repeats wall "
            "time, verdict and stimulus digest per case"
        ),
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cases": cases,
        "summary": {
            "total_seconds": round(sum(seconds), 6),
            "geomean_seconds": round(
                math.exp(sum(math.log(s) for s in seconds) / len(seconds)), 6
            ),
        },
    }
    report = with_trajectory(report, OUTPUT)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    print(
        f"total {report['summary']['total_seconds']} s, "
        f"geomean {report['summary']['geomean_seconds']} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
