"""Timings of the ZX simplification on the Table-1 optimized pairs.

Records ``BENCH_zx_simplify.json`` at the repository root: per case, the
best-of-``REPEATS`` wall time of ``full_reduce`` on the composed
``G' G†`` diagram, the verdict it supports (a bare-wire identity is
equivalence up to global phase, anything else no information), the
spider counts before and after, the final edge count and the per-rule
rewrite counters.  Earlier reports compared the worklist engine with
the seed's rescan-to-fixpoint drivers; their speedup summaries stay in
the report's ``trajectory``.

Run:  PYTHONPATH=src python benchmarks/bench_zx_simplify.py

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
from repro.bench import algorithms, reversible
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec.results import Equivalence
from repro.perf import PerfCounters
from repro.zx import circuit_to_zx, full_reduce

REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_zx_simplify.json"


def build_cases():
    """Table-1 'Optimized Circuits' (name, original, optimized) pairs."""
    originals = {
        "urf_5": reversible.synthesize(
            reversible.random_reversible_function(5, seed=1)
        ),
        "plus13mod64": reversible.synthesize(
            reversible.plus_constant_mod(6, 13)
        ),
        "hwb_5": reversible.synthesize(reversible.hidden_weighted_bit(5)),
        "grover_4": algorithms.grover(4),
        "qft_6": algorithms.qft(6),
        "randomwalk_3": algorithms.quantum_random_walk(3, steps=2),
    }
    return [
        (name, circuit, optimize_circuit(decompose_to_basis(circuit), level=2))
        for name, circuit in originals.items()
    ]


def composed_diagram(circuit1, circuit2):
    return circuit_to_zx(circuit1).adjoint().compose(circuit_to_zx(circuit2))


def timed_reduce(circuit1, circuit2):
    """Best-of-``REPEATS`` wall time plus the final diagram and counters."""
    best = math.inf
    diagram = None
    counters = None
    for _ in range(REPEATS):
        candidate = composed_diagram(circuit1, circuit2)
        perf = PerfCounters()
        start = time.perf_counter()
        full_reduce(candidate, counters=perf)
        best = min(best, time.perf_counter() - start)
        diagram = candidate
        counters = perf.counters
    return best, diagram, counters


def main() -> int:
    cases = []
    for name, circuit1, circuit2 in build_cases():
        initial = composed_diagram(circuit1, circuit2)
        seconds, diagram, counters = timed_reduce(circuit1, circuit2)
        verdict = (
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            if diagram.is_identity_diagram()
            else Equivalence.NO_INFORMATION
        )
        cases.append({
            "case": name,
            "num_qubits": max(circuit1.num_qubits, circuit2.num_qubits),
            "num_gates": [len(circuit1), len(circuit2)],
            "seconds": round(seconds, 6),
            "verdict": verdict.value,
            "initial_spiders": initial.num_spiders,
            "final_spiders": diagram.num_spiders,
            "final_edges": diagram.num_edges,
            "counters": dict(sorted(counters.items())),
        })
        print(
            f"{name:20s} {seconds:7.3f}s  {verdict.value}  "
            f"{diagram.num_spiders} spiders, {diagram.num_edges} edges left"
        )

    seconds = [case["seconds"] for case in cases]
    report = {
        "benchmark": "zx_simplify",
        "description": (
            "full_reduce on the composed G'Gdg diagrams of the Table-1 "
            "optimized-circuit pairs: best-of-repeats wall time, verdict "
            "and final spider and edge counts per case"
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
