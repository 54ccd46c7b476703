"""Kernel timings of the DD checkers on Table-1 and Table-1-style pairs.

Records ``BENCH_dd_kernels.json`` at the repository root: per case, the
best-of-``REPEATS`` wall time, the verdict, the nodes the check created
(``unique_nodes``, both stores), how often the compute tables were
emptied (``compute_table_clears``), the hits and misses of the compute
tables the strategy uses (``mul`` and ``apply_left`` for alternating,
``mul_vec`` and ``apply_vec`` for simulation) and, for simulation cases,
the stimulus digest (so a rerun shows at a glance whether the same
stimuli ran) and the blocks the column simulation fused the circuits
into, with the operations they cover.  The counts are deterministic, but they depend on when
entries are dropped as well as on the DD operation order: the dict
compute tables kept the order and still moved them, because the slot
tables they replaced evicted entries on collision and a clear between
gates drops far fewer.  Besides five Table-1-style pairs, the
cases include the optimized Table-1 cells (``repro.bench.suite``, scale
``small``, seed 0) where table1-optimized's DD column spends its time,
run as the golden fixture runs them (16 stimuli, no static pre-pass):
hwb5_5 equivalent, where all 16 stimuli run and the blocks pay, and
urf_s1_5 gate-missing, which two stimuli decide, so building the blocks
costs more there than it saves; and the basis-column exhaustion that
decides urf_s1_5 and hwb5_5
equivalent under ``combined``: timed as the combined schedule runs it,
after the 16 stimuli and on the columns they left undrawn, with the
columns it simulated and reused.
Earlier reports compared the seed's full-height gate kernels with the
direct fast path, and an object-based DD engine with the array engine;
their summaries stay in the report's ``trajectory``.

Run:  make bench-dd
 (or  PYTHONPATH=src python benchmarks/bench_dd_kernels.py)

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
from repro.bench.suite import optimized_benchmarks
from repro.compile import compile_circuit, manhattan_architecture
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec import Configuration, EquivalenceCheckingManager, logical_pair
from repro.ec.sim_checker import ColumnChecker, simulation_check

REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dd_kernels.json"


#: Compute tables each strategy's checker reads and writes.
TABLES = {
    "alternating": ("mul", "apply_left"),
    "simulation": ("mul_vec", "apply_vec"),
    "exhaustion": ("mul_vec", "apply_vec"),
}

#: The optimized Table-1 cells (instance, variant, strategy) that take
#: most of table1-optimized's DD time.
TABLE1_CELLS = (
    ("hwb5_5", "equivalent", "alternating"),
    ("hwb5_5", "equivalent", "simulation"),
    ("urf_s1_5", "gate_missing", "alternating"),
    ("urf_s1_5", "gate_missing", "simulation"),
    ("urf_s1_5", "equivalent", "exhaustion"),
    ("hwb5_5", "equivalent", "exhaustion"),
)


def build_cases():
    """``(name, strategy, circuit1, circuit2, configuration)`` per case.

    An ``exhaustion`` case runs under the default (``combined``)
    configuration.
    """
    manhattan = manhattan_architecture()
    ghz = algorithms.ghz_state(16)
    graphstate = algorithms.graph_state(12, seed=0)
    qft = algorithms.qft(6)
    ghz_compiled = compile_circuit(ghz, manhattan)
    graphstate_compiled = compile_circuit(graphstate, manhattan)
    qft_optimized = optimize_circuit(decompose_to_basis(qft), level=2)
    cases = [
        (f"{name}/{strategy}", strategy, circuit1, circuit2,
         Configuration(strategy=strategy, seed=0, num_simulations=8))
        for name, circuit1, circuit2, strategy in (
            ("ghz_16_compiled", ghz, ghz_compiled, "alternating"),
            ("ghz_16_compiled", ghz, ghz_compiled, "simulation"),
            ("graphstate_12_compiled", graphstate, graphstate_compiled,
             "alternating"),
            ("graphstate_12_compiled", graphstate, graphstate_compiled,
             "simulation"),
            ("qft_6_optimized", qft, qft_optimized, "alternating"),
        )
    ]
    optimized = {
        instance.name: instance
        for instance in optimized_benchmarks(scale="small", seed=0)
    }
    for name, variant, strategy in TABLE1_CELLS:
        instance = optimized[name]
        config = (
            Configuration(seed=0) if strategy == "exhaustion"
            else Configuration(strategy=strategy, seed=0, static_analysis=False)
        )
        cases.append((
            f"optimized/{name}/{variant}/{strategy}", strategy,
            instance.original, instance.variants[variant], config,
        ))
    return cases


def timed_check(circuit1, circuit2, config):
    """Best-of-``REPEATS`` wall time plus the last result."""
    best = math.inf
    result = None
    for _ in range(REPEATS):
        manager = EquivalenceCheckingManager(circuit1, circuit2, config)
        start = time.perf_counter()
        result = manager.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def timed_exhaustion(circuit1, circuit2, config):
    """Best-of-``REPEATS`` exhaustion after the stimuli, plus the last run.

    Returns the seconds, the verdict and the exhaustion's statistics.
    """
    best = math.inf
    verdict = statistics = None
    for _ in range(REPEATS):
        pair = logical_pair(circuit1, circuit2)
        columns = ColumnChecker(pair, config)
        simulation_check(pair, config, columns=columns)
        start = time.perf_counter()
        verdict, statistics = columns.exhaust()
        best = min(best, time.perf_counter() - start)
    return best, verdict, statistics


def main() -> int:
    cases = []
    for name, strategy, circuit1, circuit2, config in build_cases():
        if strategy == "exhaustion":
            seconds, verdict, statistics = timed_exhaustion(
                circuit1, circuit2, config
            )
        else:
            seconds, result = timed_check(circuit1, circuit2, config)
            verdict, statistics = result.equivalence, result.statistics
        perf = statistics["perf"]
        tables = perf["compute_tables"]
        case = {
            "case": name,
            "strategy": strategy,
            "num_qubits": max(circuit1.num_qubits, circuit2.num_qubits),
            "num_gates": [len(circuit1), len(circuit2)],
            "seconds": round(seconds, 6),
            "verdict": verdict.value,
            "unique_nodes": (
                perf["unique_matrix_nodes"] + perf["unique_vector_nodes"]
            ),
            "compute_table_clears": perf["compute_table_clears"],
            "compute_tables": {
                table: {
                    "hits": tables[table]["hits"],
                    "misses": tables[table]["misses"],
                }
                for table in TABLES[strategy]
            },
        }
        if strategy == "simulation":
            case["stimuli_digest"] = statistics["stimuli_digest"]
            counters = perf["counters"]
            case["blocks_built"] = counters["dd.blocks_built"]
            case["block_operations"] = counters["dd.block_operations"]
        if strategy == "exhaustion":
            case["columns_simulated"] = statistics["columns_simulated"]
            case["columns_reused"] = statistics["columns_reused"]
        cases.append(case)
        print(
            f"{name:45s} {seconds:7.3f}s  {case['verdict']}  "
            f"{case['unique_nodes']} nodes"
        )

    seconds = [case["seconds"] for case in cases]
    report = {
        "benchmark": "dd_kernels",
        "description": (
            "DD checkers on Table-1-style pairs and the optimized "
            "Table-1 cells that dominate its DD column: best-of-repeats "
            "wall time, verdict, created nodes, compute-table clears, "
            "hits and misses of the tables the strategy uses "
            "(mul/apply_left alternating, mul_vec/apply_vec simulation "
            "and exhaustion), stimulus digest and fused blocks per "
            "simulation case, and columns simulated and reused per "
            "exhaustion case"
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
