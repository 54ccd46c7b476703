"""Kernel baselines for the DD engines on Table-1-style instances.

Two stacked comparisons, recorded in ``BENCH_dd_kernels.json`` at the
repository root:

* **seed vs direct** (``cases``): the legacy kernels (full-height gate DD
  + full-depth multiply, the seed behaviour) against the
  direct-application fast path, both on the object engine — the original
  baseline, kept so the trajectory stays comparable across runs;
* **object vs array** (``array_cases``): the object engine against the
  array-native engine (struct-of-arrays node store, packed integer
  edges, batched stimuli), both on the direct fast path — the
  *additional* speedup the array kernels deliver on top of the first
  comparison.  Simulation-strategy cases exercise the batched column
  path and additionally assert the stimulus digest is byte-identical
  across engines.

Alongside the timings, each case re-derives both circuits' DDs with both
code paths over *shared* canonical weights and asserts bit-identity —
the faster path must return the very same canonical root, so any speedup
is pure bookkeeping, never a numerical shortcut.  (For the cross-engine
comparison this uses canonical signature trees over one shared complex
table, since handles and node objects cannot be compared directly.)

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
from repro.dd import ArrayDDPackage, ComplexTable, DDPackage, matrix_signature
from repro.dd.gates import circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.permutations import to_logical_form
from repro.ec.sim_checker import simulation_check

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


def timed_check(circuit1, circuit2, strategy, direct, array_dd=False):
    """Best-of-``REPEATS`` wall time plus the last verdict."""
    config = Configuration(
        strategy=strategy, seed=0, direct_application=direct,
        num_simulations=8, array_dd=array_dd,
    )
    best = math.inf
    result = None
    for _ in range(REPEATS):
        manager = EquivalenceCheckingManager(circuit1, circuit2, config)
        start = time.perf_counter()
        result = manager.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def roots_identical(circuit1, circuit2):
    """Direct and legacy construction agree node-for-node in one package."""
    num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
    pkg = DDPackage()
    for circuit in (circuit1, circuit2):
        logical, _ = to_logical_form(circuit, num_qubits)
        direct = circuit_dd(pkg, logical, direct=True)
        legacy = circuit_dd(pkg, logical, direct=False)
        if direct.node is not legacy.node or direct.weight != legacy.weight:
            return False
    return True


def array_roots_identical(circuit1, circuit2):
    """Object and array engines build bit-identical circuit DDs.

    Both packages intern weights in one shared complex table, so equal
    canonical signature trees mean the same structure with the very same
    complex values — the cross-engine analogue of node identity.
    """
    num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
    table = ComplexTable()
    obj_pkg = DDPackage(complex_table=table)
    arr_pkg = ArrayDDPackage(complex_table=table)
    for circuit in (circuit1, circuit2):
        logical, _ = to_logical_form(circuit, num_qubits)
        obj_root = circuit_dd(obj_pkg, logical, direct=True)
        arr_root = circuit_dd(arr_pkg, logical, direct=True)
        if matrix_signature(obj_root) != matrix_signature(arr_root, arr_pkg):
            return False
    return True


def stimuli_digest_identical(circuit1, circuit2):
    """The object and array engines consume the same stimuli."""
    digests = []
    for array_dd in (False, True):
        config = Configuration(
            strategy="simulation", seed=0, num_simulations=8,
            array_dd=array_dd,
        )
        result = simulation_check(circuit1, circuit2, config)
        digests.append(result.statistics["stimuli_digest"])
    return digests[0] == digests[1]


def main() -> int:
    cases = []
    for name, circuit1, circuit2, strategy in build_cases():
        seed_time, seed_result = timed_check(
            circuit1, circuit2, strategy, direct=False
        )
        new_time, new_result = timed_check(
            circuit1, circuit2, strategy, direct=True
        )
        identical = roots_identical(circuit1, circuit2)
        speedup = seed_time / new_time if new_time else math.inf
        cases.append({
            "case": name,
            "strategy": strategy,
            "num_qubits": max(circuit1.num_qubits, circuit2.num_qubits),
            "num_gates": [len(circuit1), len(circuit2)],
            "seed_seconds": round(seed_time, 6),
            "new_seconds": round(new_time, 6),
            "speedup": round(speedup, 3),
            "verdict_seed": seed_result.equivalence.value,
            "verdict_new": new_result.equivalence.value,
            "verdicts_agree":
                seed_result.equivalence == new_result.equivalence,
            "roots_identical": identical,
        })
        print(
            f"{name:40s} seed {seed_time:7.3f}s  new {new_time:7.3f}s  "
            f"{speedup:5.2f}x  roots_identical={identical}"
        )
        assert identical, f"{name}: fast path diverged from legacy"
        assert cases[-1]["verdicts_agree"], f"{name}: verdicts diverged"

    print()
    array_cases = []
    for name, circuit1, circuit2, strategy in build_cases():
        object_time, object_result = timed_check(
            circuit1, circuit2, strategy, direct=True, array_dd=False
        )
        array_time, array_result = timed_check(
            circuit1, circuit2, strategy, direct=True, array_dd=True
        )
        identical = array_roots_identical(circuit1, circuit2)
        speedup = object_time / array_time if array_time else math.inf
        case = {
            "case": name,
            "strategy": strategy,
            "batched_simulation": strategy == "simulation",
            "object_seconds": round(object_time, 6),
            "array_seconds": round(array_time, 6),
            "speedup": round(speedup, 3),
            "verdict_object": object_result.equivalence.value,
            "verdict_array": array_result.equivalence.value,
            "verdicts_agree":
                object_result.equivalence == array_result.equivalence,
            "roots_identical": identical,
        }
        if strategy == "simulation":
            case["stimuli_digest_identical"] = stimuli_digest_identical(
                circuit1, circuit2
            )
            assert case["stimuli_digest_identical"], (
                f"{name}: array-engine stimuli diverged from the object engine"
            )
        array_cases.append(case)
        print(
            f"{name:40s} obj  {object_time:7.3f}s  arr {array_time:7.3f}s  "
            f"{speedup:5.2f}x  roots_identical={identical}"
        )
        assert identical, f"{name}: array engine diverged from object engine"
        assert case["verdicts_agree"], f"{name}: verdicts diverged"

    speedups = [case["speedup"] for case in cases]
    array_speedups = [case["speedup"] for case in array_cases]
    report = {
        "benchmark": "dd_kernels",
        "description": (
            "Direct gate application + bounded compute tables vs the seed "
            "layered_kron/multiply path, DD checkers on Table-1-style pairs"
        ),
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cases": cases,
        "array_cases": array_cases,
        "summary": {
            "min_speedup": round(min(speedups), 3),
            "max_speedup": round(max(speedups), 3),
            "geomean_speedup": round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)),
                3,
            ),
            "all_roots_identical":
                all(case["roots_identical"] for case in cases),
            "all_verdicts_agree":
                all(case["verdicts_agree"] for case in cases),
            "array_min_speedup": round(min(array_speedups), 3),
            "array_max_speedup": round(max(array_speedups), 3),
            "array_geomean_speedup": round(
                math.exp(
                    sum(math.log(s) for s in array_speedups)
                    / len(array_speedups)
                ),
                3,
            ),
            "array_all_roots_identical":
                all(case["roots_identical"] for case in array_cases),
            "array_all_verdicts_agree":
                all(case["verdicts_agree"] for case in array_cases),
        },
    }
    report = with_trajectory(report, OUTPUT)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    print(
        "seed->direct geomean speedup "
        f"{report['summary']['geomean_speedup']}x, "
        f"min {report['summary']['min_speedup']}x"
    )
    print(
        "object->array geomean speedup "
        f"{report['summary']['array_geomean_speedup']}x, "
        f"min {report['summary']['array_min_speedup']}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
