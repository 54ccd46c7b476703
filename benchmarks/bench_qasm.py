"""Parse rate of the QASM reader on the Table-1 texts.

Records ``BENCH_qasm.json`` at the repository root: for each of the 48
Table-1 texts (``repro.bench.suite``, scale ``small``, seed 0; both
blocks, each instance's original and its three variants, as
``circuit_to_qasm`` writes them), the best-of-``REPEATS`` wall time of
``circuit_from_qasm`` and the number of statements, plus a summary in
statements per second.  Each run folds the previous report's summary
into ``trajectory``.

Run:  make bench-qasm
 (or  PYTHONPATH=src python benchmarks/bench_qasm.py)
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

try:
    from benchmarks.trajectory import with_trajectory
except ImportError:  # executed as a plain script: benchmarks/ is sys.path[0]
    from trajectory import with_trajectory
from repro.bench.suite import compiled_benchmarks, optimized_benchmarks
from repro.circuit import circuit_from_qasm, circuit_to_qasm

REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_qasm.json"


def table1_texts():
    """``(case, QASM text)`` of every Table-1 circuit."""
    for block, build in (
        ("compiled", compiled_benchmarks), ("optimized", optimized_benchmarks)
    ):
        for instance in build(scale="small", seed=0):
            circuits = {"original": instance.original, **instance.variants}
            for variant, circuit in circuits.items():
                yield f"{block}/{instance.name}/{variant}", circuit_to_qasm(circuit)


def best_parse_seconds(text: str) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        circuit_from_qasm(text)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    cases = [
        {"case": case, "statements": text.count(";"),
         "seconds": round(best_parse_seconds(text), 6)}
        for case, text in table1_texts()
    ]
    statements = sum(case["statements"] for case in cases)
    seconds = sum(case["seconds"] for case in cases)
    report = {
        "benchmark": "qasm",
        "description": (
            "circuit_from_qasm on the 48 Table-1 texts (both blocks, each "
            "instance's original and three variants): best-of-repeats wall "
            "time and statement count per text"
        ),
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cases": cases,
        "summary": {
            "statements": statements,
            "seconds": round(seconds, 6),
            "statements_per_s": round(statements / seconds),
        },
    }
    report = with_trajectory(report, OUTPUT)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"wrote {OUTPUT}: {statements} statements in {seconds:.3f} s, "
        f"{report['summary']['statements_per_s']} statements/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
