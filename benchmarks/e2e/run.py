"""End-to-end benchmark: Table 1 (sequential and portfolio) plus the service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload table1-compiled --seed 0 \\
        --seconds 20 --trace 0 [--out run.json] [--spans spans.json]

Without ``--workload`` every workload runs, each in its own process.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
layer entry points in span recorders (see ``spans.py``) and reports the
per-layer metrics instead.  Every verdict is checked against the label
its pair was built with.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every correctness gate held, 1 when one failed (the
result line then reads ``"correct": false``), 2 when the repository's
``src/`` is missing, without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Unit of every metric this command can report.
UNITS = {
    "setup_s": "s",
    "verify_s_total": "s",
    "verify_s_geomean": "s",
    "dd_s_total": "s",
    "zx_s_total": "s",
    "jobs_per_s": "1/s",
    "decided_share": "ratio",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "trace.check_s_mean": "s",
    "trace.overhead_share": "ratio",
    "manager.unattributed_s": "s",
    "manager.attributed_share": "ratio",
    "qasm.parse_share": "ratio",
    "qasm.gates_per_s": "gates/s",
    "logical_form.share": "ratio",
    "logical_form.calls_per_check": "count",
    "prepass.share": "ratio",
    "prepass.short_circuit_share": "ratio",
    "sim.share": "ratio",
    "sim.neq_share": "ratio",
    "sim.stimuli_useful_share": "ratio",
    "alternating.share": "ratio",
    "alternating.max_dd_nodes": "count",
    "alternating.compute_hit_ratio": "ratio",
    "zx.share": "ratio",
    "zx.decided_share": "ratio",
    "race.share": "ratio",
    "race.outside_share": "ratio",
    "race.isolation_share": "ratio",
    "race.children_per_check": "count",
    "race.losers_killed_per_check": "count",
    "race.simulation_win_share": "ratio",
    "service.cache_hit_share": "ratio",
    "service.hit_latency_share": "ratio",
    "service.miss_overhead_share": "ratio",
    "service.workers_spawned": "count",
    "service.request_bytes_mean": "bytes",
    "service.reply_bytes_mean": "bytes",
}


def _geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def _latency_note(label: str, walls: Sequence[float]) -> str:
    """Median and p99 of request latencies, with the sample count."""
    if len(walls) < 2:
        return f"{label}: {len(walls)} request(s)"
    p99 = statistics.quantiles(walls, n=100, method="inclusive")[98]
    beyond = sum(1 for wall in walls if wall > p99)
    return (f"{label}: p50 {statistics.median(walls) * 1e3:.2f} ms, p99 "
            f"{p99 * 1e3:.2f} ms over {len(walls)} requests ({beyond} beyond p99)")


def _peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped descendants."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _common(samples: Sequence[Any], setup_times: Sequence[float]) -> Dict[str, float]:
    decided: Dict[str, List[bool]] = {}
    for sample in samples:
        decided.setdefault(sample.check, []).append(
            sample.verdict in workloads.DECIDED
        )
    return {
        "setup_s": statistics.median(setup_times),
        # Each check counts once, however many times it ran.
        "decided_share": statistics.fmean(
            statistics.fmean(values) for values in decided.values()
        ),
        "peak_rss_mb": _peak_rss_mb(),
    }


def table_metrics(
    samples: Sequence[Any], setup_times: Sequence[float]
) -> Dict[str, float]:
    """Each check is one row, its time the median over its samples."""
    walls: Dict[str, List[float]] = {}
    kinds: Dict[str, str] = {}
    for sample in samples:
        walls.setdefault(sample.check, []).append(sample.scaled)
        kinds[sample.check] = sample.kind
    medians = {check: statistics.median(values) for check, values in walls.items()}
    return {
        **_common(samples, setup_times),
        "verify_s_total": sum(medians.values()),
        "verify_s_geomean": _geomean(list(medians.values())),
        "dd_s_total": sum(m for c, m in medians.items() if kinds[c] == "dd"),
        "zx_s_total": sum(m for c, m in medians.items() if kinds[c] == "zx"),
        # A sequential caller's rate, from the same medians.
        "jobs_per_s": len(medians) / sum(medians.values()),
    }


def service_metrics(repetitions: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each request is one check.  Every repetition sends pairs of its own,
    so sums are per repetition, averaged over all of them."""
    samples = [s for rep in repetitions for s in rep["samples"]]

    def total(kind: Optional[str]) -> float:
        return sum(
            s.scaled for s in samples if kind is None or s.kind == kind
        ) / len(repetitions)

    return {
        **_common(samples, [rep["setup_s"] for rep in repetitions]),
        "verify_s_total": total(None),
        "verify_s_geomean": _geomean([s.scaled for s in samples]),
        "dd_s_total": total("dd"),
        "zx_s_total": total("zx"),
        "jobs_per_s": len(samples) / sum(rep["stream_s"] for rep in repetitions),
    }


def service_layer_counts(repetitions: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The service's per-layer numbers that come from outside the spans."""
    samples = [s for rep in repetitions for s in rep["samples"]]
    misses = [s for s in samples if not s.hit and not s.failed]
    counters = [rep["counters"] for rep in repetitions]
    submitted = sum(c.get("service.jobs_submitted", 0) for c in counters)
    miss_wall = sum(s.wall for s in misses)
    return {
        "service.cache_hit_share": sum(c.get("cache.hit", 0) for c in counters)
        / max(1, submitted),
        "service.hit_latency_share": sum(s.wall for s in samples if s.hit)
        / sum(s.wall for s in samples),
        "service.miss_overhead_share": sum(s.wall - (s.check_s or 0.0) for s in misses)
        / miss_wall if miss_wall else 0.0,
        "service.workers_spawned": statistics.fmean(
            c.get("service.workers_spawned", 0) for c in counters
        ),
    }


def _service_repetitions(
    args: argparse.Namespace, work: Path, traced: Any, dump_dir: Optional[Path]
) -> List[Dict[str, Any]]:
    """Fresh servers until ``--seconds`` have passed (at least 3)."""
    rounds = 3 if args.quick else workloads.ROUNDS
    wanted = 1 if args.quick else workloads.REPETITIONS
    repetitions: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(repetitions) < wanted or (
        not args.quick and time.perf_counter() - start < args.seconds
    ):
        number = len(repetitions)
        repetitions.append(
            workloads.run_service_repetition(
                work / f"rep{number}", SRC, args.seed, number, rounds, traced,
                dump_dir,
            )
        )
    return repetitions


def run_workload(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """Set up, measure and judge one workload; returns its run record."""
    recorder = None
    traced = workloads.untraced
    dump_dir = None
    if args.trace:
        dump_dir = work / "spans"
        dump_dir.mkdir()
        recorder = spans.Recorder(dump_dir=str(dump_dir))
        traced = recorder.check
    violations: List[str] = []
    rows: Dict[str, Any] = {}
    service_counts = None

    if args.workload in workloads.TABLE_WORKLOADS:
        checks, setup_times = workloads.setup_table(
            args.workload, work / "inputs", args.quick
        )
        with spans.tracing(recorder):
            samples = workloads.run_table(checks, args.seconds, args.quick, traced)
        metrics = table_metrics(samples, setup_times)
        rows["setups"] = {"setup_s": setup_times}
        violations += [
            f"{s.check}: a race lane was not reaped"
            for s in samples if s.all_reaped is False
        ]
        notes = []
        for check in checks:
            runs = [s for s in samples if s.check == check.id]
            notes.append(
                f"row {check.id:34} {statistics.median(s.scaled for s in runs):8.4f} s"
                f" (wall {statistics.median(s.wall for s in runs):8.4f} s)"
                f" over {len(runs)} run(s): {runs[-1].verdict}"
            )
    else:
        with spans.tracing(recorder):
            repetitions = _service_repetitions(args, work, traced, dump_dir)
        samples = [s for rep in repetitions for s in rep["samples"]]
        metrics = service_metrics(repetitions)
        service_counts = service_layer_counts(repetitions)
        notes = [
            _latency_note("latency", [s.scaled for s in samples]),
            _latency_note("cache hits", [s.scaled for s in samples if s.hit]),
            _latency_note("cache misses", [s.scaled for s in samples if not s.hit]),
        ]
        for number, rep in enumerate(repetitions):
            violations += [f"repetition {number}: {v}" for v in rep["violations"]]
            rows[f"repetition {number}"] = {
                "setup_s": rep["setup_s"],
                "stream_s": rep["stream_s"],
                "counters": rep["counters"],
            }

    scales = [s.scale for s in samples]
    notes.append(
        f"host speed: wall times scaled by {min(scales):.3f}-{max(scales):.3f}, "
        f"median {statistics.median(scales):.3f}"
    )
    wrong = [s.check for s in samples if s.wrong]
    if wrong:
        violations.append(f"{len(wrong)} wrong verdict(s): {wrong[:10]}")
    for sample in samples:
        row = rows.setdefault(
            sample.check, {"kind": sample.kind, "label": sample.label, "runs": []}
        )
        row["runs"].append(
            {"wall": sample.wall, "scale": sample.scale, "verdict": sample.verdict,
             "failure": sample.failure}
        )

    span_list: List[Dict[str, object]] = []
    if recorder is not None:
        span_list, overhead = spans.collect(recorder)
        metrics = spans.layer_metrics(span_list, overhead, service_counts)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "correct": not violations,
        "attempted": len(samples),
        "failed": sum(sample.failed for sample in samples),
        "metrics": metrics,
        "violations": violations,
        "notes": notes,
        "rows": rows,
        "spans": span_list,
    }


def _declared_metrics(trace: bool) -> Optional[Dict[str, str]]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` names, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in declared}


def report(record: Dict[str, Any]) -> Dict[str, Any]:
    """Print the metrics by name with their unit; returns the result line.

    A metric ``BENCHMARK.json`` names that this run did not produce, or
    produced in another unit, is a violation.
    """
    for note in record.get("notes", ()):
        print(f"{record['workload']}  {note}")
    units = LAYER_UNITS if record["trace"] else UNITS
    declared = _declared_metrics(record["trace"])
    names = list(declared) if declared is not None else list(units)
    metrics = {}
    for name in names:
        if name not in record["metrics"] or (
            declared is not None and declared[name] != units.get(name)
        ):
            record["violations"].append(f"metric {name} missing or in another unit")
            record["correct"] = False
            continue
        value = float(record["metrics"][name])
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{record['workload']}  {name} = {value:.6g} {units[name]}")
    for violation in record["violations"]:
        print(f"{record['workload']}  VIOLATION: {violation}", file=sys.stderr)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _run_all(args: argparse.Namespace, argv: Sequence[str], work: Path) -> int:
    """One process per workload, so each reports its own peak memory."""
    status = 0
    records: List[Any] = []
    spans_by_workload: Dict[str, Any] = {}
    for workload in workloads.WORKLOADS:
        out = work / f"{workload}.json"
        spans_out = work / f"{workload}.spans.json"
        child = [sys.executable, str(Path(__file__).resolve()), *argv,
                 "--workload", workload, "--out", str(out)]
        if args.spans:
            child += ["--spans", str(spans_out)]
        status = max(status, subprocess.run(child).returncode)
        if out.exists():
            records += json.loads(out.read_text())
        if spans_out.exists():
            spans_by_workload.update(json.loads(spans_out.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))
    if args.spans:
        Path(args.spans).write_text(json.dumps(spans_by_workload))
    return status


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measure at least this long (every check still runs once)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run record(s) here")
    parser.add_argument("--spans", help="with --trace 1, write the spans here")
    parser.add_argument(
        "--quick", action="store_true",
        help="one pass, two instances per table, 60 service requests",
    )
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Everything the run writes, temporary files included, stays in the
    # checkout and goes away with the run.
    work_root = ROOT / ".e2e_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        if args.workload is None:
            return _run_all(args, argv, work)
        record = run_workload(args, work)
        line = report(record)
        if args.out:
            Path(args.out).write_text(
                json.dumps([{k: v for k, v in record.items() if k != "spans"}],
                           indent=1)
            )
        if args.spans and args.trace:
            Path(args.spans).write_text(json.dumps({args.workload: record["spans"]}))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
