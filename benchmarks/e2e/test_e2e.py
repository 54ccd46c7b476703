"""Self-test of the end-to-end benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs once in ``--quick`` mode untraced and once traced.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLES = ("table1-compiled", "table1-optimized")


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``{(workload, trace): (process, result line, record, spans)}``."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            record_path = out / f"{workload}-{trace}.json"
            spans_path = out / f"{workload}-{trace}.spans.json"
            process = _invoke(
                ROOT, "--workload", workload, "--seed", "0", "--quick",
                "--trace", str(trace), "--out", str(record_path),
                "--spans", str(spans_path),
            )
            line = json.loads(process.stdout.strip().splitlines()[-1])
            record = json.loads(record_path.read_text())[0]
            span_list = (
                json.loads(spans_path.read_text())[workload] if trace else []
            )
            runs[workload, trace] = (process, line, record, span_list)
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_emits_every_metric_with_its_unit(quick_runs, workload, trace):
    process, line, record, _ = quick_runs[workload, trace]
    assert process.returncode == 0, process.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1 and not record["violations"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    for metric in declared:
        value = line["metrics"][metric["name"]]["value"]
        assert isinstance(value, float)
        if not trace:
            assert value > 0, metric["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_by_parent_and_self_times_are_not_negative(quick_runs, workload):
    _, line, _, span_list = quick_runs[workload, 1]
    ids = [span["id"] for span in span_list]
    assert len(ids) == len(set(ids))
    known = set(ids)
    assert all(span["parent"] is None or span["parent"] in known for span in span_list)
    assert all(span["end"] >= span["start"] for span in span_list)
    assert min(spans.self_times(span_list).values()) >= -1e-9
    checks = [span for span in span_list if span["name"] == "check"]
    assert len(checks) == line["attempted"]
    if workload in TABLES:
        assert line["metrics"]["manager.attributed_share"]["value"] >= 0.9


def test_portfolio_lane_spans_come_back_from_the_forked_children(quick_runs):
    _, line, _, span_list = quick_runs["portfolio-compiled", 1]
    parent_pid = {span["pid"] for span in span_list if span["name"] == "check"}
    assert any(span["pid"] not in parent_pid for span in span_list)
    assert line["metrics"]["race.children_per_check"]["value"] >= 1


def test_race_metrics_follow_each_check_span_when_a_check_repeats():
    """Two passes over one check id: each race belongs to its own check span."""
    span_list = []
    for n, (start, length) in enumerate(((0.0, 1.0), (5.0, 3.0))):
        check, race, lane_pid = f"1.{2 * n}", f"1.{2 * n + 1}", 2 + n
        span_list += [
            {"id": check, "name": "check", "parent": None, "check": "c", "pid": 1,
             "start": start, "end": start + length, "kind": "dd"},
            {"id": race, "name": "race", "parent": check, "check": "c", "pid": 1,
             "start": start + 0.1, "end": start + length - 0.1,
             "winner": "alternating", "race_elapsed": length - 0.3,
             "children": [{"name": "alternating", "pid": lane_pid,
                           "status": "completed", "kill_code": None,
                           "wall_seconds": length - 0.4}]},
            {"id": f"{lane_pid}.1", "name": "alternating", "parent": race,
             "check": "c", "pid": lane_pid, "start": start + 0.2,
             "end": start + length - 0.5},
        ]
    metrics = spans.layer_metrics(span_list, 0.0)
    assert metrics["race.share"] == pytest.approx((0.8 + 2.8) / 4.0)
    assert metrics["race.outside_share"] == pytest.approx(0.6 / 4.0)
    assert metrics["race.isolation_share"] == pytest.approx(0.6 / 4.0)
    assert metrics["manager.attributed_share"] == pytest.approx(3.6 / 4.0)


def test_dense_unitary_truth_agrees_with_every_construction_label(tmp_path):
    """The labels the benchmark judges by, against dense unitaries (<= 8 qubits)."""
    from repro.cli import _load_circuit
    from repro.fuzz.oracle import DifferentialOracle

    oracle = DifferentialOracle()
    expected = {
        "equivalent": {"equivalent", "equivalent_up_to_global_phase"},
        "not_equivalent": {"not_equivalent"},
    }
    pairs = []
    for workload in TABLES:
        for check in workloads.build_table(workload, tmp_path / workload, False):
            if check.kind == "dd":
                pairs.append(
                    (check.id, _load_circuit(check.path1),
                     _load_circuit(check.path2), check.label)
                )
    for seed in (0, 1):
        for index, (pair, _kind) in enumerate(workloads.fuzz_pairs(seed, 60)):
            pairs.append((f"fuzz {seed}/{index}", pair.circuit1, pair.circuit2,
                          pair.label))
    checked = 0
    for name, circuit1, circuit2, label in pairs:
        width = max(circuit1.num_qubits, circuit2.num_qubits)
        if width > oracle.dense_limit:
            continue
        assert oracle._dense_verdict(circuit1, circuit2, width) in expected[label], name
        checked += 1
    assert checked >= 18 + 120  # the optimized block and every fuzz pair


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _invoke(tmp_path, "--workload", "table1-compiled", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert process.returncode != 0
    assert not process.stdout.strip()


def test_an_interval_is_scaled_by_the_probes_nearest_it_or_inside_it():
    stick = hostspeed.Yardstick()
    stick.probes = [0.01, 0.02, 0.01, 0.04, 0.01]
    stick.inside[2] = [0.02, 0.02]
    reference = hostspeed.REFERENCE_S
    assert stick.scale(0) == pytest.approx(reference / 0.01)  # 3 probes at the start
    assert stick.scale(1) == pytest.approx(reference / 0.015)
    assert stick.scale(2) == pytest.approx(reference / 0.0225)  # mean, brackets included
    assert stick.scale(3) == pytest.approx(reference / 0.01)
    sample = workloads.Sample("c", "dd", "equivalent", 2.0, "equivalent",
                              scale=stick.scale(1))
    assert sample.scaled == pytest.approx(2.0 * reference / 0.015)


def test_probes_inside_a_block_are_taken_off_its_wall_time():
    stick = hostspeed.Yardstick()
    start = time.perf_counter()
    with stick.sampling() as sampler:
        while time.perf_counter() - start < 1.2:
            pass
    stick.mark()
    assert len(stick.inside[0]) == 2  # at 0.5 s and 1.0 s
    assert sampler.seconds >= sum(stick.inside[0])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_wrong_verdict_or_a_missing_metric_fails_the_run():
    assert workloads.Sample(
        "c", "dd", "not_equivalent", 1.0, "probably_equivalent"
    ).wrong
    assert workloads.Sample("c", "dd", "equivalent", 1.0, "not_equivalent").wrong
    assert not workloads.Sample("c", "zx", "not_equivalent", 1.0, "no_information").wrong
    record = {"workload": "w", "trace": 0, "metrics": {}, "violations": [],
              "notes": [], "correct": True, "attempted": 1, "failed": 0}
    assert run.report(record)["correct"] is False


@pytest.mark.parametrize(
    "base, new, better, verdict",
    [
        ([10.0] * 5 + [10.2] * 5, [10.1] * 5 + [10.0] * 5, "lower", "unchanged"),
        ([10.0] * 5 + [10.2] * 5, [8.0] * 5 + [8.1] * 5, "lower", "improved"),
        ([10.0] * 5 + [10.2] * 5, [12.0] * 5 + [12.1] * 5, "lower", "regressed"),
        ([10.0] * 5 + [14.0] * 5, [10.5] * 5 + [14.5] * 5, "lower", "unresolved"),
        ([10.0] * 5 + [10.2] * 5, [8.0] * 5 + [8.1] * 5, "higher", "regressed"),
        ([10.0] * 3, [8.0] * 3, "lower", "too-few-runs"),
    ],
)
def test_compare_applies_the_pairing_rules(base, new, better, verdict):
    assert compare.classify(base, new, better, 0.1)[0] == verdict


def test_compare_judges_set_up_time_by_its_median_alone():
    base, new = [10.0] * 5 + [14.0] * 5, [10.5] * 5 + [14.5] * 5
    assert compare.classify(base, new, "lower", 0.1, spread_bounded=False)[0] == "unchanged"
    assert compare.classify(base, [20.0] * 10, "lower", 0.1, spread_bounded=False)[0] == (
        "regressed"
    )
