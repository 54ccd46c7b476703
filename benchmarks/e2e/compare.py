"""Compare a parent's benchmark runs with a change's, per workload and metric.

    python3 benchmarks/e2e/compare.py --base base-*.json --new new-*.json

Each file holds run records written by ``run.py --out``.  The i-th base
run and the i-th new run form a pair, so run them alternately (base,
new, new, base, ...) with the same ``--seconds`` and seeds.  For every
workload and end-to-end metric of ``BENCHMARK.json`` the verdict is:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ, in its favour, by more than the
  parent's interquartile spread;
* ``unresolved``: the runs spread wider than the metric's bound, unless
  every run of the change reads better than every run of the parent;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

``setup_s`` is judged by its median alone: it is the median of a few
sub-second set-ups per run, and the benchmark bounds how far its median
may move, not how widely it spreads.

Fewer than ten pairs make every verdict ``too-few-runs``.  The exit
status is 0 when no metric regressed, is unresolved or had too few runs,
and when the change failed no more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """Untraced run records by workload, in the order given."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        for record in json.loads(Path(path).read_text()):
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    spread_bounded: bool = True,
) -> Tuple[str, Dict[str, float]]:
    """Verdict for one workload and metric, with the numbers behind it."""
    pairs = list(zip(base, new))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if len(pairs) < MIN_PAIRS:
        return "too-few-runs", {"pairs": len(pairs), "wins": wins}
    bq1, bmed, bq3 = _quartiles(base)
    nq1, nmed, nq3 = _quartiles(new)
    change = sign * (nmed - bmed) / bmed  # > 0: the change is better
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    detail = {
        "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
        "new_median": nmed, "new_q1": nq1, "new_q3": nq3,
        "change": change, "spread": spread, "pairs": len(pairs), "wins": wins,
    }
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if wins >= WIN_SHARE * len(pairs) and change > 0 and abs(nmed - bmed) > bq3 - bq1:
        return "improved", detail
    if spread_bounded and spread > bound and not all_better:
        return "unresolved", detail
    if -change > bound:
        return "regressed", detail
    return "unchanged", detail


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="parent's run files")
    parser.add_argument("--new", nargs="+", required=True, help="change's run files")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base_runs, new_runs = load(args.base), load(args.new)
    status = 0
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        failed = (sum(r["failed"] for r in base), sum(r["failed"] for r in new))
        print(f"{workload}: {len(base)} base / {len(new)} new runs; "
              f"failed operations {failed[0]} -> {failed[1]}")
        if failed[1] > failed[0] or not all(r["correct"] for r in new):
            print("  the change fails more operations or gives wrong verdicts")
            status = 1
        for metric in metrics:
            name = metric["name"]
            verdict, detail = classify(
                [r["metrics"][name] for r in base],
                [r["metrics"][name] for r in new],
                metric["better"],
                metric["bound"],
                spread_bounded=name != "setup_s",
            )
            if verdict in ("regressed", "unresolved", "too-few-runs"):
                status = 1
            numbers = ""
            if "base_median" in detail:
                numbers = (
                    f"base {detail['base_median']:.4g} [{detail['base_q1']:.4g}, "
                    f"{detail['base_q3']:.4g}]  new {detail['new_median']:.4g} "
                    f"[{detail['new_q1']:.4g}, {detail['new_q3']:.4g}]  "
                    f"gain {detail['change']:+.1%}  spread {detail['spread']:.1%}  "
                )
            print(f"  {name:18} {verdict:13} {numbers}wins {detail['wins']}/"
                  f"{detail['pairs']}  bound {metric['bound']:.0%} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
