"""Span recorder that traces the checker's layers from outside the program.

Each layer entry point is replaced, by ``setattr`` on the module (or
class) attribute its caller looks up at call time, with a wrapper that
records one span: name, start, end, parent span, check id, process id
and a few attributes read off the call's return value.  No file under
``src/`` changes; :func:`install` returns the function that puts the
originals back.

Spans stay in memory in the benchmark process.  Processes forked from a
traced process (portfolio race lanes, service pool workers) inherit the
wrappers; they append their spans to ``<dump_dir>/<pid>.jsonl`` each time
their outermost span closes, because they leave through ``os._exit`` and
a killed race loser would lose anything buffered.  :func:`collect` merges
those files back.  The service runs in a separate interpreter, started
through this file's ``__main__`` (``python spans.py DUMP_DIR serve ...``)
so that it records into the same dump directory.

Each wrapper times its own bookkeeping; the sum, over every process, is
the tracing overhead the traced run reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
import threading
import time
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from workloads import DECIDED

#: Layer spans: the time a check spends in one layer of the program.
#: ``manager.attributed_share`` sums the outermost of them per check.
LAYERS = (
    "qasm.parse",
    "logical_form",
    "prepass",
    "sim",
    "alternating",
    "zx",
    "stabilizer",
    "race",
)

#: ``(span name, module, attribute)`` of every wrapped entry point.  The
#: attribute is the one the caller resolves at call time: ``repro verify``
#: parses through ``repro.cli.circuit_from_qasm``, the manager dispatches
#: through its own module globals, and so on.  ``service.job`` (a pool
#: worker running one job) and ``service.wire`` (one client round trip)
#: are containers, not layers.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("qasm.parse", "repro.cli", "circuit_from_qasm"),
    ("qasm.parse", "repro.service.server", "circuit_from_qasm"),
    ("logical_form", "repro.ec.sim_checker", "to_logical_form"),
    ("logical_form", "repro.ec.dd_checker", "to_logical_form"),
    ("logical_form", "repro.ec.zx_checker", "to_logical_form"),
    ("logical_form", "repro.ec.stab_checker", "to_logical_form"),
    ("logical_form", "repro.analysis", "to_logical_form"),
    ("prepass", "repro.analysis", "run_prepass"),
    ("sim", "repro.ec.manager", "simulation_check"),
    ("alternating", "repro.ec.dd_checker", "AlternatingChecker.__init__"),
    ("alternating", "repro.ec.dd_checker", "AlternatingChecker.run"),
    ("zx", "repro.ec.manager", "zx_check"),
    ("stabilizer", "repro.ec.manager", "stabilizer_check"),
    ("race", "repro.ec.portfolio", "run_portfolio"),
    ("service.job", "repro.service.pool", "_execute_job"),
    ("service.wire", "repro.service.server", "ServiceClient._request"),
)


def _verdict(result: Any, _args: tuple) -> Dict[str, object]:
    return {"verdict": result.equivalence.value}


def _parse_attrs(result: Any, _args: tuple) -> Dict[str, object]:
    return {"gates": len(result)}


def _prepass_attrs(result: Any, _args: tuple) -> Dict[str, object]:
    return {"short_circuit": result[0] is not None}


def _sim_attrs(result: Any, _args: tuple) -> Dict[str, object]:
    stats = result.statistics
    return {
        "verdict": result.equivalence.value,
        "simulations_run": stats.get("simulations_run"),
        "first_mismatch": stats.get("first_mismatch"),
    }


def _alternating_attrs(result: Any, _args: tuple) -> Dict[str, object]:
    if result is None:  # __init__
        return {}
    stats = result.statistics
    tables = stats.get("perf", {}).get("compute_tables", {})
    return {
        "verdict": result.equivalence.value,
        "max_dd_size": stats.get("max_dd_size"),
        "hits": sum(t.get("hits", 0) for t in tables.values()),
        "misses": sum(t.get("misses", 0) for t in tables.values()),
    }


def _race_attrs(result: Any, _args: tuple) -> Dict[str, object]:
    block = result.statistics.get("portfolio", {})
    return {
        "winner": block.get("winner"),
        "race_elapsed": block.get("race_elapsed"),
        "children": [
            {
                "name": child.get("name"),
                "pid": child.get("pid"),
                "status": child.get("status"),
                "kill_code": child.get("kill_code"),
                "wall_seconds": child.get("wall_seconds"),
            }
            for child in block.get("children", ())
        ],
    }


def _wire_attrs(result: Any, args: tuple) -> Dict[str, object]:
    return {
        "request_bytes": len(pickle.dumps(args[1])),
        "reply_bytes": len(pickle.dumps(result)),
    }


#: Attributes read off a call's result (and arguments), by span name.
_ATTRS: Dict[str, Callable[[Any, tuple], Dict[str, object]]] = {
    "qasm.parse": _parse_attrs,
    "prepass": _prepass_attrs,
    "sim": _sim_attrs,
    "alternating": _alternating_attrs,
    "zx": _verdict,
    "stabilizer": _verdict,
    "race": _race_attrs,
    "service.wire": _wire_attrs,
}


class Recorder:
    """In-memory span store of one traced process (and its forks).

    Args:
        dump_dir: Directory where every process other than the owner
            appends its spans.  Required whenever a traced process forks
            workers that run wrapped code.
        keep_own: Keep this process's spans in memory (the benchmark
            process).  False for the traced service, whose spans the
            benchmark reads back from ``dump_dir``.
    """

    def __init__(self, dump_dir: Optional[str] = None, keep_own: bool = True) -> None:
        self.dump_dir = dump_dir
        self.spans: List[Dict[str, object]] = []
        self.overhead = 0.0
        self._owner = os.getpid() if keep_own else None
        self._pid = self._owner
        self._base_depth = 0
        self._counter = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, pid: int, stack: List[Dict[str, object]]) -> None:
        """First span in a new process: drop the spans inherited by fork.

        The open spans of the forking thread stay on the stack, so the
        new process's spans nest under the span that forked it.
        """
        self._pid = pid
        self.spans = []
        self.overhead = 0.0
        self._base_depth = len(stack)
        self._lock = threading.Lock()

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        entered = time.monotonic()
        pid = os.getpid()
        stack = self._stack()
        if pid != self._pid:
            self._adopt(pid, stack)
        with self._lock:
            self._counter += 1
            span_id = f"{pid}.{self._counter}"
        span: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "check": getattr(self._local, "check", None),
            "pid": pid,
            **(attrs or {}),
        }
        stack.append(span)
        span["start"] = start = time.monotonic()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span["end"] = time.monotonic()
            span["error"] = type(exc).__name__
            self._close(span, stack, start - entered)
            raise
        span["end"] = end = time.monotonic()
        extract = _ATTRS.get(name)
        if extract is not None:
            span.update(extract(result, args))
        self._close(span, stack, start - entered + time.monotonic() - end)
        return result

    def check(self, check_id: str, fn: Callable[[], Any], **attrs: object) -> Any:
        """Run one check as the root span of its tree; returns ``fn()``."""
        self._local.check = check_id
        try:
            return self.call("check", fn, attrs=attrs)
        finally:
            self._local.check = None

    def _close(
        self, span: Dict[str, object], stack: List[Dict[str, object]], cost: float
    ) -> None:
        stack.pop()
        with self._lock:
            self.spans.append(span)
            self.overhead += cost
            if (
                self.dump_dir is not None
                and self._pid != self._owner
                and len(stack) == self._base_depth
            ):
                self._dump()

    def _dump(self) -> None:
        path = Path(str(self.dump_dir)) / f"{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"overhead": self.overhead}) + "\n")
        self.spans = []
        self.overhead = 0.0


def _wrapper(recorder: Recorder, name: str, fn: Callable[..., Any]):
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, fn, args, kwargs)

    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the undo."""
    undo: List[Tuple[object, str, object]] = []
    for name, module_name, attribute in ENTRY_POINTS:
        target: object = import_module(module_name)
        owner, _, leaf = attribute.rpartition(".")
        if owner:
            target = getattr(target, owner)
        original = getattr(target, leaf)
        setattr(target, leaf, _wrapper(recorder, name, original))
        undo.append((target, leaf, original))

    def uninstall() -> None:
        for target, leaf, original in reversed(undo):
            setattr(target, leaf, original)

    return uninstall


@contextlib.contextmanager
def tracing(recorder: Optional[Recorder]) -> Iterator[None]:
    """Install ``recorder`` for the duration of the block (None: no-op)."""
    if recorder is None:
        yield
        return
    uninstall = install(recorder)
    try:
        yield
    finally:
        uninstall()


def collect(recorder: Recorder) -> Tuple[List[Dict[str, object]], float]:
    """All spans (this process plus the dump files) and the total overhead."""
    spans = list(recorder.spans)
    overhead = recorder.overhead
    if recorder.dump_dir is not None:
        for path in sorted(Path(recorder.dump_dir).glob("*.jsonl")):
            for line in path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:  # a race loser killed mid-write
                    continue
                if "overhead" in record:
                    overhead += float(record["overhead"])
                else:
                    spans.append(record)
    return spans, overhead


# ----------------------------------------------------------------------
# span-tree arithmetic
# ----------------------------------------------------------------------
def _covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    clipped = sorted(
        (max(low, a), min(high, b)) for a, b in parts if b > low and a < high
    )
    covered = 0.0
    cursor = low
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(str(parent), []).append(
                (float(span["start"]), float(span["end"]))  # type: ignore[arg-type]
            )
    out = {}
    for span in spans:
        interval = (float(span["start"]), float(span["end"]))  # type: ignore[arg-type]
        out[str(span["id"])] = (interval[1] - interval[0]) - _covered(
            interval, children.get(str(span["id"]), ())
        )
    return out


def _duration(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])  # type: ignore[arg-type]


def _outermost(
    spans: List[Dict[str, object]], names: Iterable[str]
) -> List[Dict[str, object]]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    wanted = set(names)
    by_id = {str(span["id"]): span for span in spans}
    out = []
    for span in spans:
        if span["name"] not in wanted:
            continue
        parent = by_id.get(str(span.get("parent")))
        while parent is not None and parent["name"] not in wanted:
            parent = by_id.get(str(parent.get("parent")))
        if parent is None:
            out.append(span)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    spans: List[Dict[str, object]],
    overhead: float,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see the README's table).

    Layer times are given as shares of the total check wall time
    (``trace.check_s_mean`` times the number of checks), because some
    layers do not run at all on some workloads.  ``service`` carries the
    service workload's numbers measured outside the spans (cache-hit,
    hit-latency and miss-overhead shares, workers spawned); table
    workloads pass None.
    """
    checks = [span for span in spans if span["name"] == "check"]
    wall = sum(_duration(span) for span in checks)
    n_checks = max(1, len(checks))

    def named(name: str) -> List[Dict[str, object]]:
        return [span for span in spans if span["name"] == name]

    def layer_time(name: str) -> float:
        return sum(_duration(span) for span in _outermost(spans, [name]))

    parses = named("qasm.parse")
    parse_s = sum(_duration(span) for span in parses)
    sims = named("sim")
    sim_neq = [s for s in sims if s.get("verdict") == "not_equivalent"]
    runs = [s for s in named("alternating") if "max_dd_size" in s]
    zxs = named("zx")
    prepasses = named("prepass")
    hits = sum(int(s.get("hits") or 0) for s in runs)
    lookups = hits + sum(int(s.get("misses") or 0) for s in runs)
    attributed = sum(_duration(span) for span in _outermost(spans, LAYERS))

    metrics = {
        "trace.check_s_mean": wall / n_checks,
        "trace.overhead_share": _share(overhead, wall),
        "manager.unattributed_s": (wall - attributed) / n_checks,
        "manager.attributed_share": _share(attributed, wall),
        "qasm.parse_share": _share(parse_s, wall),
        "qasm.gates_per_s": _share(
            sum(int(s.get("gates") or 0) for s in parses), parse_s
        ),
        "logical_form.share": _share(layer_time("logical_form"), wall),
        "logical_form.calls_per_check": len(named("logical_form")) / n_checks,
        "prepass.share": _share(layer_time("prepass"), wall),
        "prepass.short_circuit_share": _share(
            sum(1 for s in prepasses if s.get("short_circuit")), len(prepasses)
        ),
        "sim.share": _share(layer_time("sim"), wall),
        "sim.neq_share": _share(len(sim_neq), len(sims)),
        "sim.stimuli_useful_share": _share(
            sum(int(s.get("first_mismatch") or 0) for s in sim_neq),
            sum(int(s.get("simulations_run") or 0) for s in sim_neq),
        ),
        "alternating.share": _share(layer_time("alternating"), wall),
        "alternating.max_dd_nodes": float(
            max((int(s.get("max_dd_size") or 0) for s in runs), default=0)
        ),
        "alternating.compute_hit_ratio": _share(hits, lookups),
        "zx.share": _share(layer_time("zx"), wall),
        "zx.decided_share": _share(
            sum(1 for s in zxs if s.get("verdict") in DECIDED), len(zxs)
        ),
    }
    metrics.update(_race_metrics(spans))
    service = service or {}
    for key in (
        "service.cache_hit_share",
        "service.hit_latency_share",
        "service.miss_overhead_share",
        "service.workers_spawned",
    ):
        metrics[key] = float(service.get(key, 0.0))
    wires = named("service.wire")
    metrics["service.request_bytes_mean"] = _share(
        sum(int(s.get("request_bytes") or 0) for s in wires), len(wires)
    )
    metrics["service.reply_bytes_mean"] = _share(
        sum(int(s.get("reply_bytes") or 0) for s in wires), len(wires)
    )
    return metrics


def _race_metrics(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Portfolio race metrics from the parent's race spans and lane spans.

    ``race.isolation_share`` is the winning lane's wall time (as the
    racer measured it) minus the time the lane spent inside wrapped
    layers in its own process: fork, pipe and JSON transfer, plus the
    lane's manager set-up.
    """
    by_id = {str(span["id"]): span for span in spans}
    races = [span for span in spans if span["name"] == "race"]
    # Layer time of each lane, by (race span, lane pid): the lane's
    # outermost spans are the ones whose parent is the race span.
    in_lane: Dict[Tuple[str, int], float] = {}
    for span in spans:
        parent = by_id.get(str(span.get("parent")))
        if parent is not None and parent["name"] == "race" and span["name"] in LAYERS:
            key = (str(parent["id"]), int(span["pid"]))  # type: ignore[arg-type]
            in_lane[key] = in_lane.get(key, 0.0) + _duration(span)
    raced_wall = race_s = outside = isolation = 0.0
    children = killed = sim_wins = 0
    for race in races:
        check = by_id.get(str(race.get("parent")))
        while check is not None and check["name"] != "check":
            check = by_id.get(str(check.get("parent")))
        race_s += _duration(race)
        if check is not None:
            raced_wall += _duration(check)
            outside += _duration(check) - float(race.get("race_elapsed") or 0.0)
        lanes = race.get("children") or []
        children += sum(1 for lane in lanes if lane.get("status") != "skipped")
        killed += sum(1 for lane in lanes if lane.get("kill_code") == "loser")
        if race.get("winner") == "simulation":
            sim_wins += 1
        for lane in lanes:
            if lane.get("name") == race.get("winner") and lane.get("pid"):
                isolation += float(lane.get("wall_seconds") or 0.0) - in_lane.get(
                    (str(race["id"]), int(lane["pid"])), 0.0
                )
    n_races = max(1, len(races))
    return {
        "race.share": _share(race_s, raced_wall),
        "race.outside_share": _share(outside, raced_wall),
        "race.isolation_share": _share(isolation, raced_wall),
        "race.children_per_check": children / n_races,
        "race.losers_killed_per_check": killed / n_races,
        "race.simulation_win_share": _share(sim_wins, len(races)),
    }


def main(argv: List[str]) -> int:
    """``python spans.py DUMP_DIR CLI-ARGS...``: run ``repro`` traced."""
    dump_dir, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from repro.cli import main as cli_main

    install(Recorder(dump_dir=dump_dir, keep_own=False))
    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
