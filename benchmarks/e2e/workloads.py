"""Inputs and closed-loop drivers of the end-to-end benchmark's workloads.

Every check goes through the entry points users call:

* table workloads write each Table-1 pair as QASM files (plus the layout
  sidecar ``repro compile`` writes) and check them the way ``repro
  verify`` does: ``repro.cli._load_circuit`` on both files, then
  ``EquivalenceCheckingManager.run``;
* the service workload starts ``python -m repro serve`` as a subprocess
  and drives it through two :class:`repro.service.ServiceClient`
  connections.

A driver returns :class:`Sample` records and never judges them; the
caller (``run.py``) turns them into metrics and correctness gates.  Every
timed interval is bracketed by host-speed probes (``hostspeed.py``), and
each sample carries the scale that turns its wall time into time at the
host's undisturbed speed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import Yardstick

#: Table workloads: name -> (Table-1 block, race the t_dd column).
TABLE_WORKLOADS = {
    "table1-compiled": ("compiled", False),
    "table1-optimized": ("optimized", False),
    "portfolio-compiled": ("compiled", True),
}
WORKLOADS = tuple(TABLE_WORKLOADS) + ("service-mixed",)

#: Seed of the suite's instances, injected errors and simulation stimuli
#: in the table workloads, so they check the paper's fixed grid whatever
#: ``--seed`` says (it drives the service's fuzz pairs).  Moving an error
#: moves one cell by up to 3x (hwb5_5 t_dd 3.6-9.6 s over suite seeds
#: 0-5) and the stimuli move a cell by up to 35% (qft_6), beyond any
#: per-run bound.
SUITE_SEED = 0

#: Per-check timeout of the table workloads, as in ``repro bench``.
TABLE_TIMEOUT = 60.0

#: Per-request timeout of the service workload.
SERVICE_TIMEOUT = 10.0

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5

#: Service: fuzz families, requests per round, client connections,
#: rounds per repetition and the minimum number of repetitions.
FUZZ_FAMILIES = ("clifford", "clifford_t", "rotations", "ancilla")
ROUND = 20
CLIENTS = 2
ROUNDS = 40
REPETITIONS = 3

POSITIVE = ("equivalent", "equivalent_up_to_global_phase", "probably_equivalent")
DECIDED = ("equivalent", "equivalent_up_to_global_phase", "not_equivalent")

#: ``traced(check_id, fn, **attrs) -> fn()``: the hook that wraps one
#: check in a root span (``spans.Recorder.check``) in a traced run.
Traced = Callable[..., Any]


def untraced(_check_id: str, fn: Callable[[], Any], **_attrs: object) -> Any:
    return fn()


@dataclass
class Sample:
    """One check (or one service request) as the caller saw it."""

    check: str
    kind: str  # "dd" (the t_dd column / combined) or "zx"
    label: str  # the label the pair was built with
    wall: float  # seconds from QASM text (or submit) to verdict
    verdict: str
    failure: Optional[str] = None  # repro.errors kind, "timeout", transport
    all_reaped: Optional[bool] = None  # portfolio checks
    hit: bool = False  # service: repeat of a pair already answered
    check_s: Optional[float] = None  # service: the reply's own check time
    scale: float = 1.0  # host-speed scale of the interval (hostspeed.py)

    @property
    def scaled(self) -> float:
        """``wall`` at the host's undisturbed speed."""
        return self.wall * self.scale

    @property
    def wrong(self) -> bool:
        """The verdict contradicts the label."""
        if self.label == "equivalent":
            return self.verdict == "not_equivalent"
        return self.verdict in POSITIVE

    @property
    def failed(self) -> bool:
        return self.failure is not None


def _failure_kind(result: Any) -> Optional[str]:
    if result.equivalence.value == "timeout":
        return "timeout"
    failure = result.failure
    return None if failure is None else str(failure.get("kind"))


# ----------------------------------------------------------------------
# table workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableCheck:
    """One Table-1 cell: a QASM pair and the method that checks it."""

    id: str
    kind: str
    label: str
    path1: str
    path2: str
    portfolio: bool
    gates: int


def _export(circuit: Any, path: Path) -> str:
    """Write QASM plus, for compiled circuits, the layout sidecar."""
    from repro.circuit import circuit_to_qasm

    path.write_text(circuit_to_qasm(circuit))
    if circuit.initial_layout or circuit.output_permutation:
        Path(f"{path}.layout.json").write_text(
            json.dumps(
                {
                    "initial_layout": circuit.initial_layout,
                    "output_permutation": circuit.output_permutation,
                }
            )
        )
    return str(path)


def build_table(workload: str, out_dir: Path, quick: bool) -> List[TableCheck]:
    """Build the workload's Table-1 block and export every pair."""
    from repro.bench.suite import (
        CONFIGURATIONS,
        compiled_benchmarks,
        optimized_benchmarks,
    )

    block, portfolio = TABLE_WORKLOADS[workload]
    build = compiled_benchmarks if block == "compiled" else optimized_benchmarks
    instances = build(scale="small", seed=SUITE_SEED)
    if quick:
        instances = sorted(instances, key=lambda i: i.size_variant)[:2]
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    for instance in instances:
        original = _export(instance.original, out_dir / f"{instance.name}.qasm")
        for config in CONFIGURATIONS:
            variant = _export(
                instance.variants[config],
                out_dir / f"{instance.name}.{config}.qasm",
            )
            label = "equivalent" if config == "equivalent" else "not_equivalent"
            for kind in ("dd", "zx"):
                checks.append(
                    TableCheck(
                        f"{instance.name}/{config}/{kind}",
                        kind,
                        label,
                        original,
                        variant,
                        portfolio and kind == "dd",
                        instance.size_variant,
                    )
                )
    return checks


def run_table_check(check: TableCheck) -> Sample:
    """``repro verify [--portfolio]`` on one pair, timed from the files."""
    from repro.cli import _load_circuit
    from repro.ec import Configuration, EquivalenceCheckingManager

    start = time.perf_counter()
    circuit1 = _load_circuit(check.path1)
    circuit2 = _load_circuit(check.path2)
    configuration = Configuration(
        strategy="combined" if check.kind == "dd" else "zx",
        portfolio=check.portfolio,
        timeout=TABLE_TIMEOUT,
        seed=SUITE_SEED,
    )
    result = EquivalenceCheckingManager(circuit1, circuit2, configuration).run()
    wall = time.perf_counter() - start
    block = result.statistics.get("portfolio")
    return Sample(
        check.id,
        check.kind,
        check.label,
        wall,
        result.equivalence.value,
        failure=_failure_kind(result),
        all_reaped=block.get("all_reaped") if isinstance(block, dict) else None,
    )


def setup_table(
    workload: str, out_dir: Path, quick: bool
) -> Tuple[List[TableCheck], List[float]]:
    """Build and export the inputs, then warm up; repeated ``SETUPS`` times.

    The warm-up checks the smallest instance's equivalent pair with each
    method, so lazy imports and first-fork costs land in set-up.  Returns
    the checks and each set-up's time at the host's undisturbed speed.
    """
    yardstick = Yardstick()
    walls = []
    checks: List[TableCheck] = []
    for _ in range(1 if quick else SETUPS):
        start = time.perf_counter()
        checks = build_table(workload, out_dir, quick)
        smallest = min(check.gates for check in checks)
        for check in checks:
            if check.gates == smallest and check.label == "equivalent":
                run_table_check(check)
        walls.append(time.perf_counter() - start)
        yardstick.mark()
    return checks, [wall * yardstick.scale(i) for i, wall in enumerate(walls)]


def run_table(
    checks: Sequence[TableCheck],
    seconds: float,
    quick: bool,
    traced: Traced = untraced,
) -> List[Sample]:
    """Cycle through the checks until every one ran and ``seconds`` passed.

    After the first pass a workload with raced checks repeats only those:
    the race is what it measures and what varies most between runs, and
    its in-process ``t_zx`` column is table1-compiled's.  A host-speed
    probe follows every check, and an in-process check is also probed
    inside.  A raced check is not: its lanes share the cores with the
    probe.  ``quick`` stops after one pass.
    """
    repeated = [check for check in checks if check.portfolio] or list(checks)
    order = itertools.chain(checks, itertools.cycle(repeated))
    samples: List[Sample] = []
    yardstick = Yardstick()
    start = time.perf_counter()
    while len(samples) < len(checks) or (
        not quick and time.perf_counter() - start < seconds
    ):
        check = next(order)

        def run() -> Sample:
            return traced(check.id, lambda: run_table_check(check), kind=check.kind)

        if check.portfolio:
            sample = run()
        else:
            with yardstick.sampling() as sampler:
                sample = run()
            sample.wall -= sampler.seconds
        samples.append(sample)
        yardstick.mark()
    for index, sample in enumerate(samples):
        sample.scale = yardstick.scale(index)
    return samples


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def fuzz_pairs(seed: int, count: int, repetition: int = 0) -> List[Tuple[Any, str]]:
    """``count`` distinct labelled fuzz pairs, each with the column it is
    checked in (``"dd"`` or ``"zx"``).

    Every block of 16 holds one pair per (family, column, label), so the
    mix the service sees is the same for every seed; only the pairs
    differ.  Instance seeds start at the fuzz seed base
    ``seed * 100_000 + repetition * 10_000`` (a repetition's few hundred
    pairs take well under 10,000 draws).
    """
    from repro.circuit import circuit_to_qasm
    from repro.fuzz.generator import generate_instance
    from repro.fuzz.mutators import MutationNotApplicable

    cells = [
        (family, kind, label)
        for family in FUZZ_FAMILIES
        for kind in ("dd", "zx")
        for label in ("equivalent", "not_equivalent")
    ]
    spare: Dict[Tuple[str, str], List[Any]] = {}
    seen = set()
    draws = 0
    pairs: List[Tuple[Any, str]] = []
    while len(pairs) < count:
        family, kind, label = cells[len(pairs) % len(cells)]
        while not spare.get((family, label)):
            try:
                _instance, pair = generate_instance(
                    seed * 100_000 + repetition * 10_000 + draws, family
                )
            except MutationNotApplicable:
                pair = None
            draws += 1
            if pair is None:
                continue
            key = (circuit_to_qasm(pair.circuit1), circuit_to_qasm(pair.circuit2))
            if key not in seen:
                seen.add(key)
                spare.setdefault((family, pair.label), []).append(pair)
        pairs.append((spare[family, label].pop(0), kind))
    return pairs


def request_plan(rounds: int, seed: int) -> Tuple[List[List[Tuple[int, bool]]], int]:
    """Rounds of ``(pair index, repeat)`` requests and the pairs they use.

    Round 0 sends ``ROUND`` fresh pairs.  Every later round sends
    ``ROUND / 2`` fresh pairs and ``ROUND / 2`` repeats of pairs from
    earlier rounds, whose replies have arrived, so every repeat is a
    verdict-cache hit and every fresh pair a store.
    """
    rng = random.Random(seed)
    plan: List[List[Tuple[int, bool]]] = []
    answered: List[int] = []
    fresh = 0
    for number in range(rounds):
        count = ROUND if number == 0 else ROUND // 2
        batch = [(index, False) for index in range(fresh, fresh + count)]
        batch += [(index, True) for index in rng.sample(answered, ROUND - count)]
        rng.shuffle(batch)
        plan.append(batch)
        answered.extend(range(fresh, fresh + count))
        fresh += count
    return plan, fresh


def _socket_address(path: Path) -> str:
    """A path to the socket short enough for ``AF_UNIX`` (108 bytes)."""
    for candidate in (str(path), os.path.relpath(path)):
        if len(candidate.encode()) < 100:
            return candidate
    raise RuntimeError(f"socket path too long for AF_UNIX: {path}")


def _group_members(pgid: int) -> List[int]:
    """Live processes in process group ``pgid``, read from ``/proc``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


class ServiceRun:
    """One repetition: a fresh ``repro serve`` with a fresh cache."""

    def __init__(
        self, rep_dir: Path, src_dir: Path, dump_dir: Optional[Path]
    ) -> None:
        self.rep_dir = rep_dir
        rep_dir.mkdir(parents=True, exist_ok=True)
        self.address = _socket_address(rep_dir / "s.sock")
        serve = ["serve", "--socket", "s.sock", "--workers", str(CLIENTS),
                 "--cache", "cache.jsonl"]
        if dump_dir is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            spans_py = str(Path(__file__).resolve().parent / "spans.py")
            command = [sys.executable, spans_py, str(dump_dir), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(rep_dir / "server.log", "w")
        # A new session makes the server a process-group leader; its pool
        # workers inherit the group, which is how leaks are found later.
        self.process = subprocess.Popen(
            command,
            cwd=rep_dir,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.service import ServiceClient

        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"answering; see {self.rep_dir / 'server.log'}"
                )
            try:
                with ServiceClient(self.address) as client:
                    if client.ping():
                        return
            except (OSError, EOFError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer ping in time")
            time.sleep(0.01)

    def stop(self) -> List[str]:
        """Ask for a draining shutdown; returns violated invariants."""
        from repro.service import ServiceClient

        try:
            with ServiceClient(self.address) as client:
                client.shutdown_server()
            code = self.process.wait(timeout=60)
        except (OSError, EOFError, subprocess.TimeoutExpired) as exc:
            return [f"server did not shut down: {exc!r}"]
        return [] if code == 0 else [f"server exited with {code} after shutdown"]

    def kill(self) -> List[int]:
        """SIGKILL whatever is left of the server's group; returns the pids."""
        deadline = time.monotonic() + 2.0
        leftovers = _group_members(self.process.pid)
        while leftovers and time.monotonic() < deadline:
            time.sleep(0.05)
            leftovers = _group_members(self.process.pid)
        if leftovers or self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        self.log.close()
        return leftovers


def run_service_repetition(
    rep_dir: Path,
    src_dir: Path,
    seed: int,
    repetition: int,
    rounds: int,
    traced: Traced = untraced,
    dump_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up one server, stream the request plan through it, tear down.

    Each repetition of a run sends pairs of its own.  Returns ``setup_s``
    (input build plus spawn-to-first-ping), the samples, the stream's
    time (the sum of its rounds), the server's ``stats`` counters and
    violated invariants (exit status, leaked processes).  Set-up and
    every round are bracketed by host-speed probes; both times are at the
    host's undisturbed speed.
    """
    from repro.ec import Configuration
    from repro.service import ServiceClient

    yardstick = Yardstick()
    start = time.perf_counter()
    plan, needed = request_plan(rounds, seed)
    pairs = fuzz_pairs(seed, needed, repetition)
    configurations = {
        kind: Configuration(strategy=strategy, timeout=SERVICE_TIMEOUT, seed=seed)
        for kind, strategy in (("dd", "combined"), ("zx", "zx"))
    }
    server = ServiceRun(rep_dir, src_dir, dump_dir)
    violations: List[str] = []
    samples: List[Sample] = []
    counters: Dict[str, Any] = {}
    try:
        server.wait_ready()
        clients = [ServiceClient(server.address) for _ in range(CLIENTS)]
        setup_wall = time.perf_counter() - start
        yardstick.mark()
        round_walls = []
        try:
            for number, batch in enumerate(plan):
                round_start = time.perf_counter()
                first = len(samples)
                threads = []
                for slot, client in enumerate(clients):
                    mine = batch[slot::CLIENTS]
                    thread = threading.Thread(
                        target=_client_loop,
                        args=(client, mine, pairs, configurations, traced,
                              f"{repetition}.{number}.{slot}", samples),
                    )
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join()
                round_walls.append((time.perf_counter() - round_start, samples[first:]))
                yardstick.mark()
            # Interval 0 is the set-up, interval n + 1 is round n.
            setup_s = setup_wall * yardstick.scale(0)
            stream_s = 0.0
            for number, (wall, members) in enumerate(round_walls):
                scale = yardstick.scale(number + 1)
                stream_s += wall * scale
                for sample in members:
                    sample.scale = scale
            counters = clients[0].stats().get("counters", {}).get("counters", {})
        finally:
            for client in clients:
                client.close()
        violations += server.stop()
    finally:
        leftovers = server.kill()
    if leftovers:
        violations.append(f"server left processes behind: {leftovers}")
    return {
        "setup_s": setup_s,
        "samples": samples,
        "stream_s": stream_s,
        "counters": counters,
        "violations": violations,
    }


def _client_loop(
    client: Any,
    requests: Sequence[Tuple[int, bool]],
    pairs: Sequence[Tuple[Any, str]],
    configurations: Dict[str, Any],
    traced: Traced,
    tag: str,
    out: List[Sample],
) -> None:
    """One connection's closed loop: one pair per ``submit``."""
    for position, (index, repeat) in enumerate(requests):
        pair, kind = pairs[index]
        check_id = f"{tag}.{position}"
        start = time.perf_counter()
        try:
            reply = traced(
                check_id,
                lambda: client.submit_batch(
                    [(pair.circuit1, pair.circuit2)], configurations[kind]
                )[0],
                kind=kind,
                hit=repeat,
            )
        except Exception as exc:  # noqa: BLE001 - record, keep the stream going
            out.append(
                Sample(check_id, kind, pair.label, time.perf_counter() - start,
                       "none", failure=f"transport:{type(exc).__name__}",
                       hit=repeat)
            )
            continue
        wall = time.perf_counter() - start
        failure = (reply.get("statistics") or {}).get("failure")
        verdict = str(reply.get("equivalence"))
        out.append(
            Sample(
                check_id,
                kind,
                pair.label,
                wall,
                verdict,
                failure="timeout" if verdict == "timeout" else (
                    str(failure.get("kind")) if isinstance(failure, dict) else None
                ),
                hit=repeat,
                check_s=float(reply.get("time") or 0.0),
            )
        )
