"""Supervised pool of long-lived sandboxed equivalence-check workers.

:func:`repro.harness.run_check_isolated` pays one ``fork`` + interpreter
teardown per check — the right trade for a batch study, the wrong one
for a service where the same few worker images could amortize across
thousands of jobs.  This module keeps ``N`` forked workers alive behind
a job queue and moves every failure mode the one-shot sandbox handles
per-check into a *supervision loop*.  Workers are forked, reaped and
classified through :mod:`repro.harness.child` and run each job with
:func:`~repro.harness.child.run_job`, exactly like the sandbox and the
racer:

* **Liveness** — each worker owns a duplex pipe; any message refreshes
  its heartbeat, idle workers are pinged, and a worker that neither
  answers nor dies is SIGKILLed and replaced.
* **Containment** — per-job hard wall-clock deadlines (SIGKILL on
  overrun, exactly like the sandbox) and a per-worker RLIMIT_AS ceiling
  applied once at worker startup.
* **Hygiene** — workers are recycled (gracefully retired and replaced)
  after a job-count threshold or when their resident set exceeds the
  RSS threshold, so slow leaks never become host OOMs.
* **Resilience** — crashed/hung/lost workers are replaced with
  deterministic jittered exponential backoff
  (:class:`repro.errors.RetryPolicy`), and a restart storm (workers
  dying independent of any job, e.g. at startup, or forks failing)
  trips a circuit breaker that fails the pool loudly instead of
  fork-bombing the host.
* **Poison quarantine** — a job whose execution kills its worker twice
  is handed to :class:`repro.service.quarantine.QuarantineStore` and
  answered with a degraded verdict; it can never take a third worker
  down, in this process or (with a persistent store) any later one.
* **Dedup** — identical in-flight submissions coalesce onto one
  execution, and a :class:`repro.service.cache.VerdictCache` answers
  repeats without touching a worker at all.

Verdict parity is the non-negotiable invariant: for any job, the pool's
answer (verdict and degradation shape) matches a direct
:func:`repro.harness.run_check` of the same pair — the pool changes
*where* checks run, never *what* they answer.

The pool is deliberately single-threaded on the supervisor side: one
owner (the caller of :meth:`WorkerPool.pump` / :meth:`run_batch` /
:meth:`drain`) drives the event loop, which keeps the state machine
auditable.  :mod:`repro.service.server` is that owner: it hands its
listening socket and client connections to :meth:`WorkerPool.pump`, so
one wait covers them and every worker pipe.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import EquivalenceCheckingResult
from repro.errors import (
    CheckError,
    CheckTimeout,
    CheckWorkerLost,
    InvalidInput,
    PoolBroken,
    PoolSaturated,
    RetryPolicy,
    error_from_dict,
)
from repro.harness.chaos import ChaosSpec
from repro.harness.child import (
    DEFAULT_GRACE_SECONDS,
    Child,
    apply_memory_limit,
    classify_death,
    fork_context,
    hard_budget,
    rss_mb,
    run_job,
)
from repro.perf import PerfCounters
from repro.service.cache import VerdictCache, cache_key
from repro.service.quarantine import QuarantineStore

#: Upper bound on one supervision-loop wait (and so on how late the
#: serve loop sees a stop request).
_MAX_POLL_SECONDS = 0.05

#: Idle seconds before a worker is pinged.
HEARTBEAT_INTERVAL = 5.0

#: Seconds an idle worker may ignore a ping before it is declared lost
#: and replaced.
HEARTBEAT_TIMEOUT = 10.0

#: Worker-kills by one job before the job is quarantined as a poison pair.
POISON_STRIKES = 2

#: Sliding window (seconds) of the restart-storm circuit breaker.
STORM_WINDOW = 30.0

#: Job-independent worker deaths tolerated inside :data:`STORM_WINDOW`
#: before the breaker trips the pool.
STORM_THRESHOLD = 8


def _execute_job(message: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job inside the worker; always returns a structured payload."""
    return run_job(
        message["circuit1"],
        message["circuit2"],
        message["configuration"],
        message["chaos"],
    )


def _worker_main(
    conn: Any,
    memory_mb: Optional[int],
    startup_chaos: Optional[ChaosSpec],
) -> None:
    """Long-lived worker loop: serve jobs until told to shut down.

    The worker is passive: it blocks on the pipe, answers pings, runs
    jobs, and reports its resident set with every result so the
    supervisor can recycle it.  SIGINT is ignored — a Ctrl-C aimed at
    the foreground service must reach the *supervisor's* draining
    shutdown, not kill workers mid-check.
    """
    from repro.harness import chaos as chaos_module

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass
    if memory_mb is not None:
        apply_memory_limit(memory_mb)
    if startup_chaos is not None:
        chaos_module.trigger(startup_chaos)
    jobs_done = 0
    try:
        conn.send({"type": "ready", "pid": os.getpid()})
        while True:
            try:
                message = conn.recv()
            except EOFError:  # supervisor is gone — nothing to serve
                break
            kind = message.get("type")
            if kind == "shutdown":
                conn.send({"type": "bye", "jobs_done": jobs_done})
                break
            if kind == "ping":
                conn.send({"type": "pong", "rss_mb": rss_mb()})
                continue
            if kind != "job":  # pragma: no cover - unknown message
                continue
            conn.send({"type": "started", "id": message["id"]})
            payload = _execute_job(message)
            jobs_done += 1
            payload.update(
                {
                    "type": "result",
                    "id": message["id"],
                    "rss_mb": rss_mb(),
                    "jobs_done": jobs_done,
                }
            )
            conn.send(payload)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Supervisor-side state
# ----------------------------------------------------------------------
@dataclass
class PoolConfig:
    """Supervision knobs of one :class:`WorkerPool`.

    Attributes:
        workers: Pool size — long-lived sandboxed children kept alive.
        memory_mb: RLIMIT_AS headroom per worker (MiB above the
            interpreter baseline), applied once at worker startup.
        max_jobs_per_worker: Graceful recycling threshold — a worker is
            retired and replaced after this many jobs (bounds the blast
            radius of slow interpreter-state corruption).
        max_worker_rss_mb: RSS recycling threshold in MiB; a worker
            reporting a resident set above it is retired after the job.
        grace: Seconds added to a job's cooperative timeout to form its
            hard SIGKILL deadline (mirrors the one-shot sandbox).
        restart_backoff: Deterministic jittered exponential backoff
            schedule for replacing dead workers; attempts index
            consecutive deaths and reset on the next successful job.
        queue_depth: Bound on unresolved jobs; submissions beyond it
            are rejected with :class:`repro.errors.PoolSaturated`.
        startup_chaos: Deterministic fault triggered inside every new
            worker before it reports ready (tests of the breaker).
    """

    workers: int = 4
    memory_mb: Optional[int] = None
    max_jobs_per_worker: int = 64
    max_worker_rss_mb: Optional[float] = 1024.0
    grace: float = DEFAULT_GRACE_SECONDS
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=0,
            backoff_base=0.05,
            backoff_max=2.0,
            jitter=0.5,
            jitter_seed=0,
        )
    )
    queue_depth: int = 1024
    startup_chaos: Optional[ChaosSpec] = None

    def validate(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError("workers must be a positive integer")
        if self.memory_mb is not None and self.memory_mb < 1:
            raise ValueError(
                f"memory_mb must be at least 1, got {self.memory_mb!r}"
            )
        if self.max_jobs_per_worker < 1:
            raise ValueError("max_jobs_per_worker must be at least 1")
        if self.max_worker_rss_mb is not None and not (
            self.max_worker_rss_mb > 0
        ):
            raise ValueError(
                "max_worker_rss_mb must be positive, got "
                f"{self.max_worker_rss_mb!r}"
            )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if isinstance(self.grace, bool) or not isinstance(self.grace, (int, float)):
            raise ValueError(f"grace must be a number, got {self.grace!r}")
        if self.grace < 0:
            raise ValueError("grace must be non-negative")
        self.restart_backoff.validate()
        if self.startup_chaos is not None:
            self.startup_chaos.validate()


#: Job states.
_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_COALESCED = "coalesced"


@dataclass
class _Job:
    """Supervisor-side record of one submitted check."""

    id: int
    circuit1: QuantumCircuit
    circuit2: QuantumCircuit
    configuration: Configuration
    key: str
    chaos: Optional[ChaosSpec] = None
    chaos_once: bool = True
    state: str = _QUEUED
    strikes: List[Dict[str, object]] = field(default_factory=list)
    soft_attempts: int = 0
    executions: int = 0
    submitted_at: float = 0.0
    result: Optional[EquivalenceCheckingResult] = None
    primary_id: Optional[int] = None  # set on coalesced duplicates


class _Worker:
    """Supervisor-side state of one live worker process."""

    __slots__ = (
        "child", "ready", "job", "job_deadline", "jobs_done",
        "last_seen", "ping_deadline", "retiring", "spawned_at",
    )

    def __init__(self, child: Child, now: float) -> None:
        self.child = child
        self.ready = False
        self.job: Optional[_Job] = None
        self.job_deadline: Optional[float] = None
        self.jobs_done = 0
        self.last_seen = now
        self.ping_deadline: Optional[float] = None
        self.retiring = False
        self.spawned_at = now

    @property
    def idle(self) -> bool:
        return self.ready and self.job is None and not self.retiring


class WorkerPool:
    """A supervised pool of long-lived equivalence-check workers.

    Single-owner discipline: all public methods must be called from one
    thread (the server's dispatcher).  ``submit`` never blocks — it
    either queues/answers the job or raises
    :class:`~repro.errors.PoolSaturated` /
    :class:`~repro.errors.PoolBroken`.
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        cache: Optional[VerdictCache] = None,
        quarantine: Optional[QuarantineStore] = None,
        counters: Optional[PerfCounters] = None,
    ) -> None:
        self.config = config or PoolConfig()
        self.config.validate()
        self.counters = counters if counters is not None else PerfCounters()
        self.cache = cache
        if self.cache is not None:
            # One counter sink: cache.* and service.* land together.
            self.cache.counters = self.counters
        self.quarantine = quarantine if quarantine is not None else (
            QuarantineStore()
        )
        self.broken = False
        self._ctx = fork_context()
        self._workers: List[_Worker] = []
        self._respawn_at: List[float] = []  # one entry per dead slot
        self._consecutive_deaths = 0
        self._death_times: Deque[float] = deque()
        self._queue: Deque[_Job] = deque()
        self._jobs: Dict[int, _Job] = {}
        self._primary_by_key: Dict[str, _Job] = {}
        self._duplicates: Dict[int, List[int]] = {}  # primary id -> dupes
        self._unresolved = 0
        self._next_job_id = 0
        self._all_processes: List[Any] = []
        self._started = False
        self._avg_job_seconds = 0.05

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        for _ in range(self.config.workers):
            self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        now = time.monotonic()
        try:
            child = Child.spawn(
                self._ctx,
                _worker_main,
                (self.config.memory_mb, self.config.startup_chaos),
                duplex=True,
            )
        except CheckWorkerLost:
            self._route_death(None, None, now)
            return
        self._workers.append(_Worker(child, now))
        self._all_processes.append(child.process)
        self.counters.count("service.workers_spawned")

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.shutdown(drain=False)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def pending_jobs(self) -> int:
        """Unresolved submissions (queued + running + coalesced)."""
        return self._unresolved

    def capacity_left(self) -> int:
        return max(0, self.config.queue_depth - self._unresolved)

    def retry_after_estimate(self) -> float:
        """Suggested client backoff when the queue is full, in seconds."""
        per_worker = max(1, len(self._workers) or self.config.workers)
        backlog = self._unresolved * self._avg_job_seconds / per_worker
        return round(max(0.05, min(backlog, 30.0)), 3)

    def submit(
        self,
        circuit1: QuantumCircuit,
        circuit2: QuantumCircuit,
        configuration: Optional[Configuration] = None,
        chaos: Optional[ChaosSpec] = None,
        chaos_once: bool = True,
    ) -> int:
        """Queue one check; returns a job id resolvable via :meth:`result`.

        ``chaos`` injects a deterministic fault into the job's *first*
        execution (``chaos_once=True``, the default: retries run clean,
        modelling a transient environment fault) or *every* execution
        (``chaos_once=False``: a persistent poison pair).

        Raises:
            PoolBroken: The restart-storm breaker tripped.
            PoolSaturated: The bounded queue is full (backpressure; the
                error's ``diagnostics["retry_after"]`` suggests a wait).
            InvalidInput: The configuration fails validation.
        """
        if not self._started:
            self.start()
        if self.broken:
            raise PoolBroken("worker pool is broken; rebuild the service")
        if self._unresolved >= self.config.queue_depth:
            raise PoolSaturated(
                "job queue is full",
                retry_after=self.retry_after_estimate(),
                queue_depth=self.config.queue_depth,
            )
        configuration = configuration or Configuration()
        try:
            configuration.validate()
        except ValueError as exc:
            raise InvalidInput(str(exc)) from exc

        job = _Job(
            id=self._next_job_id,
            circuit1=circuit1,
            circuit2=circuit2,
            configuration=configuration,
            key=cache_key(circuit1, circuit2, configuration),
            chaos=chaos,
            chaos_once=chaos_once,
            submitted_at=time.monotonic(),
        )
        self._next_job_id += 1
        self._jobs[job.id] = job
        self._unresolved += 1
        self.counters.count("service.jobs_submitted")

        # Poison pairs are answered from the quarantine record — they
        # never reach a worker again.
        if job.key in self.quarantine:
            record = self.quarantine.get(job.key) or {}
            self._resolve(job, self._quarantined_result(job, record))
            self.counters.count("service.poison_rejected")
            return job.id

        # Cache hit: replay the stored verdict payload untouched.
        if self.cache is not None and chaos is None:
            cached = self.cache.get(job.key)
            if cached is not None:
                self._resolve(
                    job, EquivalenceCheckingResult.from_dict(cached)
                )
                return job.id

        # Identical clean submissions coalesce onto one execution.
        if chaos is None:
            primary = self._primary_by_key.get(job.key)
            if primary is not None and primary.chaos is None:
                job.state = _COALESCED
                job.primary_id = primary.id
                self._duplicates.setdefault(primary.id, []).append(job.id)
                self.counters.count("cache.coalesced")
                return job.id
            self._primary_by_key[job.key] = job

        job.state = _QUEUED
        self._queue.append(job)
        return job.id

    def result(self, job_id: int) -> Optional[EquivalenceCheckingResult]:
        """The job's result, or None while it is unresolved."""
        return self._jobs[job_id].result

    def forget(self, job_id: int) -> None:
        """Drop the bookkeeping of a resolved job (server-side GC)."""
        job = self._jobs.get(job_id)
        if job is not None and job.state == _DONE:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def _quarantined_result(
        self, job: _Job, record: Dict[str, object]
    ) -> EquivalenceCheckingResult:
        """The answer to a poison pair: its last strike, degraded."""
        strikes = record.get("strikes")
        last = strikes[-1] if isinstance(strikes, list) and strikes else {}
        result = EquivalenceCheckingResult.failed(
            error_from_dict(last), job.configuration.strategy, 0.0
        )
        result.statistics["quarantined"] = True
        return result

    def _resolve(self, job: _Job, result: EquivalenceCheckingResult) -> None:
        """Finalize one job (and every duplicate coalesced onto it)."""
        job.state = _DONE
        job.result = result
        self._unresolved -= 1
        if self._primary_by_key.get(job.key) is job:
            del self._primary_by_key[job.key]
        self.counters.count("service.jobs_completed")
        for duplicate_id in self._duplicates.pop(job.id, []):
            duplicate = self._jobs[duplicate_id]
            duplicate.state = _DONE
            duplicate.result = result
            self._unresolved -= 1
            self.counters.count("service.jobs_completed")

    def _degrade(self, job: _Job, error: CheckError) -> None:
        if error.kind == "portfolio_disagreement":
            # A checker bug must never be swallowed — mirror run_check.
            raise error
        elapsed = time.monotonic() - job.submitted_at
        self._resolve(
            job,
            EquivalenceCheckingResult.failed(
                error, job.configuration.strategy, elapsed
            ),
        )

    # ------------------------------------------------------------------
    # supervision loop
    # ------------------------------------------------------------------
    def pump(
        self, max_wait: float = _MAX_POLL_SECONDS, watch: Sequence[Any] = ()
    ) -> List[Any]:
        """One supervision step: respawn, dispatch, wait, settle, audit.

        The wait also covers ``watch``, the caller's own sockets and
        connections; the ones that became ready are returned for the
        caller to handle.
        """
        if not self._started:
            self.start()
        now = time.monotonic()
        self._respawn_due(now)
        self._dispatch(now)
        ready = self._wait_and_receive(now, max_wait, watch)
        now = time.monotonic()
        self._enforce_deadlines(now)
        self._heartbeat(now)
        return ready

    def drain(self, timeout: Optional[float] = None) -> None:
        """Pump until every submitted job is resolved.

        Raises :class:`repro.errors.CheckTimeout` when ``timeout``
        elapses first — losing jobs silently is the one thing a
        supervisor may not do, and the classified error lets callers
        dispatch on ``kind``/``transient`` like every other failure.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._unresolved > 0:
            if deadline is not None and time.monotonic() > deadline:
                raise CheckTimeout(
                    f"pool drain timed out with {self._unresolved} "
                    "job(s) unresolved",
                    hard=False,
                    budget_seconds=timeout,
                    unresolved=self._unresolved,
                )
            self.pump()

    def run_batch(
        self,
        pairs: List[Tuple[QuantumCircuit, QuantumCircuit]],
        configuration: Optional[Configuration] = None,
        timeout: Optional[float] = None,
    ) -> List[EquivalenceCheckingResult]:
        """Submit a batch and drain it; results in submission order."""
        self.counters.count("service.batches")
        ids = [
            self.submit(circuit1, circuit2, configuration)
            for circuit1, circuit2 in pairs
        ]
        self.drain(timeout=timeout)
        results = [self.result(job_id) for job_id in ids]
        for job_id in ids:
            self.forget(job_id)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # -- internal steps -------------------------------------------------
    def _respawn_due(self, now: float) -> None:
        if self.broken:
            return
        due = [at for at in self._respawn_at if at <= now]
        if not due:
            return
        self._respawn_at = [at for at in self._respawn_at if at > now]
        for _ in due:
            self._spawn_worker()
            self.counters.count("service.worker_restarts")

    def _dispatch(self, now: float) -> None:
        for worker in list(self._workers):
            if not self._queue:
                break
            if not worker.idle:
                continue
            job = self._queue.popleft()
            job.state = _RUNNING
            job.executions += 1
            worker.job = job
            worker.ping_deadline = None
            budget = hard_budget(job.configuration.timeout, self.config.grace)
            worker.job_deadline = None if budget is None else now + budget
            chaos = job.chaos
            if chaos is not None and job.chaos_once and job.executions > 1:
                chaos = None  # one-shot fault: retries run clean
            try:
                worker.child.conn.send(
                    {
                        "type": "job",
                        "id": job.id,
                        "circuit1": job.circuit1,
                        "circuit2": job.circuit2,
                        "configuration": job.configuration,
                        "chaos": chaos,
                    }
                )
            except (BrokenPipeError, OSError):
                # The worker died before the job ever reached it: requeue
                # without a strike (the job is blameless) and account the
                # death as job-independent.
                job.state = _QUEUED
                job.executions -= 1
                worker.job = None
                worker.job_deadline = None
                self._queue.appendleft(job)
                self._worker_died(worker, now)

    def _wait_and_receive(
        self, now: float, max_wait: float, watch: Sequence[Any]
    ) -> List[Any]:
        """Wait on every worker pipe and ``watch`` until the earliest job
        deadline, ping deadline or respawn (at most ``max_wait``); returns
        the ready members of ``watch``."""
        horizons = [now + max_wait]
        horizons.extend(
            worker.job_deadline
            for worker in self._workers
            if worker.job_deadline is not None
        )
        horizons.extend(
            worker.ping_deadline
            for worker in self._workers
            if worker.ping_deadline is not None
        )
        horizons.extend(self._respawn_at)
        wait_timeout = max(0.0, min(horizons) - now)
        workers = {worker.child.conn: worker for worker in self._workers}
        try:
            ready = connection_wait([*workers, *watch], timeout=wait_timeout)
        except OSError:  # pragma: no cover - closed under our feet
            ready = []
        now = time.monotonic()
        for conn in ready:
            worker = workers.get(conn)
            # A worker settled by a prior step of this pump is skipped.
            if worker is not None and worker in self._workers:
                self._receive(worker, now)
        return [item for item in ready if item not in workers]

    def _receive(self, worker: _Worker, now: float) -> None:
        try:
            message = worker.child.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker, now)
            return
        worker.last_seen = now
        kind = message.get("type")
        if kind == "ready":
            worker.ready = True
        elif kind == "started":
            pass  # heartbeat refresh is enough
        elif kind == "pong":
            worker.ping_deadline = None
            rss = message.get("rss_mb")
            if self._rss_exceeded(rss):
                self._retire(worker, reason="rss")
        elif kind == "result":
            self._settle_result(worker, message, now)
        elif kind == "bye":  # pragma: no cover - retirement handshake
            pass

    def _rss_exceeded(self, rss: object) -> bool:
        return (
            self.config.max_worker_rss_mb is not None
            and isinstance(rss, (int, float))
            and rss > self.config.max_worker_rss_mb
        )

    def _settle_result(
        self, worker: _Worker, message: Dict[str, Any], now: float
    ) -> None:
        job = worker.job
        worker.job = None
        worker.job_deadline = None
        worker.jobs_done += 1
        self._consecutive_deaths = 0
        if job is None or job.state != _RUNNING:  # pragma: no cover
            return
        self._avg_job_seconds = (
            0.9 * self._avg_job_seconds
            + 0.1 * max(1e-4, now - job.submitted_at)
        )
        if message.get("ok"):
            result = EquivalenceCheckingResult.from_dict(message["result"])
            if self.cache is not None and job.chaos is None:
                self.cache.put(job.key, result.to_dict())
            result.statistics["service"] = {
                "worker_pid": worker.child.pid,
                "executions": job.executions,
                "strikes": len(job.strikes),
                "cached": False,
            }
            self._resolve(job, result)
        else:
            error = error_from_dict(message.get("error") or {})
            self._job_failed(job, error, worker_killed=False)
        # Post-job hygiene: recycle on thresholds or after an OOM (the
        # allocator may be left fragmented under its rlimit ceiling).
        if (
            worker.jobs_done >= self.config.max_jobs_per_worker
            or self._rss_exceeded(message.get("rss_mb"))
            or message.get("oom")
        ):
            self._retire(worker, reason="threshold")

    def _job_failed(
        self, job: _Job, error: CheckError, worker_killed: bool
    ) -> None:
        """Route one failed execution: retry, quarantine, or degrade."""
        if worker_killed:
            job.strikes.append(error.to_dict())
            if len(job.strikes) >= POISON_STRIKES:
                self._quarantine_job(job, error)
                return
            self.counters.count("service.jobs_retried")
            job.state = _QUEUED
            self._queue.append(job)
            return
        # A structured failure out of a one-shot faulted execution is an
        # artifact of the injected fault (e.g. a leak slowing the check
        # past its cooperative timeout), not a property of the pair:
        # rerun clean instead of applying transience rules to it.
        if (
            job.chaos is not None
            and job.chaos_once
            and job.executions == 1
        ):
            self.counters.count("service.jobs_retried")
            job.state = _QUEUED
            self._queue.append(job)
            return
        # The worker survived and reported a structured failure: apply
        # run_check's retry semantics (transient failures, bounded).
        job.soft_attempts += 1
        if error.transient and (
            job.soft_attempts <= job.configuration.max_retries
        ):
            self.counters.count("service.jobs_retried")
            job.state = _QUEUED
            self._queue.append(job)
            return
        error.diagnostics.setdefault("attempts", job.soft_attempts)
        self._degrade(job, error)

    def _quarantine_job(self, job: _Job, last_error: CheckError) -> None:
        result = EquivalenceCheckingResult.failed(
            last_error,
            job.configuration.strategy,
            time.monotonic() - job.submitted_at,
        )
        result.statistics.update(quarantined=True, strikes=len(job.strikes))
        self.quarantine.quarantine(
            job.key,
            job.circuit1,
            job.circuit2,
            job.configuration,
            job.strikes,
        )
        self.counters.count("service.quarantined")
        self._resolve(job, result)

    # -- death, retirement, breaker ------------------------------------
    def _worker_died(self, worker: _Worker, now: float) -> None:
        """Reap one dead worker and route the consequences."""
        self._remove_worker(worker)
        worker.child.reap()
        job = worker.job
        worker.job = None
        self._route_death(
            job, classify_death(worker.child.process, "pool worker"), now
        )

    def _route_death(
        self, job: Optional[_Job], error: Optional[CheckError], now: float
    ) -> None:
        """Count one worker death, strike or note it, and respawn.

        The running job, if any, takes a strike for ``error``; a death no
        job explains (a startup crash, an idle keel-over, a failed fork)
        feeds the restart-storm breaker instead.
        """
        self.counters.count("service.worker_deaths")
        if job is not None and job.state == _RUNNING:
            self._job_failed(job, error, worker_killed=True)
        elif self._note_jobless_death(now):
            return  # breaker tripped: no respawn
        self._schedule_respawn(now)

    def _note_jobless_death(self, now: float) -> bool:
        """Record one job-independent death; True when the breaker trips.

        Deaths attributable to a running job are the quarantine's
        territory; the storm breaker only watches deaths *no job
        explains* (startup crashes, idle keel-overs) — the signature of
        a systemically broken environment.
        """
        self._death_times.append(now)
        while (
            self._death_times
            and now - self._death_times[0] > STORM_WINDOW
        ):
            self._death_times.popleft()
        if len(self._death_times) >= STORM_THRESHOLD:
            self._trip_breaker()
            return True
        return False

    def _schedule_respawn(self, now: float) -> None:
        if self.broken:
            return
        delay = self.config.restart_backoff.delay(self._consecutive_deaths)
        self._consecutive_deaths += 1
        self._respawn_at.append(now + delay)

    def _trip_breaker(self) -> None:
        """Fail the pool loudly: no more restarts, every job degraded."""
        self.broken = True
        self.counters.count("service.breaker_trips")
        self._respawn_at.clear()
        for worker in list(self._workers):
            self._kill_worker(worker)
        error = PoolBroken(
            "restart storm: workers keep dying independent of any job",
            deaths_in_window=len(self._death_times),
            window_seconds=STORM_WINDOW,
        )
        for job in list(self._jobs.values()):
            if job.state in (_QUEUED, _RUNNING):
                self._degrade(job, error)
        self._queue.clear()

    def _retire(self, worker: _Worker, reason: str) -> None:
        """Gracefully replace one healthy-but-spent worker."""
        if worker.retiring:
            return
        worker.retiring = True
        try:
            worker.child.conn.send({"type": "shutdown"})
        except (BrokenPipeError, OSError):
            pass
        self._remove_worker(worker)
        worker.child.reap()
        self.counters.count("service.workers_recycled")
        self.counters.count(f"service.recycled_{reason}")
        if not self.broken:
            self._spawn_worker()

    def _kill_worker(self, worker: _Worker) -> None:
        self._remove_worker(worker)
        worker.child.kill()

    def _remove_worker(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)

    def _enforce_deadlines(self, now: float) -> None:
        for worker in list(self._workers):
            if worker.job_deadline is None or now < worker.job_deadline:
                continue
            job = worker.job
            worker.job = None
            self._kill_worker(worker)
            self.counters.count("service.deadline_kills")
            timeout = CheckTimeout(
                "hard wall-clock budget exceeded; worker killed",
                hard=True,
                budget_seconds=hard_budget(
                    job.configuration.timeout, self.config.grace
                ),
                pid=worker.child.pid,
            )
            self._route_death(job, timeout, now)

    def _heartbeat(self, now: float) -> None:
        for worker in list(self._workers):
            if not worker.child.process.is_alive():
                self._worker_died(worker, now)
                continue
            if worker.job is not None or worker.retiring:
                continue
            if (
                worker.ping_deadline is not None
                and now >= worker.ping_deadline
            ):
                # An idle worker that ignores pings is lost even though
                # the process object still looks alive.
                self.counters.count("service.heartbeat_kills")
                self._kill_worker(worker)
                self._route_death(None, None, now)
                continue
            if (
                worker.ready
                and worker.ping_deadline is None
                and now - worker.last_seen > HEARTBEAT_INTERVAL
            ):
                try:
                    worker.child.conn.send({"type": "ping"})
                    worker.ping_deadline = now + HEARTBEAT_TIMEOUT
                except (BrokenPipeError, OSError):
                    self._worker_died(worker, now)

    # ------------------------------------------------------------------
    # shutdown and audit
    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` the queue empties first."""
        if drain and not self.broken:
            try:
                self.drain(timeout=timeout)
            except CheckTimeout:  # pragma: no cover - operator escape
                pass
        for worker in list(self._workers):
            worker.retiring = True
            try:
                worker.child.conn.send({"type": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers):
            worker.child.reap()
        self._workers.clear()
        self._respawn_at.clear()
        self._started = False

    def audit(self) -> Dict[str, object]:
        """Zombie/leak audit over every process this pool ever spawned.

        ``leaked`` must be zero after shutdown: every child either
        reported an exitcode to ``join`` (reaped via waitpid) or is a
        supervision bug worth failing a test over.
        """
        alive = [p for p in self._all_processes if p.is_alive()]
        unreaped = [
            p
            for p in self._all_processes
            if not p.is_alive() and p.exitcode is None
        ]
        return {
            "spawned": len(self._all_processes),
            "alive": len(alive),
            "unreaped": len(unreaped),
            "leaked": len(alive) + len(unreaped),
        }
