"""Deterministic chaos-soak campaign against the supervised service.

The soak is the service's acceptance gate: a seeded stream of fuzz
pairs is pushed through a :class:`~repro.service.pool.WorkerPool` while
worker-targeted faults fire — one-shot SIGKILL crashes, non-cooperative
hangs that only the supervisor's deadline SIGKILL ends, and retained
memory leaks that must trip RSS recycling — plus a configurable number
of *planted poison pairs* whose faults re-fire on every retry.  The
campaign then audits the wreckage against hard invariants:

* **Zero lost jobs** — every submission resolves to a result.
* **Zero zombies** — every process the pool ever spawned is reaped
  (``waitpid``-backed :meth:`WorkerPool.audit`).
* **Verdict parity** — every fault-free (and every *transiently*
  faulted) job's verdict equals a direct in-process
  :func:`repro.harness.run_check` of the same pair; planted poison
  pairs degrade exactly as the one-shot sandbox degrades persistent
  faults (hang → ``TIMEOUT``, crash → ``NO_INFORMATION``).
* **Bounded quarantine** — exactly the planted poison pairs are
  quarantined, nothing else.
* **Cache fidelity** — resubmitting the clean jobs is answered from
  the verdict cache with payload-identical results.

Everything is derived from one seed (fault placement included), so a
failing campaign is replayable bit-for-bit with ``repro soak --seed N``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.errors import RetryPolicy
from repro.fuzz.generator import FAMILIES, generate_instance
from repro.harness.chaos import ChaosSpec
from repro.harness.sandbox import run_check
from repro.service.cache import VerdictCache
from repro.service.pool import PoolConfig, WorkerPool

#: Transient worker-targeted fault kinds the soak injects (one-shot:
#: the retry runs clean, so the job's final verdict must match the
#: direct baseline).  ``memory_ballooon`` is deliberately absent —
#: an OOM is *permanent* in the taxonomy and would legitimately change
#: the verdict, which the parity invariant forbids for transient faults.
TRANSIENT_FAULTS = ("crash", "hang", "leak")


@dataclass(frozen=True)
class SoakSettings:
    """One reproducible soak campaign.

    Attributes:
        seed: Master seed — pairs, fault placement and fault kinds all
            derive from it.
        jobs: Number of distinct fuzz pairs pushed through the pool.
        workers: Pool size under test.
        fault_rate: Fraction of jobs carrying a one-shot injected fault.
        poison_pairs: Planted persistent-fault jobs (alternating crash
            and hang) that must end up quarantined.
        check_timeout: Cooperative timeout per check, seconds.  Sized
            with generous headroom over the worst observed check time:
            the pool's workers time-share the host CPUs, so a check
            that takes milliseconds serially can take the better part
            of a second under full contention, and a timeout near that
            boundary turns scheduling jitter into verdict-parity
            flakes.  Injected hangs still resolve via the deadline
            SIGKILL, just ``check_timeout + grace`` later.
        grace: Hard-deadline grace on top of ``check_timeout``.
        leak_mb: Size of one injected leak; together with
            ``max_worker_rss_mb`` it forces RSS-threshold recycling.
        max_worker_rss_mb: Pool RSS recycling threshold during the
            soak.  Sized a few leaks above the worker's fault-free
            footprint (~50 MB) so that leak faults genuinely trip
            recycling while clean workers never do.
    """

    seed: int = 0
    jobs: int = 200
    workers: int = 4
    fault_rate: float = 0.15
    poison_pairs: int = 2
    check_timeout: float = 5.0
    grace: float = 0.75
    leak_mb: int = 48
    max_worker_rss_mb: float = 192.0

    def validate(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if self.poison_pairs < 0:
            raise ValueError("poison_pairs must be non-negative")
        if not self.check_timeout > 0:
            raise ValueError("check_timeout must be positive")


@dataclass
class SoakReport:
    """Audited outcome of one campaign; ``ok`` is the acceptance bit."""

    settings: SoakSettings
    submitted: int = 0
    resolved: int = 0
    lost_jobs: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    verdict_mismatches: List[Dict[str, object]] = field(default_factory=list)
    poison_mismatches: List[Dict[str, object]] = field(default_factory=list)
    cache_mismatches: List[Dict[str, object]] = field(default_factory=list)
    quarantined: int = 0
    expected_quarantined: int = 0
    cache_hits: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    workers_recycled: int = 0
    audit: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.lost_jobs == 0
            and not self.verdict_mismatches
            and not self.poison_mismatches
            and not self.cache_mismatches
            and self.quarantined == self.expected_quarantined
            and int(self.audit.get("leaked", 1)) == 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "seed": self.settings.seed,
            "jobs": self.settings.jobs,
            "workers": self.settings.workers,
            "submitted": self.submitted,
            "resolved": self.resolved,
            "lost_jobs": self.lost_jobs,
            "faults_injected": dict(self.faults_injected),
            "verdict_mismatches": list(self.verdict_mismatches),
            "poison_mismatches": list(self.poison_mismatches),
            "cache_mismatches": list(self.cache_mismatches),
            "quarantined": self.quarantined,
            "expected_quarantined": self.expected_quarantined,
            "cache_hits": self.cache_hits,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "workers_recycled": self.workers_recycled,
            "audit": dict(self.audit),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _comparable(payload: Dict[str, object]) -> Dict[str, object]:
    """A verdict payload minus per-run bookkeeping (pids, timings)."""
    out = dict(payload)
    out.pop("time", None)
    statistics = out.get("statistics")
    if isinstance(statistics, dict):
        statistics = dict(statistics)
        statistics.pop("service", None)
        statistics.pop("isolation", None)
        statistics.pop("perf", None)
        out["statistics"] = statistics
    return out


def _soak_configuration(settings: SoakSettings, index: int) -> Configuration:
    # A fixed per-job seed keeps stochastic strategies (simulation
    # stimuli) bit-reproducible between the pooled run and the baseline.
    return Configuration(
        timeout=settings.check_timeout,
        seed=1_000_000 + settings.seed * 10_007 + index,
        max_retries=1,
    )


def run_soak(
    settings: Optional[SoakSettings] = None,
    log: Callable[[str], None] = lambda _message: None,
) -> SoakReport:
    """Run one deterministic chaos campaign; never raises on faults."""
    settings = settings or SoakSettings()
    settings.validate()
    report = SoakReport(settings=settings)
    rng = random.Random(settings.seed)
    start = time.monotonic()

    log(
        f"soak: generating {settings.jobs} pairs "
        f"(+{settings.poison_pairs} poison) with seed {settings.seed}"
    )
    pairs: List[Tuple[QuantumCircuit, QuantumCircuit]] = []
    for index in range(settings.jobs):
        family = rng.choice(FAMILIES)
        _instance, pair = generate_instance(
            settings.seed * 100_000 + index, family=family
        )
        pairs.append((pair.circuit1, pair.circuit2))
    poison: List[Tuple[QuantumCircuit, QuantumCircuit, str]] = []
    for index in range(settings.poison_pairs):
        family = rng.choice(FAMILIES)
        _instance, pair = generate_instance(
            settings.seed * 100_000 + 50_000 + index, family=family
        )
        poison.append(
            (pair.circuit1, pair.circuit2,
             "crash" if index % 2 == 0 else "hang")
        )

    # Fault plan: seeded, fixed before anything runs.
    faults: List[Optional[ChaosSpec]] = []
    for index in range(settings.jobs):
        if rng.random() < settings.fault_rate:
            kind = rng.choice(TRANSIENT_FAULTS)
            faults.append(
                ChaosSpec(mode=kind, balloon_mb=settings.leak_mb)
                if kind == "leak"
                else ChaosSpec(mode=kind)
            )
        else:
            faults.append(None)
    for spec in faults:
        if spec is not None:
            report.faults_injected[spec.mode] = (
                report.faults_injected.get(spec.mode, 0) + 1
            )

    # Baseline: the same checks, direct and non-pooled, in this process.
    # Faulted jobs run their retries clean (one-shot faults), so the
    # baseline is always the fault-free verdict.
    log("soak: computing direct run_check baseline")
    baseline: List[Dict[str, object]] = []
    for index, (circuit1, circuit2) in enumerate(pairs):
        result = run_check(
            circuit1,
            circuit2,
            _soak_configuration(settings, index),
            isolate=False,
        )
        baseline.append(result.to_dict())

    cache = VerdictCache()
    pool = WorkerPool(
        PoolConfig(
            workers=settings.workers,
            grace=settings.grace,
            max_worker_rss_mb=settings.max_worker_rss_mb,
            restart_backoff=RetryPolicy(
                max_retries=0,
                backoff_base=0.02,
                backoff_max=0.5,
                jitter=0.5,
                jitter_seed=settings.seed,
            ),
        ),
        cache=cache,
    )
    pool.start()
    try:
        log("soak: submitting campaign to the pool")
        job_ids = [
            pool.submit(circuit1, circuit2,
                        _soak_configuration(settings, index),
                        chaos=faults[index])
            for index, (circuit1, circuit2) in enumerate(pairs)
        ]
        poison_ids = [
            pool.submit(
                circuit1,
                circuit2,
                _soak_configuration(settings, settings.jobs + index),
                chaos=ChaosSpec(mode=kind, balloon_mb=settings.leak_mb),
                chaos_once=False,
            )
            for index, (circuit1, circuit2, kind) in enumerate(poison)
        ]
        report.submitted = len(job_ids) + len(poison_ids)
        pool.drain(timeout=600.0)

        # --- invariant: zero lost jobs --------------------------------
        results = [pool.result(job_id) for job_id in job_ids]
        poison_results = [pool.result(job_id) for job_id in poison_ids]
        report.resolved = sum(
            1 for r in results + poison_results if r is not None
        )
        report.lost_jobs = report.submitted - report.resolved

        # --- invariant: verdict parity with direct run_check ----------
        for index, result in enumerate(results):
            if result is None:  # pragma: no cover - counted above
                continue
            expected = baseline[index]["equivalence"]
            actual = result.to_dict()["equivalence"]
            if actual != expected:
                report.verdict_mismatches.append(
                    {
                        "job": index,
                        "fault": faults[index].mode
                        if faults[index] is not None
                        else None,
                        "expected": expected,
                        "actual": actual,
                    }
                )

        # --- invariant: poison pairs quarantined with sandbox-shaped
        # degradation (hang -> TIMEOUT, crash -> NO_INFORMATION) -------
        report.expected_quarantined = len(poison)
        report.quarantined = len(pool.quarantine)
        for index, result in enumerate(poison_results):
            if result is None:  # pragma: no cover - counted above
                continue
            kind = poison[index][2]
            expected = "timeout" if kind == "hang" else "no_information"
            payload = result.to_dict()
            if (
                payload["equivalence"] != expected
                or not result.statistics.get("quarantined")
            ):
                report.poison_mismatches.append(
                    {
                        "poison": index,
                        "fault": kind,
                        "expected": expected,
                        "actual": payload["equivalence"],
                        "quarantined": result.statistics.get("quarantined"),
                    }
                )

        # --- invariant: a repeated batch is answered from the cache
        # with payload-identical verdicts ------------------------------
        log("soak: resubmitting clean jobs against the cache")
        hits_before = pool.counters.counters.get("cache.hit", 0)
        replays: List[Tuple[int, int]] = []
        for index, (circuit1, circuit2) in enumerate(pairs):
            if faults[index] is not None:
                continue
            replays.append(
                (
                    index,
                    pool.submit(
                        circuit1, circuit2,
                        _soak_configuration(settings, index),
                    ),
                )
            )
        pool.drain(timeout=120.0)
        for index, job_id in replays:
            replay = pool.result(job_id)
            first = results[index]
            if replay is None or first is None:
                report.lost_jobs += 1
                continue
            if "failure" in first.statistics:
                # A degraded first run was (correctly) never cached; the
                # replay re-executes and its failure record carries
                # fresh per-run diagnostics — nothing to compare.
                continue
            if _comparable(replay.to_dict()) != _comparable(first.to_dict()):
                report.cache_mismatches.append(
                    {
                        "job": index,
                        "first": _comparable(first.to_dict()),
                        "replay": _comparable(replay.to_dict()),
                    }
                )
        report.cache_hits = (
            pool.counters.counters.get("cache.hit", 0) - hits_before
        )
    finally:
        pool.shutdown(drain=False)
        report.audit = pool.audit()
        report.counters = dict(pool.counters.counters)
        report.worker_deaths = report.counters.get("service.worker_deaths", 0)
        report.worker_restarts = report.counters.get(
            "service.worker_restarts", 0
        )
        report.workers_recycled = report.counters.get(
            "service.workers_recycled", 0
        )
        report.elapsed_seconds = time.monotonic() - start
    log(
        f"soak: {'PASS' if report.ok else 'FAIL'} — "
        f"{report.resolved}/{report.submitted} resolved, "
        f"{report.worker_deaths} worker deaths, "
        f"{report.quarantined} quarantined, "
        f"{report.cache_hits} cache hits on replay, "
        f"audit {report.audit}"
    )
    return report
