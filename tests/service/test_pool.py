"""Supervised worker pool: batches, retries, quarantine, breaker, recycling.

The ``chaos``-marked tests inject deterministic worker faults (crash,
hang, startup death) through the harness chaos layer and assert the
supervisor's contract: no job is ever lost, transient faults are retried
clean, persistent killers are quarantined after two strikes, and a
restart storm trips the circuit breaker instead of looping forever.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.bench.algorithms import ghz_state, qft
from repro.compile import compile_circuit, line_architecture
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence
from repro.errors import PoolBroken, PoolSaturated, RetryPolicy
from repro.harness import run_check
from repro.harness.chaos import ChaosSpec
from repro.service import PoolConfig, VerdictCache, WorkerPool
from repro.service import pool as pool_module

#: Tiny restart backoff so chaos tests do not sleep through real delays.
_FAST_BACKOFF = RetryPolicy(
    max_retries=0, backoff_base=0.01, backoff_max=0.05, jitter=0.5,
    jitter_seed=0,
)


def _config(**overrides):
    defaults = dict(timeout=10.0, seed=0, max_retries=1)
    defaults.update(overrides)
    return Configuration(**defaults)


@pytest.fixture(scope="module")
def small_pair():
    original = ghz_state(4)
    compiled = compile_circuit(original, line_architecture(5))
    return original, compiled


@pytest.fixture(scope="module")
def other_pair():
    original = qft(3)
    compiled = compile_circuit(original, line_architecture(4))
    return original, compiled


class TestBatches:
    def test_run_batch_matches_direct_run_check(self, small_pair, other_pair):
        pairs = [small_pair, other_pair]
        with WorkerPool(PoolConfig(workers=2, restart_backoff=_FAST_BACKOFF)) as pool:
            results = pool.run_batch(pairs, _config(), timeout=120.0)
        audit = pool.audit()
        assert len(results) == 2
        for (circuit1, circuit2), pooled in zip(pairs, results):
            direct = run_check(circuit1, circuit2, _config(), isolate=False)
            assert pooled.equivalence is direct.equivalence
            service = pooled.statistics["service"]
            assert service["worker_pid"] > 0
            assert service["executions"] == 1
            assert service["strikes"] == 0
        assert audit["leaked"] == 0

    def test_identical_submissions_coalesce(self, small_pair):
        circuit1, circuit2 = small_pair
        with WorkerPool(PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)) as pool:
            first = pool.submit(circuit1, circuit2, _config())
            second = pool.submit(circuit1, circuit2, _config())
            pool.drain(timeout=120.0)
            counters = pool.counters.as_dict()["counters"]
            assert counters["cache.coalesced"] == 1
            # One execution answered both submissions.
            assert pool.result(first) is pool.result(second)

    def test_saturation_raises_with_retry_hint(self, small_pair, other_pair):
        with WorkerPool(
            PoolConfig(
                workers=1, queue_depth=2, restart_backoff=_FAST_BACKOFF
            )
        ) as pool:
            pool.submit(*small_pair, _config())
            pool.submit(*other_pair, _config())
            with pytest.raises(PoolSaturated) as info:
                pool.submit(*small_pair, _config(seed=1))
            assert info.value.diagnostics["retry_after"] > 0
            pool.drain(timeout=120.0)


class TestCacheIntegration:
    def test_second_batch_is_served_from_cache(self, small_pair, other_pair):
        pairs = [small_pair, other_pair]
        cache = VerdictCache()
        with WorkerPool(
            PoolConfig(workers=2, restart_backoff=_FAST_BACKOFF), cache=cache
        ) as pool:
            fresh = pool.run_batch(pairs, _config(), timeout=120.0)
            replayed = pool.run_batch(pairs, _config(), timeout=120.0)
            counters = pool.counters.as_dict()["counters"]
        assert counters["cache.hit"] == len(pairs)
        assert counters["cache.store"] == len(pairs)
        for first, second in zip(fresh, replayed):
            assert first.equivalence is second.equivalence
            # The replay is the stored payload: no per-run service stamp.
            assert "service" not in second.statistics


@pytest.mark.chaos
class TestFaultSupervision:
    def test_one_shot_crash_is_retried_clean(self, small_pair):
        circuit1, circuit2 = small_pair
        with WorkerPool(PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)) as pool:
            job_id = pool.submit(
                circuit1,
                circuit2,
                _config(),
                chaos=ChaosSpec(mode="crash"),
                chaos_once=True,
            )
            pool.drain(timeout=120.0)
            result = pool.result(job_id)
        # The fault killed one worker, the retry ran clean, and the
        # verdict matches the fault-free baseline.
        assert result.equivalence is Equivalence.EQUIVALENT
        assert result.statistics["service"]["executions"] == 2
        assert result.statistics["service"]["strikes"] == 1
        assert pool.audit()["leaked"] == 0

    def test_persistent_crasher_quarantined_after_two_strikes(
        self, small_pair
    ):
        circuit1, circuit2 = small_pair
        with WorkerPool(PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)) as pool:
            job_id = pool.submit(
                circuit1,
                circuit2,
                _config(),
                chaos=ChaosSpec(mode="crash"),
                chaos_once=False,
            )
            pool.drain(timeout=120.0)
            result = pool.result(job_id)
            assert result.equivalence is Equivalence.NO_INFORMATION
            assert result.statistics["quarantined"] is True
            assert result.statistics["strikes"] == 2
            # Classified as the sandbox and the race classify a SIGSEGV.
            failure = result.statistics["failure"]
            assert failure["kind"] == "crashed"
            assert failure["diagnostics"]["signal_name"] == "SIGSEGV"
            assert len(pool.quarantine) == 1

            # A resubmission is answered from the record: no worker dies.
            deaths_before = pool.counters.as_dict()["counters"][
                "service.worker_deaths"
            ]
            retry_id = pool.submit(circuit1, circuit2, _config())
            replay = pool.result(retry_id)
            counters = pool.counters.as_dict()["counters"]
            assert replay is not None  # answered synchronously
            assert replay.equivalence is Equivalence.NO_INFORMATION
            assert replay.statistics["failure"] == failure
            assert counters["service.poison_rejected"] == 1
            assert counters["service.worker_deaths"] == deaths_before

    def test_persistent_hang_quarantined_as_timeout(self, small_pair):
        circuit1, circuit2 = small_pair
        with WorkerPool(
            PoolConfig(
                workers=1, grace=0.3, restart_backoff=_FAST_BACKOFF
            )
        ) as pool:
            job_id = pool.submit(
                circuit1,
                circuit2,
                _config(timeout=0.3, max_retries=0),
                chaos=ChaosSpec(mode="hang"),
                chaos_once=False,
            )
            pool.drain(timeout=120.0)
            result = pool.result(job_id)
            counters = pool.counters.as_dict()["counters"]
        assert result.equivalence is Equivalence.TIMEOUT
        assert result.statistics["quarantined"] is True
        assert result.statistics["failure"]["kind"] == "timeout"
        assert counters["service.deadline_kills"] == 2

    def test_restart_storm_trips_breaker(self, small_pair, monkeypatch):
        circuit1, circuit2 = small_pair
        monkeypatch.setattr(pool_module, "STORM_THRESHOLD", 3)
        config = PoolConfig(
            workers=2,
            restart_backoff=_FAST_BACKOFF,
            startup_chaos=ChaosSpec(mode="crash"),
        )
        pool = WorkerPool(config)
        try:
            job_id = pool.submit(circuit1, circuit2, _config())
            deadline = time.monotonic() + 60.0
            while not pool.broken and time.monotonic() < deadline:
                pool.pump(max_wait=0.05)
            assert pool.broken
            # The queued job was degraded, not lost.
            result = pool.result(job_id)
            assert result.equivalence is Equivalence.NO_INFORMATION
            assert result.statistics["failure"]["kind"] == "pool_broken"
            with pytest.raises(PoolBroken):
                pool.submit(circuit1, circuit2, _config())
            counters = pool.counters.as_dict()["counters"]
            assert counters["service.breaker_trips"] == 1
        finally:
            pool.shutdown(drain=False)
        assert pool.audit()["leaked"] == 0


@pytest.mark.chaos
class TestFailedFork:
    def test_failed_respawn_is_a_death_and_the_next_job_is_served(
        self, small_pair, failing_fork
    ):
        with WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        ) as pool:
            (worker,) = multiprocessing.active_children()
            failing_fork()
            os.kill(worker.pid, signal.SIGKILL)
            # Submit only once the pool has seen the death: a job sent to
            # the killed worker before that would be charged a strike.
            deadline = time.monotonic() + 60.0
            while (
                pool.counters.as_dict()["counters"].get(
                    "service.worker_deaths", 0
                ) < 1
                and time.monotonic() < deadline
            ):
                pool.pump(max_wait=0.05)
            job_id = pool.submit(*small_pair, _config())
            pool.drain(timeout=120.0)
            result = pool.result(job_id)
            counters = pool.counters.as_dict()["counters"]
        # The SIGKILL and the failed fork are both job-independent
        # deaths; the respawn after them serves the job.
        assert result.equivalence is Equivalence.EQUIVALENT
        assert result.statistics["service"]["strikes"] == 0
        assert counters["service.worker_deaths"] == 2
        assert counters["service.workers_spawned"] == 2
        assert pool.audit()["leaked"] == 0


@pytest.mark.chaos
class TestRecycling:
    def test_worker_recycled_after_job_threshold(self, small_pair, other_pair):
        pairs = [small_pair, other_pair, small_pair, other_pair]
        configs = [_config(seed=index) for index in range(len(pairs))]
        with WorkerPool(
            PoolConfig(
                workers=1,
                max_jobs_per_worker=2,
                restart_backoff=_FAST_BACKOFF,
            )
        ) as pool:
            ids = [
                pool.submit(circuit1, circuit2, configuration)
                for (circuit1, circuit2), configuration in zip(pairs, configs)
            ]
            pool.drain(timeout=120.0)
            results = [pool.result(job_id) for job_id in ids]
            counters = pool.counters.as_dict()["counters"]
        audit = pool.audit()
        assert all(
            result.equivalence is Equivalence.EQUIVALENT for result in results
        )
        # Four jobs through a one-worker pool recycling every two jobs.
        assert counters["service.workers_recycled"] >= 1
        assert counters["service.recycled_threshold"] >= 1
        assert audit["spawned"] >= 2
        assert audit["leaked"] == 0
