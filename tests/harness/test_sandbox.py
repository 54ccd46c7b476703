"""Sandboxed execution: agreement with in-process runs and containment.

The ``chaos``-marked tests inject deterministic faults — a
non-cooperative hard hang, a memory balloon, a hard crash — into the
checker path of a sandboxed child and assert the parent receives a
*structured* failure of the right taxonomy class, proving the isolation
layer actually contains what cooperative deadlines cannot.
"""

import time

import pytest

from repro.bench.algorithms import ghz_state, qft
from repro.bench.errors import remove_random_gate
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.errors import (
    CheckCrashed,
    CheckOutOfMemory,
    CheckTimeout,
    CheckWorkerLost,
    InvalidInput,
    RetryPolicy,
)
from repro.harness import DEFAULT_GRACE_SECONDS, run_check, run_check_isolated
from repro.harness.chaos import ChaosSpec
from repro.harness.child import hard_budget


@pytest.fixture(scope="module")
def tiny_pair():
    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(7))
    return original, compiled


class TestIsolatedExecution:
    def test_agrees_with_in_process_on_all_strategies(self, tiny_pair):
        original, compiled = tiny_pair
        for strategy in ("combined", "zx", "alternating", "simulation"):
            config = Configuration(strategy=strategy, seed=0, timeout=30)
            isolated = run_check_isolated(original, compiled, config)
            in_process = EquivalenceCheckingManager(
                original, compiled, config
            ).run()
            assert isolated.equivalence == in_process.equivalence, strategy
            assert isolated.strategy == in_process.strategy

    def test_detects_error_through_the_sandbox(self, tiny_pair):
        original, compiled = tiny_pair
        broken = remove_random_gate(compiled, seed=0)
        config = Configuration(strategy="combined", seed=0, timeout=30)
        result = run_check_isolated(original, broken, config)
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_statistics_and_perf_cross_the_boundary(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="zx", seed=0, timeout=30)
        result = run_check_isolated(original, compiled, config)
        assert "spiders_remaining" in result.statistics
        assert "perf" in result.statistics
        isolation = result.statistics["isolation"]
        assert isolation["pid"] > 0
        assert isolation["overhead_seconds"] >= 0

    def test_invalid_configuration_is_invalid_input(self, tiny_pair):
        original, compiled = tiny_pair
        with pytest.raises(InvalidInput):
            run_check_isolated(
                original, compiled, Configuration(strategy="imaginary")
            )

    def test_limits_validation(self, tiny_pair, monkeypatch):
        """An invalid memory ceiling is InvalidInput before any fork."""
        import multiprocessing

        def no_fork(_process):
            raise AssertionError("forked despite an invalid configuration")

        monkeypatch.setattr(
            multiprocessing.get_context("fork").Process, "start", no_fork
        )
        for limit in (0, -64, True, 1.5):
            with pytest.raises(InvalidInput):
                run_check_isolated(
                    *tiny_pair, Configuration(memory_limit_mb=limit)
                )

    def test_hard_budget_derivation(self):
        assert hard_budget(3.0) == 3.0 + DEFAULT_GRACE_SECONDS
        assert hard_budget(3.0, grace=0.5) == 3.5
        assert hard_budget(None) is None


@pytest.mark.chaos
class TestChaosContainment:
    def test_hard_hang_is_killed_and_reported_as_timeout(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(CheckTimeout) as info:
            run_check_isolated(
                original, compiled, config, chaos=ChaosSpec(mode="hang")
            )
        elapsed = time.monotonic() - start
        assert info.value.diagnostics["hard"] is True
        assert info.value.diagnostics["budget_seconds"] == hard_budget(0.2)
        assert elapsed < 10.0  # killed, not waited out

    def test_memory_balloon_is_contained(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(
            strategy="combined", seed=0, timeout=30, memory_limit_mb=64
        )
        with pytest.raises(CheckOutOfMemory):
            run_check_isolated(
                original,
                compiled,
                config,
                chaos=ChaosSpec(mode="memory_balloon", balloon_mb=1024),
            )

    def test_balloon_ceiling_bounds_even_without_rlimit(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        with pytest.raises(CheckOutOfMemory):
            run_check_isolated(
                original,
                compiled,
                config,
                chaos=ChaosSpec(mode="memory_balloon", balloon_mb=32),
            )

    def test_hard_crash_is_classified(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        with pytest.raises(CheckCrashed) as info:
            run_check_isolated(
                original, compiled, config, chaos=ChaosSpec(mode="crash")
            )
        assert info.value.diagnostics.get("signal_name") == "SIGSEGV"
        assert info.value.transient

    def test_external_sigkill_is_worker_lost(self, tiny_pair):
        import signal

        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        with pytest.raises(CheckWorkerLost):
            run_check_isolated(
                original,
                compiled,
                config,
                chaos=ChaosSpec(mode="crash", signal_number=signal.SIGKILL),
            )

    @pytest.mark.chaos
    def test_third_party_sigkill_is_worker_lost(self, tiny_pair):
        """A kill from *outside* the sandbox (OOM killer, operator) is
        classified as worker loss, not as a timeout or crash."""
        import multiprocessing
        import os
        import signal
        import threading

        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)

        def kill_first_child():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    try:
                        os.kill(children[0].pid, signal.SIGKILL)
                    except ProcessLookupError:  # pragma: no cover - raced exit
                        pass
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_first_child)
        killer.start()
        try:
            # The hang keeps the child alive until the external kill
            # lands, well inside the 30 s hard budget.
            with pytest.raises(CheckWorkerLost) as info:
                run_check_isolated(
                    original, compiled, config, chaos=ChaosSpec(mode="hang")
                )
        finally:
            killer.join()
        assert info.value.transient

    @pytest.mark.chaos
    def test_external_sigkill_degrades_to_no_information(self, tiny_pair):
        """run_check never raises on worker loss: the verdict degrades to
        NO_INFORMATION with a structured worker_lost failure record."""
        import multiprocessing
        import os
        import signal
        import threading

        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)

        def kill_first_child():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    try:
                        os.kill(children[0].pid, signal.SIGKILL)
                    except ProcessLookupError:  # pragma: no cover - raced exit
                        pass
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_first_child)
        killer.start()
        try:
            result = run_check(
                original,
                compiled,
                config,
                chaos=ChaosSpec(mode="hang"),
                retry=RetryPolicy(max_retries=0),
            )
        finally:
            killer.join()
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "worker_lost"

    def test_injected_exception_round_trips_structured(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        with pytest.raises(CheckCrashed) as info:
            run_check_isolated(
                original, compiled, config, chaos=ChaosSpec(mode="exception")
            )
        assert "chaos" in info.value.message

    def test_parent_process_unaffected_by_chaos(self, tiny_pair):
        """Chaos armed in the child must never leak into the parent."""
        from repro.harness import chaos as chaos_module

        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        with pytest.raises(CheckCrashed):
            run_check_isolated(
                original, compiled, config, chaos=ChaosSpec(mode="crash")
            )
        assert chaos_module.active_spec() is None
        result = EquivalenceCheckingManager(original, compiled, config).run()
        assert result.considered_equivalent


class TestRunCheckDegradation:
    def test_never_raises_and_records_failure(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        result = run_check(
            original,
            compiled,
            config,
            chaos=ChaosSpec(mode="exception"),
            retry=RetryPolicy(max_retries=0),
        )
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "crashed"

    def test_transient_failures_retried_with_backoff(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        sleeps = []
        result = run_check(
            original,
            compiled,
            config,
            chaos=ChaosSpec(mode="exception"),
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
            sleep=sleeps.append,
        )
        assert result.failure["diagnostics"]["attempts"] == 3
        assert sleeps == [0.01, 0.02]

    @pytest.mark.chaos
    def test_hang_degrades_to_timeout_verdict(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(
            strategy="combined", seed=0, timeout=0.2, max_retries=0
        )
        result = run_check(
            original, compiled, config, chaos=ChaosSpec(mode="hang")
        )
        assert result.equivalence is Equivalence.TIMEOUT
        assert result.failure["kind"] == "timeout"
        assert result.failure["diagnostics"]["hard"] is True

    def test_in_process_mode_also_degrades(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="combined", seed=0, timeout=30)
        result = run_check(
            original,
            compiled,
            config,
            isolate=False,
            chaos=ChaosSpec(mode="exception"),
            retry=RetryPolicy(max_retries=0),
        )
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "crashed"

    def test_success_path_unchanged(self, tiny_pair):
        original, compiled = tiny_pair
        config = Configuration(strategy="zx", seed=0, timeout=30)
        result = run_check(original, compiled, config)
        assert result.considered_equivalent
        assert result.failure is None


class TestFailedFork:
    """A fork that fails (EAGAIN) is a lost worker: transient, retried,
    and degraded like any other — never an exception out of run_check."""

    def test_degrades_to_worker_lost_without_retries(
        self, tiny_pair, failing_fork
    ):
        config = Configuration(strategy="combined", seed=0, timeout=30)
        failing_fork()
        result = run_check(
            *tiny_pair, config, isolate=True, retry=RetryPolicy(max_retries=0)
        )
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "worker_lost"

    def test_retry_returns_the_real_verdict(self, tiny_pair, failing_fork):
        config = Configuration(strategy="combined", seed=0, timeout=30)
        failing_fork()
        result = run_check(
            *tiny_pair,
            config,
            isolate=True,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
            sleep=lambda _seconds: None,
        )
        assert result.considered_equivalent
        assert result.failure is None


class TestVerdictAgreement:
    """Isolated and in-process runs agree cell-for-cell (small instances)."""

    def test_table1_style_cells_agree(self):
        cases = []
        ghz = ghz_state(5)
        cases.append((ghz, compile_circuit(ghz, line_architecture(6))))
        q = qft(4)
        cases.append((q, compile_circuit(q, line_architecture(5))))
        for original, variant in cases:
            for strategy in ("combined", "zx"):
                config = Configuration(strategy=strategy, seed=0, timeout=30)
                isolated = run_check(
                    original, variant, config, isolate=True
                )
                in_process = EquivalenceCheckingManager(
                    original, variant, config
                ).run()
                assert isolated.equivalence == in_process.equivalence
