"""Taxonomy classification, serialization and retry/backoff behaviour."""

import time

import pytest

from repro.errors import (
    CheckCrashed,
    CheckError,
    CheckOutOfMemory,
    CheckTimeout,
    CheckWorkerLost,
    InvalidInput,
    RetryPolicy,
    call_with_retry,
    check_deadline,
    classify_exception,
    error_from_dict,
)


class TestTaxonomy:
    def test_kinds_are_distinct_and_stable(self):
        kinds = {
            cls.kind
            for cls in (
                CheckError,
                CheckTimeout,
                CheckOutOfMemory,
                CheckCrashed,
                CheckWorkerLost,
                InvalidInput,
            )
        }
        assert len(kinds) == 6

    def test_transient_classification(self):
        assert CheckCrashed("x").transient
        assert CheckWorkerLost("x").transient
        assert not CheckTimeout("x").transient
        assert not CheckOutOfMemory("x").transient
        assert not InvalidInput("x").transient

    def test_round_trip_through_dict(self):
        error = CheckCrashed("worker died", signal=11, pid=1234)
        restored = error_from_dict(error.to_dict())
        assert isinstance(restored, CheckCrashed)
        assert restored.kind == "crashed"
        assert restored.transient
        assert restored.diagnostics == {"signal": 11, "pid": 1234}

    def test_worker_lost_round_trips_to_subclass(self):
        restored = error_from_dict(CheckWorkerLost("gone").to_dict())
        assert isinstance(restored, CheckWorkerLost)

    def test_unknown_kind_degrades_to_base(self):
        restored = error_from_dict({"kind": "martian", "message": "?"})
        assert type(restored) is CheckError

    def test_str_includes_diagnostics(self):
        text = str(CheckTimeout("too slow", budget_seconds=3.0))
        assert "too slow" in text and "budget_seconds" in text


class TestClassify:
    def test_memory_error(self):
        assert isinstance(classify_exception(MemoryError()), CheckOutOfMemory)

    def test_cooperative_timeout(self):
        with pytest.raises(CheckTimeout) as raised:
            check_deadline(time.monotonic() - 1.0)
        error = classify_exception(raised.value)
        assert error is raised.value
        assert error.diagnostics["hard"] is False
        assert error.message == "cooperative deadline exceeded"

    def test_deadline_not_yet_due(self):
        check_deadline(None)
        check_deadline(time.monotonic() + 60.0)

    def test_value_error_is_invalid_input(self):
        assert isinstance(classify_exception(ValueError("bad")), InvalidInput)

    def test_unexpected_exception_is_crash(self):
        error = classify_exception(RuntimeError("boom"))
        assert isinstance(error, CheckCrashed)
        assert error.transient

    def test_check_error_passes_through(self):
        original = CheckOutOfMemory("oom")
        assert classify_exception(original) is original


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base=0.5, backoff_factor=2.0,
            backoff_max=3.0,
        )
        delays = [policy.delay(i) for i in range(5)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1).validate()
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1).validate()
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5).validate()
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1).validate()
        with pytest.raises(ValueError):
            RetryPolicy(jitter_seed=1.5).validate()  # type: ignore[arg-type]

    def test_zero_jitter_reproduces_pure_exponential(self):
        plain = RetryPolicy(backoff_base=0.5, backoff_max=3.0)
        explicit = RetryPolicy(backoff_base=0.5, backoff_max=3.0, jitter=0.0)
        assert [plain.delay(i) for i in range(5)] == [
            explicit.delay(i) for i in range(5)
        ]

    def test_jitter_is_deterministic_per_seed_and_attempt(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5, jitter_seed=42)
        twin = RetryPolicy(backoff_base=1.0, jitter=0.5, jitter_seed=42)
        schedule = [policy.delay(i) for i in range(8)]
        # Same seed, same attempt -> bit-identical delay, every time.
        assert schedule == [twin.delay(i) for i in range(8)]
        assert schedule == [policy.delay(i) for i in range(8)]
        other = RetryPolicy(backoff_base=1.0, jitter=0.5, jitter_seed=43)
        assert schedule != [other.delay(i) for i in range(8)]

    def test_jitter_only_shrinks_delay_within_bounds(self):
        policy = RetryPolicy(
            backoff_base=0.5, backoff_max=3.0, jitter=0.5, jitter_seed=7
        )
        plain = RetryPolicy(backoff_base=0.5, backoff_max=3.0)
        for attempt in range(8):
            base = plain.delay(attempt)
            delay = policy.delay(attempt)
            # jitter subtracts at most a `jitter` share and never adds.
            assert base * (1.0 - policy.jitter) <= delay <= base

    def test_transient_failure_retried_then_succeeds(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise CheckCrashed("flaky")
            return "done"

        policy = RetryPolicy(max_retries=3, backoff_base=0.25)
        assert call_with_retry(flaky, policy, sleep=sleeps.append) == "done"
        assert len(calls) == 3
        assert sleeps == [0.25, 0.5]

    def test_permanent_failure_not_retried(self):
        calls = []

        def oom():
            calls.append(1)
            raise CheckOutOfMemory("big")

        with pytest.raises(CheckOutOfMemory) as info:
            call_with_retry(oom, RetryPolicy(max_retries=5), sleep=lambda s: None)
        assert len(calls) == 1
        assert info.value.diagnostics["attempts"] == 1

    def test_retries_exhausted_reports_attempts(self):
        def always_crash():
            raise CheckCrashed("again")

        with pytest.raises(CheckCrashed) as info:
            call_with_retry(
                always_crash, RetryPolicy(max_retries=2), sleep=lambda s: None
            )
        assert info.value.diagnostics["attempts"] == 3

    def test_no_retry_default(self):
        calls = []

        def crash():
            calls.append(1)
            raise CheckCrashed("x")

        with pytest.raises(CheckCrashed):
            call_with_retry(crash, sleep=lambda s: None)
        assert len(calls) == 1
