"""Structured error taxonomy for fault-isolated equivalence checks.

Every way a check can fail maps onto one :class:`CheckError` subclass with
a stable machine-readable ``kind`` and a *transient-vs-permanent*
classification.  Permanent failures (a deterministic timeout, a memory
blowup under a fixed limit, malformed input) are reported immediately;
transient failures (a crashed or lost worker process — plausibly an
environment hiccup rather than a property of the instance) are retried
with bounded exponential backoff via :class:`RetryPolicy` /
:func:`call_with_retry`.

Every checker loop calls :func:`check_deadline`, which raises
:class:`CheckTimeout` (``hard=False``) past the cooperative deadline.
:meth:`repro.ec.results.EquivalenceCheckingResult.failed` turns any
failure into a result.

The module imports nothing from :mod:`repro`, so both sides of the
process boundary (parent harness and sandboxed child) and every layer
above (the checkers, :mod:`repro.ec.manager`, :mod:`repro.bench.study`)
can share it without import cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TypeVar


class CheckError(Exception):
    """Base class of all structured check failures.

    Attributes:
        kind: Stable machine-readable failure class (``"timeout"``,
            ``"out_of_memory"``, ``"crashed"``, ``"worker_lost"``,
            ``"invalid_input"``, ``"check_error"``).
        transient: True if retrying the identical check can plausibly
            succeed (environment hiccup) — drives the retry policy.
        diagnostics: Free-form context (signal numbers, limits, elapsed
            times) carried across the process boundary.
    """

    kind = "check_error"
    transient = False

    def __init__(self, message: str = "", **diagnostics: object) -> None:
        super().__init__(message or self.kind)
        self.message = message or self.kind
        self.diagnostics: Dict[str, object] = dict(diagnostics)

    def to_dict(self) -> Dict[str, object]:
        """Serializable view, stable across the process boundary."""
        return {
            "kind": self.kind,
            "transient": self.transient,
            "message": self.message,
            "diagnostics": dict(self.diagnostics),
        }

    def __str__(self) -> str:
        if self.diagnostics:
            detail = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.diagnostics.items())
            )
            return f"{self.message} ({detail})"
        return self.message


class CheckTimeout(CheckError):
    """The check exceeded its wall-clock budget.

    Permanent: the same instance under the same budget will time out
    again.  ``diagnostics["hard"]`` is True when the sandbox had to
    SIGKILL a non-cooperative child, False when the cooperative deadline
    fired.
    """

    kind = "timeout"
    transient = False


class CheckOutOfMemory(CheckError):
    """The check exhausted its address-space/RSS budget.

    Permanent: memory demand is a deterministic property of the instance
    under a fixed limit.
    """

    kind = "out_of_memory"
    transient = False


class CheckCrashed(CheckError):
    """The check died abnormally (signal, unhandled internal error).

    Transient: a segfault or an unexpected exception may be an
    environment or scheduling artifact, so one bounded retry round is
    worthwhile before giving up.
    """

    kind = "crashed"
    transient = True


class CheckWorkerLost(CheckCrashed):
    """The sandboxed worker vanished without reporting a result.

    Transient, like :class:`CheckCrashed` — the pipe closed before any
    structured payload arrived (child killed externally, fork bomb
    protection, ...).
    """

    kind = "worker_lost"


class InvalidInput(CheckError):
    """The check inputs are malformed (bad circuit, bad configuration).

    Permanent: retrying identical inputs cannot help.
    """

    kind = "invalid_input"
    transient = False


class PortfolioDisagreement(CheckError):
    """Two racing checkers returned contradictory *sound* verdicts.

    One of them is wrong — this is a checker bug, not a property of the
    instance, and it must never be swallowed: the paths that degrade
    failures into results (:meth:`EquivalenceCheckingManager.run`,
    :func:`repro.harness.run_check`, the service pool) re-raise it
    instead.  Permanent: re-racing the same pair reproduces
    the same contradiction.
    """

    kind = "portfolio_disagreement"
    transient = False


class PoolBroken(CheckError):
    """The worker pool tripped its restart-storm circuit breaker.

    Raised by :mod:`repro.service.pool` when freshly started workers
    keep dying faster than :data:`repro.service.pool.STORM_THRESHOLD`
    deaths per :data:`~repro.service.pool.STORM_WINDOW` — a systemic
    environment problem (broken interpreter, cgroup OOM-killing every
    fork, ...), not a property of any job.  Permanent for the lifetime
    of the pool: resubmitting cannot help until the pool is rebuilt.
    """

    kind = "pool_broken"
    transient = False


class PoolSaturated(CheckError):
    """The service's bounded job queue is full — explicit backpressure.

    Transient by design: the client should wait
    ``diagnostics["retry_after"]`` seconds and resubmit.  The service
    rejects instead of buffering unboundedly, so a traffic spike
    degrades into visible retries rather than invisible memory growth.
    """

    kind = "pool_saturated"
    transient = True


#: kind string -> exception class, for re-raising across the pipe.
_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        CheckError,
        CheckTimeout,
        CheckOutOfMemory,
        CheckCrashed,
        CheckWorkerLost,
        InvalidInput,
        PortfolioDisagreement,
        PoolBroken,
        PoolSaturated,
    )
}


def error_from_dict(payload: Dict[str, object]) -> CheckError:
    """Reconstruct a :class:`CheckError` serialized with :meth:`to_dict`."""
    cls = _KINDS.get(str(payload.get("kind")), CheckError)
    error = cls(str(payload.get("message", "")))
    diagnostics = payload.get("diagnostics")
    if isinstance(diagnostics, dict):
        error.diagnostics.update(diagnostics)
    return error


def check_deadline(deadline: Optional[float]) -> None:
    """Raise the cooperative :class:`CheckTimeout` once ``deadline`` passed.

    ``deadline`` is a :func:`time.monotonic` timestamp, or None for no
    budget.  Every checker calls this between its steps.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise CheckTimeout("cooperative deadline exceeded", hard=False)


def classify_exception(exc: BaseException) -> CheckError:
    """Map an arbitrary exception onto the structured taxonomy.

    Used by :meth:`EquivalenceCheckingManager.run` and by the harness's
    in-process attempt to report failures in a stable shape.
    """
    if isinstance(exc, CheckError):
        return exc
    if isinstance(exc, MemoryError):
        return CheckOutOfMemory(
            "check ran out of memory", exception=type(exc).__name__
        )
    if isinstance(exc, (ValueError, TypeError)):
        return InvalidInput(str(exc) or type(exc).__name__,
                            exception=type(exc).__name__)
    return CheckCrashed(
        str(exc) or type(exc).__name__, exception=type(exc).__name__
    )


# ---------------------------------------------------------------------------
# retry / backoff
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... starts from the capped
    exponential ``min(backoff_base * backoff_factor**attempt,
    backoff_max)`` and then subtracts a jitter share: the delay is
    multiplied by ``1 - jitter * u`` where ``u`` in ``[0, 1)`` is derived
    by hashing ``(jitter_seed, attempt)``.  The default ``jitter=0``
    reproduces the pure exponential schedule; with jitter enabled the
    schedule stays *fully reproducible* — the same seed and attempt
    always yield the same delay, so journal replays and tests remain
    stable while concurrent restarts (a worker-pool crash storm) are
    decorrelated instead of thundering in lockstep.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def validate(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError("max_retries must be a non-negative integer")
        for name in ("backoff_base", "backoff_factor", "backoff_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if isinstance(self.jitter, bool) or not isinstance(
            self.jitter, (int, float)
        ):
            raise ValueError(f"jitter must be a number, got {self.jitter!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be within [0, 1], got {self.jitter!r}"
            )
        if isinstance(self.jitter_seed, bool) or not isinstance(
            self.jitter_seed, int
        ):
            raise ValueError(
                f"jitter_seed must be an integer, got {self.jitter_seed!r}"
            )

    def _jitter_fraction(self, attempt: int) -> float:
        """Deterministic ``u`` in ``[0, 1)`` for one ``(seed, attempt)``."""
        import hashlib

        digest = hashlib.sha256(
            f"repro-retry-jitter:{self.jitter_seed}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), in seconds."""
        base = min(
            self.backoff_base * self.backoff_factor ** attempt,
            self.backoff_max,
        )
        if self.jitter == 0.0:
            return base
        return base * (1.0 - self.jitter * self._jitter_fraction(attempt))


#: Retries disabled — every failure is reported on first occurrence.
NO_RETRY = RetryPolicy(max_retries=0)

T = TypeVar("T")


def call_with_retry(
    fn: Callable[[], T],
    policy: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = None,
) -> T:
    """Run ``fn``, retrying transient :class:`CheckError` failures.

    Permanent failures and exhausted retries propagate the *last* error,
    with ``diagnostics["attempts"]`` recording how many runs were made.
    ``sleep`` is injectable for tests (defaults to :func:`time.sleep`).
    """
    if policy is None:
        policy = NO_RETRY
    policy.validate()
    if sleep is None:
        sleep = time.sleep
    attempt = 0
    while True:
        try:
            return fn()
        except CheckError as error:
            error.diagnostics["attempts"] = attempt + 1
            if not error.transient or attempt >= policy.max_retries:
                raise
            sleep(policy.delay(attempt))
            attempt += 1
