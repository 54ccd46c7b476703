"""Subprocess sandboxing of equivalence checks.

One check runs in one forked child: :func:`run_check_isolated` is a race
(:mod:`repro.harness.race`) with a single lane.  The parent enforces a
*hard* wall-clock budget of ``timeout + DEFAULT_GRACE_SECONDS``: if no
structured result arrives in time the child is SIGKILLed — no
cooperation from the checker required, which is what contains the
non-cooperative hot loops, memory balloons and crashes that purely
cooperative ``deadline`` checks cannot (both QCEC-style DD checking and
``full_reduce`` are known to blow up super-polynomially on adversarial
instances).  The child additionally ceils its address space at
``Configuration.memory_limit_mb`` of headroom so a memory blowup dies as
a clean :class:`~repro.errors.CheckOutOfMemory` instead of triggering
the host's OOM killer.

:func:`run_check` is the fault-tolerant front door around it, or around
the same check in-process (:func:`~repro.harness.child.run_in_process`):
transient failures are retried, and every surviving failure degrades
into a result (:meth:`EquivalenceCheckingResult.failed`) instead of an
exception.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import EquivalenceCheckingResult
from repro.errors import (
    CheckError,
    CheckTimeout,
    PortfolioDisagreement,
    RetryPolicy,
    call_with_retry,
    error_from_dict,
)
from repro.harness.chaos import ChaosSpec
from repro.harness.child import hard_budget, run_in_process
from repro.harness.race import RaceEntry, race_checks


def run_check_isolated(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    chaos: Optional[ChaosSpec] = None,
) -> EquivalenceCheckingResult:
    """Run one check in a forked child; raise :class:`CheckError` on failure.

    A race with one lane: the child gets ``configuration.memory_limit_mb``
    of address-space headroom and is SIGKILLed ``DEFAULT_GRACE_SECONDS``
    after its cooperative ``timeout``.  On success the returned result
    carries an extra ``statistics["isolation"]`` block (pid, start
    method, applied limits, parent-measured overhead).
    """
    configuration = configuration or Configuration()
    start = time.monotonic()
    outcome = race_checks(
        circuit1,
        circuit2,
        [RaceEntry(configuration.strategy, configuration, chaos=chaos)],
    )
    lane = outcome.children[0]
    budget = hard_budget(configuration.timeout)
    if lane.status == "killed":
        raise CheckTimeout(
            "hard wall-clock budget exceeded; child killed",
            hard=True,
            budget_seconds=budget,
            pid=lane.pid,
        )
    if lane.status == "failed":
        raise error_from_dict(lane.error)
    result = lane.result
    parent_seconds = time.monotonic() - start
    limit = result.statistics.get("isolation", {}).get("limit", {})
    result.statistics["isolation"] = {
        "pid": lane.pid,
        "start_method": outcome.start_method,
        "memory_limit_mb": configuration.memory_limit_mb,
        "hard_budget_seconds": budget,
        "parent_seconds": round(parent_seconds, 6),
        "overhead_seconds": round(max(0.0, parent_seconds - result.time), 6),
        "limit": limit,
    }
    return result


def run_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    *,
    isolate: bool = True,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    sleep=None,
) -> EquivalenceCheckingResult:
    """Fault-tolerant front door: never raises on a failed check.

    Transient failures (crashed/lost workers) are retried with bounded
    exponential backoff per ``retry`` (default: the configuration's
    ``max_retries`` with :class:`~repro.errors.RetryPolicy`'s default
    backoff); any surviving failure degrades into a
    ``TIMEOUT``/``NO_INFORMATION`` result whose ``statistics["failure"]``
    holds the taxonomy record.
    """
    configuration = configuration or Configuration()
    if retry is None:
        retry = RetryPolicy(max_retries=configuration.max_retries)
    attempt = run_check_isolated if isolate else run_in_process
    start = time.monotonic()
    try:
        return call_with_retry(
            lambda: attempt(circuit1, circuit2, configuration, chaos),
            retry,
            sleep=sleep,
        )
    except PortfolioDisagreement:
        # Contradictory sound verdicts are a checker bug, not an
        # operational failure — never degrade them into a result.
        raise
    except CheckError as error:
        return EquivalenceCheckingResult.failed(
            error, configuration.strategy, time.monotonic() - start
        )
