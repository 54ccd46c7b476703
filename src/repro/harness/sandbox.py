"""Subprocess sandboxing of equivalence checks.

One check runs in one child process.  The parent enforces a *hard*
wall-clock budget: if no structured result arrives in time the child is
SIGKILLed — no cooperation from the checker required, which is what
contains the non-cooperative hot loops, memory balloons and crashes that
purely cooperative ``deadline`` checks cannot (both QCEC-style DD
checking and ``full_reduce`` are known to blow up super-polynomially on
adversarial instances).  The child additionally applies an
address-space ceiling via :func:`resource.setrlimit` so a memory blowup
dies as a clean :class:`~repro.errors.CheckOutOfMemory` instead of
triggering the host's OOM killer.

The :class:`~repro.ec.results.EquivalenceCheckingResult` — verdict,
statistics, perf counters — crosses the process boundary as a
JSON-safe dict (:meth:`EquivalenceCheckingResult.to_dict`), never as an
opaque pickle of live checker state.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import (
    CheckCrashed,
    CheckError,
    CheckOutOfMemory,
    CheckTimeout,
    CheckWorkerLost,
    InvalidInput,
    RetryPolicy,
    call_with_retry,
    classify_exception,
)
from repro.harness.chaos import ChaosSpec

#: Extra wall-clock seconds the hard kill allows beyond the cooperative
#: timeout — covers interpreter startup and result serialization.
DEFAULT_GRACE_SECONDS = 2.0

_MIB = 1024 * 1024


@dataclass(frozen=True)
class ResourceLimits:
    """Hard limits applied to one sandboxed check.

    Attributes:
        wall_time: Hard wall-clock budget in seconds for the child.
            ``None`` derives it from the configuration's cooperative
            ``timeout`` plus ``grace`` (or no hard limit if that is also
            unset).
        memory_mb: Address-space headroom in MiB granted to the check
            *on top of* the interpreter's footprint at startup (measured
            from ``/proc/self/statm`` where available).  ``None`` leaves
            the inherited limits untouched.
        grace: Seconds added to a derived ``wall_time`` budget.
    """

    wall_time: Optional[float] = None
    memory_mb: Optional[int] = None
    grace: float = DEFAULT_GRACE_SECONDS

    def validate(self) -> None:
        for name in ("wall_time", "grace"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.memory_mb is not None and (
            isinstance(self.memory_mb, bool)
            or not isinstance(self.memory_mb, int)
            or self.memory_mb < 1
        ):
            raise ValueError(
                f"memory_mb must be a positive integer, got {self.memory_mb!r}"
            )

    def hard_budget(self, configuration: Configuration) -> Optional[float]:
        """The effective hard wall-clock budget for one check."""
        if self.wall_time is not None:
            return self.wall_time
        if configuration.timeout is not None:
            return configuration.timeout + self.grace
        return None


def _current_address_space_bytes() -> Optional[int]:
    """Virtual size of this process, or None where /proc is unavailable."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


def _apply_memory_limit(memory_mb: int) -> Dict[str, object]:
    """Ceil this process's address space; returns what was applied."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return {"applied": False, "reason": "resource module unavailable"}
    baseline = _current_address_space_bytes()
    headroom = memory_mb * _MIB
    # The ceiling sits on top of the interpreter's footprint: RLIMIT_AS
    # counts *virtual* address space, and numpy/scipy map hundreds of MiB
    # before the check even starts, so an absolute ceiling would kill the
    # worker during startup rather than during the blowup.
    limit = headroom if baseline is None else baseline + headroom
    applied: Dict[str, object] = {
        "applied": False,
        "limit_bytes": limit,
        "baseline_bytes": baseline,
    }
    try:
        if hasattr(resource, "RLIMIT_CORE"):
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        applied["applied"] = True
    except (ValueError, OSError) as exc:  # pragma: no cover - exotic rlimits
        applied["reason"] = str(exc)
    return applied


def _child_main(
    conn,
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    memory_mb: Optional[int],
    chaos_payload: Optional[Dict[str, object]],
) -> None:
    """Sandboxed entry point: run one check and report a structured payload."""
    from repro.ec.manager import EquivalenceCheckingManager
    from repro.harness import chaos as chaos_module

    limit_info: Dict[str, object] = {}
    try:
        if memory_mb is not None:
            limit_info = _apply_memory_limit(memory_mb)
        if chaos_payload is not None:
            chaos_module.activate(ChaosSpec.from_dict(chaos_payload))
        # Graceful degradation is the parent's job: raw failures must
        # reach the classifier here so the taxonomy stays precise.
        config = dataclasses.replace(configuration, graceful_degradation=False)
        result = EquivalenceCheckingManager(circuit1, circuit2, config).run()
        conn.send({"ok": True, "result": result.to_dict(), "limit": limit_info})
    except MemoryError:
        # Free the balloon before trying to serialize the report.
        import gc

        gc.collect()
        error = CheckOutOfMemory(
            "check exceeded its address-space limit", memory_limit_mb=memory_mb
        )
        conn.send({"ok": False, "error": error.to_dict(), "limit": limit_info})
    except BaseException as exc:  # noqa: BLE001 - the whole point is containment
        try:
            conn.send(
                {
                    "ok": False,
                    "error": classify_exception(exc).to_dict(),
                    "limit": limit_info,
                }
            )
        except Exception:  # pragma: no cover - reporting itself failed
            os._exit(71)
    finally:
        conn.close()


_FATAL_SIGNALS = {
    int(getattr(signal, name)): name
    for name in ("SIGSEGV", "SIGBUS", "SIGILL", "SIGFPE", "SIGABRT")
    if hasattr(signal, name)
}


def classify_death(process: Any, who: str) -> CheckCrashed:
    """Classify a child that died without reporting a result (after join).

    The sandbox, the race and the pool share this mapping: a fatal
    signal is a crash of the check, any other death a lost worker.
    """
    exitcode = process.exitcode
    if exitcode is not None and exitcode < 0:
        number = -exitcode
        name = _FATAL_SIGNALS.get(number)
        if name is not None:
            return CheckCrashed(
                f"{who} died on {name}",
                signal=number,
                signal_name=name,
                pid=process.pid,
            )
        return CheckWorkerLost(
            f"{who} killed by signal {number}", signal=number, pid=process.pid
        )
    return CheckWorkerLost(
        f"{who} exited without reporting a result",
        exitcode=exitcode,
        pid=process.pid,
    )


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def run_check_isolated(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    limits: Optional[ResourceLimits] = None,
    chaos: Optional[ChaosSpec] = None,
) -> EquivalenceCheckingResult:
    """Run one check in a sandboxed child; raise :class:`CheckError` on failure.

    On success the returned result carries an extra
    ``statistics["isolation"]`` block (pid, start method, applied limits,
    parent-measured overhead).
    """
    configuration = configuration or Configuration()
    try:
        configuration.validate()
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    limits = limits or ResourceLimits(
        memory_mb=configuration.memory_limit_mb
    )
    limits.validate()
    budget = limits.hard_budget(configuration)

    start = time.monotonic()
    ctx = multiprocessing.get_context(_start_method())
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    try:
        process = ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                circuit1,
                circuit2,
                configuration,
                limits.memory_mb,
                chaos.to_dict() if chaos is not None else None,
            ),
            daemon=True,
        )
        process.start()
    except BaseException:
        # A failed spawn (fork exhaustion, unpicklable payload) must not
        # strand either pipe end on the parent side.
        parent_conn.close()
        child_conn.close()
        raise
    payload: Optional[Dict[str, Any]] = None
    try:
        # Inside the guarded region: if this close raises, the finally
        # below still reaps the child and releases the parent end.
        child_conn.close()
        deadline = None if budget is None else start + budget
        while payload is None:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise CheckTimeout(
                    "hard wall-clock budget exceeded; child killed",
                    hard=True,
                    budget_seconds=budget,
                    pid=process.pid,
                )
            if not parent_conn.poll(
                None if remaining is None else min(remaining, 0.5)
            ):
                continue
            try:
                payload = parent_conn.recv()
            except EOFError:
                break  # child died before reporting
    finally:
        # The connection must be released even if reaping the child
        # itself raises (kill/join on a pid the OS already recycled).
        try:
            if payload is None:
                process.kill()
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - kill cannot be refused
                process.terminate()
                process.join(1.0)
        finally:
            parent_conn.close()

    if payload is None:
        raise classify_death(process, "worker")
    if not payload.get("ok"):
        from repro.errors import error_from_dict

        raise error_from_dict(payload["error"])

    result = EquivalenceCheckingResult.from_dict(payload["result"])
    parent_seconds = time.monotonic() - start
    result.statistics["isolation"] = {
        "pid": process.pid,
        "start_method": ctx.get_start_method(),
        "memory_limit_mb": limits.memory_mb,
        "hard_budget_seconds": budget,
        "parent_seconds": round(parent_seconds, 6),
        "overhead_seconds": round(max(0.0, parent_seconds - result.time), 6),
        "limit": payload.get("limit", {}),
    }
    return result


def _failure_result(
    error: CheckError, strategy: str, elapsed: float
) -> EquivalenceCheckingResult:
    """Degrade a structured failure into a reportable result."""
    verdict = (
        Equivalence.TIMEOUT
        if isinstance(error, CheckTimeout)
        else Equivalence.NO_INFORMATION
    )
    return EquivalenceCheckingResult(
        verdict, strategy, elapsed, {"failure": error.to_dict()}
    )


def run_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    *,
    isolate: bool = True,
    limits: Optional[ResourceLimits] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    sleep=None,
) -> EquivalenceCheckingResult:
    """Fault-tolerant front door: never raises on a failed check.

    Transient failures (crashed/lost workers) are retried with bounded
    exponential backoff per ``retry`` (default: derived from the
    configuration's ``max_retries`` / ``retry_backoff``); any surviving
    failure degrades into a ``TIMEOUT``/``NO_INFORMATION`` result whose
    ``statistics["failure"]`` holds the taxonomy record.
    """
    configuration = configuration or Configuration()
    if retry is None:
        retry = RetryPolicy(
            max_retries=configuration.max_retries,
            backoff_base=configuration.retry_backoff,
        )

    def attempt() -> EquivalenceCheckingResult:
        if isolate:
            return run_check_isolated(
                circuit1, circuit2, configuration, limits=limits, chaos=chaos
            )
        from repro.ec.manager import EquivalenceCheckingManager
        from repro.harness import chaos as chaos_module

        config = dataclasses.replace(configuration, graceful_degradation=False)
        try:
            config.validate()
        except ValueError as exc:
            raise InvalidInput(str(exc)) from exc
        if chaos is not None:
            chaos_module.activate(chaos)
        try:
            return EquivalenceCheckingManager(circuit1, circuit2, config).run()
        except Exception as exc:  # noqa: BLE001 - degraded below
            raise classify_exception(exc) from exc
        finally:
            if chaos is not None:
                chaos_module.deactivate()

    start = time.monotonic()
    try:
        return call_with_retry(attempt, retry, sleep=sleep)
    except CheckError as error:
        from repro.errors import PortfolioDisagreement

        if isinstance(error, PortfolioDisagreement):
            # Contradictory sound verdicts are a checker bug, not an
            # operational failure — never degrade them into a result.
            raise
        return _failure_result(
            error, configuration.strategy, time.monotonic() - start
        )
