"""One forked child: spawn, limit, run, kill, reap and classify.

The sandbox, the racer (:mod:`repro.harness.race`) and the service pool
(:mod:`repro.service.pool`) all run checks in forked children.  This
module is the one place that forks a child with its pipe
(:meth:`Child.spawn`), applies the address-space ceiling inside it, runs
the check there (:func:`run_job`), and kills, reaps and classifies it
afterwards (:meth:`Child.kill`, :meth:`Child.reap`,
:func:`classify_death`) — so a failed fork, a fatal signal or a hung
child degrades the same way under every supervisor.  The check itself
is :func:`run_in_process`, which :func:`repro.harness.run_check` also
calls directly when it does not isolate.

A check's result crosses the pipe as a JSON-safe dict
(:meth:`~repro.ec.results.EquivalenceCheckingResult.to_dict`), never as
a pickle of live checker state.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
from typing import Any, Callable, Dict, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import EquivalenceCheckingResult
from repro.errors import (
    CheckCrashed,
    CheckError,
    CheckOutOfMemory,
    CheckWorkerLost,
    classify_exception,
)
from repro.harness.chaos import ChaosSpec

#: Extra wall-clock seconds the hard kill allows beyond the cooperative
#: timeout — covers interpreter startup and result serialization.
DEFAULT_GRACE_SECONDS = 2.0

#: Seconds a child may take to exit on its own before it is SIGKILLed,
#: and to be reaped after a SIGKILL.
_EXIT_SECONDS = 2.0

_MIB = 1024 * 1024


def hard_budget(
    timeout: Optional[float], grace: float = DEFAULT_GRACE_SECONDS
) -> Optional[float]:
    """SIGKILL budget of a check with cooperative ``timeout``, if any."""
    return None if timeout is None else timeout + grace


def fork_context() -> Any:
    """The multiprocessing context every child is started from.

    Fork, where the platform has it: children inherit the circuits and
    anything the parent installed, instead of unpickling them.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _statm_bytes(field: int) -> Optional[int]:
    """Field ``field`` of ``/proc/self/statm`` in bytes (0 = virtual
    size, 1 = resident set), or None where /proc is unavailable."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[field])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


def rss_mb() -> Optional[float]:
    """Resident set of this process in MiB (None off-/proc platforms)."""
    resident = _statm_bytes(1)
    return None if resident is None else resident / _MIB


def apply_memory_limit(memory_mb: int) -> Dict[str, object]:
    """Ceil this process's address space; returns what was applied."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return {"applied": False, "reason": "resource module unavailable"}
    baseline = _statm_bytes(0)
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


def run_in_process(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    chaos: Optional[ChaosSpec],
) -> EquivalenceCheckingResult:
    """One attempt at a check in this process, with ``chaos`` armed.

    :meth:`EquivalenceCheckingManager.check`, with every failure but a
    ``KeyboardInterrupt`` or ``SystemExit`` raised as its
    :mod:`repro.errors` class, for the supervisor to retry or degrade.
    """
    from repro.ec.manager import EquivalenceCheckingManager
    from repro.harness import chaos as chaos_module

    if chaos is not None:
        chaos_module.activate(chaos)
    try:
        return EquivalenceCheckingManager(
            circuit1, circuit2, configuration
        ).check()
    except CheckError:
        raise
    except Exception as exc:
        raise classify_exception(exc) from exc
    finally:
        chaos_module.deactivate()


def run_job(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    chaos: Optional[ChaosSpec],
) -> Dict[str, Any]:
    """Run one check in this child; always returns a structured payload.

    ``{"ok": True, "result": ...}`` or ``{"ok": False, "error": ...}``;
    ``"oom"`` marks a :class:`~repro.errors.CheckOutOfMemory`.  Unlike
    :func:`run_in_process` alone, nothing escapes: a child reports even
    a ``KeyboardInterrupt`` or ``SystemExit`` as a classified failure.
    """
    try:
        result = run_in_process(circuit1, circuit2, configuration, chaos)
        return {"ok": True, "result": result.to_dict()}
    except BaseException as exc:  # noqa: BLE001 - containment is the point
        failure = classify_exception(exc).to_dict()
    oom = failure["kind"] == CheckOutOfMemory.kind
    if oom:
        gc.collect()  # the traceback is gone: free the balloon
    return {"ok": False, "oom": oom, "error": failure}


def check_main(
    conn: Any,
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    chaos: Optional[ChaosSpec],
) -> None:
    """Entry point of a one-check child: ceil memory, run, report.

    The ceiling is ``configuration.memory_limit_mb`` of headroom; what
    was applied lands in the result's ``statistics["isolation"]``.
    """
    try:
        memory_mb = configuration.memory_limit_mb
        limit = None if memory_mb is None else apply_memory_limit(memory_mb)
        payload = run_job(circuit1, circuit2, configuration, chaos)
        if limit is not None and payload["ok"]:
            payload["result"]["statistics"]["isolation"] = {"limit": limit}
        conn.send(payload)
    finally:
        conn.close()


_FATAL_SIGNALS = {
    int(getattr(signal, name)): name
    for name in ("SIGSEGV", "SIGBUS", "SIGILL", "SIGFPE", "SIGABRT")
    if hasattr(signal, name)
}


def classify_death(process: Any, who: str) -> CheckCrashed:
    """Classify a child that died without reporting a result (after join).

    A fatal signal is a crash of the check, any other death a lost
    worker.
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


class Child:
    """A forked child process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn

    @classmethod
    def spawn(
        cls,
        ctx: Any,
        target: Callable[..., None],
        args: Tuple[Any, ...],
        duplex: bool = False,
    ) -> "Child":
        """Fork ``target(conn, *args)`` with a fresh pipe.

        Raises:
            CheckWorkerLost: The fork failed (``EAGAIN``, ``ENOMEM``, ...).
                Both pipe ends are closed first.  Transient: a later
                fork may succeed.
        """
        parent_conn, child_conn = ctx.Pipe(duplex=duplex)
        try:
            process = ctx.Process(
                target=target, args=(child_conn, *args), daemon=True
            )
            process.start()
        except BaseException as exc:
            parent_conn.close()
            child_conn.close()
            if not isinstance(exc, OSError):
                raise
            raise CheckWorkerLost(
                f"fork failed: {exc}", errno=exc.errno
            ) from exc
        child_conn.close()
        return cls(process, parent_conn)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL the child, reap it and close the pipe."""
        self.process.kill()
        self.reap()

    def reap(self) -> None:
        """Join the child, SIGKILL it if it will not exit, close the pipe."""
        try:
            self.process.join(_EXIT_SECONDS)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(_EXIT_SECONDS)
        finally:
            self.conn.close()
