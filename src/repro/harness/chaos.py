"""Deterministic fault injection for the isolation layer.

Chaos specs describe one concrete misbehaviour a checker can exhibit —
a non-cooperative hard hang (a hot loop that never consults the
cooperative deadline), a memory balloon, a hard crash (fatal signal,
no Python cleanup), or a plain unhandled exception — and
:func:`activate` arms it so the *next* checker invocation triggers it.
The faults are injected at the strategy-dispatch seam inside
:class:`~repro.ec.manager.EquivalenceCheckingManager`, i.e. inside the
checker call, after configuration validation: exactly where a real DD
or ZX blowup would occur.

Everything is deterministic — no randomness, no environment probing —
so the containment tests in ``tests/harness`` are exactly reproducible.
The module holds process-global state on purpose: the sandbox child
arms it after the fork, proving that the *parent* stays unaffected.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Optional

#: Supported fault modes.  ``leak`` and ``exit`` target *long-lived
#: workers* (:mod:`repro.service.pool`): a leak survives the check that
#: triggered it and inflates the worker's RSS until the pool's recycling
#: threshold retires the worker; ``exit`` terminates the process cleanly
#: without reporting, which the supervisor must classify as a lost
#: worker even though no fatal signal was involved.
MODES = ("none", "hang", "memory_balloon", "crash", "exception", "leak", "exit")

#: Retained allocations of every ``leak`` fault fired in this process —
#: deliberately never freed, so a recycled worker demonstrably carries
#: the ballast until it is replaced.
_LEAKS: list = []


@dataclass(frozen=True)
class ChaosSpec:
    """One injected fault.

    Attributes:
        mode: ``"hang"`` (non-cooperative hot loop), ``"memory_balloon"``
            (allocate until the ceiling, then :class:`MemoryError`),
            ``"crash"`` (fatal signal — the process dies without
            reporting), ``"exception"`` (unhandled ``RuntimeError``),
            ``"leak"`` (allocate ``balloon_mb`` and retain it forever —
            the check succeeds but the worker's RSS never comes back
            down), ``"exit"`` (clean ``os._exit(0)`` without reporting)
            or ``"none"``.
        balloon_mb: Allocation ceiling of the balloon/leak, so an
            *unlimited* sandbox still terminates deterministically
            instead of swallowing the host's RAM.
        signal_number: Signal the ``crash`` mode raises on itself.
    """

    mode: str = "none"
    balloon_mb: int = 256
    signal_number: int = signal.SIGSEGV

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown chaos mode {self.mode!r}")
        if self.balloon_mb < 1:
            raise ValueError("balloon_mb must be positive")


#: The armed fault of this process (None = chaos disabled).
_active: Optional[ChaosSpec] = None


def activate(spec: Optional[ChaosSpec]) -> None:
    """Arm ``spec`` for the next checker invocation in this process."""
    global _active
    if spec is not None:
        spec.validate()
    _active = spec if spec is not None and spec.mode != "none" else None


def deactivate() -> None:
    """Disarm any active fault (used by tests running in-process)."""
    activate(None)


def active_spec() -> Optional[ChaosSpec]:
    return _active


def maybe_trigger() -> None:
    """Fire the armed fault, if any.  Called from inside the checker path."""
    if _active is None:
        return
    trigger(_active)


def trigger(spec: ChaosSpec) -> None:
    """Execute one fault.  Does not return for terminal modes."""
    if spec.mode == "none":
        return
    if spec.mode == "hang":
        # A genuinely non-cooperative hot loop: no deadline checks, no
        # sleeps, nothing the cooperative timeout machinery could catch.
        x = 1.0
        while True:
            x = (x * 1.0000001) % 1e9
    if spec.mode == "memory_balloon":
        balloon = []
        # 1 MiB chunks of distinct bytes defeat any allocator sharing.
        for i in range(spec.balloon_mb):
            balloon.append(bytearray(1024 * 1024))
            balloon[-1][0] = i % 256
        # repro: allow(error-taxonomy): fault injection needs a raw MemoryError
        raise MemoryError(
            f"chaos balloon reached its {spec.balloon_mb} MiB ceiling"
        )
    if spec.mode == "crash":
        # Keep the fatal-signal traceback out of the parent's stderr —
        # the point is an *unreported* death, not a diagnostic dump.
        import faulthandler

        faulthandler.disable()
        os.kill(os.getpid(), spec.signal_number)
        # A fatal signal should never return; belt-and-braces for
        # signals a test harness might have blocked:
        os._exit(70)
    if spec.mode == "exception":
        # repro: allow(error-taxonomy): deliberately unclassified exception
        raise RuntimeError("chaos: injected checker exception")
    if spec.mode == "leak":
        # Allocate and *retain*: the check itself proceeds normally, but
        # the process keeps the ballast forever — the signature of a
        # slow native-extension leak that only worker recycling fixes.
        for i in range(spec.balloon_mb):
            chunk = bytearray(1024 * 1024)
            chunk[0] = i % 256
            _LEAKS.append(chunk)
        return
    if spec.mode == "exit":
        # A clean exit without any report: no fatal signal, no payload —
        # the supervisor sees EOF on the pipe and exitcode 0.
        os._exit(0)
    raise ValueError(f"unknown chaos mode {spec.mode!r}")
