"""The benchmark's yardstick for the speed of the host it runs on.

The build host is a virtual machine that shares its physical cores with
other tenants.  While a neighbour is busy, the same code runs up to 1.6x
slower, in stretches of seconds to minutes, and the slowdown shows in CPU
time as much as in wall time, so neither clock alone tells the program's
speed from the host's.  The benchmark therefore times a fixed pure-Python
probe between the intervals it measures, and scales each interval by
``REFERENCE_S / probe``: the time it would have taken at the host's
undisturbed speed.  A change to the program moves the intervals and not
the probe, so it moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Dict, List

#: The probe's time on the undisturbed build host (2-core Intel Xeon VM,
#: Python 3.11.7): the lower quartile of 3,000 back-to-back probes was
#: 9.54 ms (minimum 8.77 ms, median 9.95 ms, upper quartile 12.2 ms).
#: Scaled times are seconds at that speed.
REFERENCE_S = 0.0095

#: Loop iterations of one probe.
PROBE_ITERATIONS = 60_000

#: Wall-clock period of the probes taken inside an interval (their cost,
#: about 2% of it, is taken off the interval's wall time).
SAMPLE_PERIOD_S = 0.5


def _kernel(iterations: int) -> float:
    """Dictionary look-ups, hashing and complex arithmetic, as in the DDs."""
    table = {}
    acc = 0j
    for i in range(iterations):
        key = (i * 7919) & 4095
        value = table.get(key)
        if value is None:
            value = table[key] = complex(i & 31, key & 15)
        acc = acc * 0.5 + value
    return acc.real


def probe() -> float:
    """Seconds one probe takes, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel(PROBE_ITERATIONS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes on a wall-clock timer (``SIGALRM``) while a block runs.

    The handler runs in the main thread between bytecodes, so a probe
    times the core the block runs on at that moment.  ``seconds`` is the
    time the probes took, for the caller to take off the block's wall
    time.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.seconds = 0.0

    def _probe(self, _signum: int, _frame: object) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.seconds += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Yardstick:
    """Probes taken around, and optionally inside, measured intervals.

    Interval ``i`` lies between ``probes[i]`` and ``probes[i + 1]``.  A
    short interval's scale is ``REFERENCE_S`` over the median of the four
    probes nearest it, two on each side, which smooths the probes' own
    jitter.  The host's speed changes within seconds, so an interval
    probed inside (see :meth:`sampling`) is scaled by the mean of its own
    probes and the two that bracket it: the host's mean speed over it.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]
        self.inside: Dict[int, List[float]] = {}

    def sampling(self) -> Sampler:
        """A sampler whose probes belong to the current interval."""
        sampler = Sampler()
        self.inside[len(self.probes) - 1] = sampler.probes
        return sampler

    def mark(self) -> int:
        """Close the current interval with a probe; returns its index."""
        self.probes.append(probe())
        return len(self.probes) - 2

    def scale(self, index: int) -> float:
        inside = self.inside.get(index)
        if inside:
            return REFERENCE_S / statistics.fmean(
                [self.probes[index], *inside, self.probes[index + 1]]
            )
        window = self.probes[max(0, index - 1): index + 3]
        return REFERENCE_S / statistics.median(window)
