"""Fault-isolated execution of equivalence checks.

The harness runs a check in a sandboxed child process with a *hard*
wall-clock timeout (SIGKILL on overrun — independent of the cooperative
``deadline`` checks inside the checkers), an address-space limit, and
structured serialization of the :class:`~repro.ec.results.\
EquivalenceCheckingResult` back to the parent.  Failures surface as the
:mod:`repro.errors` taxonomy; transient ones are retried with bounded
exponential backoff; :func:`run_check` degrades every failure into a
``NO_INFORMATION``/``TIMEOUT`` result
(:meth:`~repro.ec.results.EquivalenceCheckingResult.failed`), so batch
drivers never lose the remaining cells to one bad instance.  Isolated
or not, an attempt is :func:`~repro.harness.child.run_in_process`.

:mod:`repro.harness.race` runs several such children as a race — the
execution substrate of the concurrent strategy portfolio
(:mod:`repro.ec.portfolio`): two lanes at a time under one shared
deadline, first sound verdict wins, losers SIGKILLed and reaped.  The
sandbox is the race's one-lane case.  :mod:`repro.harness.child` is
the one place that forks, limits, kills, reaps and classifies a child,
for the sandbox, the race and the service pool alike.

Entry points::

    from repro.harness import run_check, run_check_isolated

    result = run_check(c1, c2, configuration)           # never raises
    result = run_check_isolated(c1, c2, configuration)  # raises CheckError

    from repro.harness import RaceEntry, race_checks

    outcome = race_checks(c1, c2, entries, shared_budget=60.0)
"""

from repro.harness.child import DEFAULT_GRACE_SECONDS
from repro.harness.journal import Journal, JournalMismatch
from repro.harness.race import (
    ChildOutcome,
    RaceEntry,
    RaceOutcome,
    race_checks,
)
from repro.harness.sandbox import run_check, run_check_isolated

__all__ = [
    "ChildOutcome",
    "DEFAULT_GRACE_SECONDS",
    "Journal",
    "JournalMismatch",
    "RaceEntry",
    "RaceOutcome",
    "race_checks",
    "run_check",
    "run_check_isolated",
]
