"""Result types of an equivalence check."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CheckError, CheckTimeout


class Equivalence(enum.Enum):
    """Verdict of an equivalence check.

    ``PROBABLY_EQUIVALENT`` is the simulation strategy's positive outcome:
    every random stimulus agreed, which is strong evidence but no proof
    (Section 6.2 discusses exactly this asymmetry).  ``NO_INFORMATION`` is
    the ZX checker's outcome when the reduced diagram is neither a
    permutation nor refutable — the incompleteness the paper highlights.
    """

    EQUIVALENT = "equivalent"
    EQUIVALENT_UP_TO_GLOBAL_PHASE = "equivalent_up_to_global_phase"
    PROBABLY_EQUIVALENT = "probably_equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    NO_INFORMATION = "no_information"
    TIMEOUT = "timeout"


#: Verdicts that count as a positive result in the case-study tables.
_POSITIVE = {
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
    Equivalence.PROBABLY_EQUIVALENT,
}


@dataclass
class EquivalenceCheckingResult:
    """Outcome of one equivalence check.

    Attributes:
        equivalence: The verdict.
        strategy: Which strategy produced the verdict.
        time: Wall-clock seconds spent.
        statistics: Strategy-specific counters — e.g. ``max_dd_size``,
            ``simulations_run``, ``zx_rewrites``, ``spiders_remaining``,
            ``dd_size_trace``.
    """

    equivalence: Equivalence
    strategy: str
    time: float = 0.0
    statistics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view — the wire format of the isolation harness.

        Statistics are coerced through :func:`repro.perf.json_safe`, so
        the payload crossing the sandbox pipe (and landing in journals)
        is always plain JSON, never a pickle of live checker state.
        """
        from repro.perf import json_safe

        return {
            "equivalence": self.equivalence.value,
            "strategy": self.strategy,
            "time": self.time,
            "statistics": json_safe(self.statistics),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EquivalenceCheckingResult":
        """Reconstruct a result serialized with :meth:`to_dict`."""
        statistics = payload.get("statistics")
        time_value = payload.get("time", 0.0)
        return cls(
            Equivalence(payload["equivalence"]),
            str(payload.get("strategy", "")),
            float(time_value) if isinstance(time_value, (int, float)) else 0.0,
            dict(statistics) if isinstance(statistics, dict) else {},
        )

    @classmethod
    def failed(
        cls, error: CheckError, strategy: str, time: float
    ) -> "EquivalenceCheckingResult":
        """The result of a check that failed with ``error``.

        ``TIMEOUT`` for a :class:`~repro.errors.CheckTimeout`,
        ``NO_INFORMATION`` for any other failure; either way
        ``statistics["failure"]`` holds the error's taxonomy record.
        Every path that turns a failure into a result goes through here.
        """
        verdict = (
            Equivalence.TIMEOUT
            if isinstance(error, CheckTimeout)
            else Equivalence.NO_INFORMATION
        )
        return cls(verdict, strategy, time, {"failure": error.to_dict()})

    @property
    def failure(self) -> Optional[Dict[str, object]]:
        """The structured failure record, if this is a degraded result."""
        failure = self.statistics.get("failure")
        return failure if isinstance(failure, dict) else None

    @property
    def considered_equivalent(self) -> bool:
        """True for any positive verdict (incl. probably-equivalent)."""
        return self.equivalence in _POSITIVE

    @property
    def proven(self) -> bool:
        """True if the verdict is a proof rather than evidence."""
        return self.equivalence in (
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
            Equivalence.NOT_EQUIVALENT,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.equivalence.value} [{self.strategy}] in {self.time:.3f}s"
        )
