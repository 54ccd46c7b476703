"""One plan per check, and the concurrent executor that races it.

The source paper's central finding is that no single paradigm dominates
— DD construction, the alternating scheme, random-stimuli simulation
and ZX rewriting each win different Table-1 cells.  A :class:`Plan`
says which checkers run on a pair, in what order, and when: its lanes
are ``(strategy, offset)`` pairs in stage order.  The static pre-pass
plans each pair once (:func:`repro.analysis.cost.plan_checks`); without
its report both executors run :data:`DEFAULT_PLAN`.

The manager's sequential ``combined`` schedule walks the lanes in order
until a proof.  With ``Configuration.portfolio`` the manager instead
hands the plan to :func:`run_portfolio`, which launches every lane as a
sandboxed child (via :mod:`repro.harness.race`) at its offset under one
shared deadline and SIGKILLs the losers the moment any child returns a
*sound* EQ/NEQ verdict.  The preferred checker and the cheap simulation
falsifier start at once; the other lanes stagger in behind a short head
start (:data:`PORTFOLIO_HEAD_START`; crucial on few-core machines,
where every concurrent child slows the others), and a lane finishing
undecided promotes the next pending launch at once.
``PROBABLY_EQUIVALENT`` from simulation is evidence, not proof: it only
wins when nothing sound arrives before the deadline.

Cross-child verdict disagreement — two children both claiming a proof,
with opposite polarity — is a checker bug and surfaces as a hard
:class:`~repro.errors.PortfolioDisagreement`, which no path degrades
into a result.  A race that ends without any verdict degrades like any
failed check (:meth:`EquivalenceCheckingResult.failed`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import CheckError, CheckTimeout, error_from_dict

#: Stage order of every plan.  ``stabilizer`` only joins pairs the
#: gateset pass proves Clifford; on any other pair it can only return
#: ``NO_INFORMATION``.
STAGES = ("stabilizer", "simulation", "alternating", "zx", "construction")

#: Seconds the zero-offset lanes (the preferred checker and the
#: simulation falsifier) race alone before the other lanes launch.
#: Staggering matters most on few-core machines, where every extra
#: concurrent child slows the winner; a lane that finishes undecided
#: promotes the next pending launch at once, so the head start never
#: idles the machine.
PORTFOLIO_HEAD_START = 0.25

#: Preference order among non-sound survivors when the race drains
#: undecided: probabilistic evidence beats "I don't know" beats timeout.
_FALLBACK_RANK = {
    Equivalence.PROBABLY_EQUIVALENT: 0,
    Equivalence.NO_INFORMATION: 1,
    Equivalence.TIMEOUT: 2,
}


@dataclass(frozen=True)
class Plan:
    """Which checkers run on one pair, in what order, and when.

    Attributes:
        lanes: ``(strategy, offset)`` pairs in stage order; the offset is
            the seconds after race start before the lane launches.  A
            plan only orders and staggers lanes: every lane's timeout
            and memory ceiling come from the check's ``Configuration``.
        preferred_checker: The single-strategy recommendation, which
            races from t=0 (shown by ``repro analyze``).
        rationale: Human-readable one-liners justifying the plan.
    """

    lanes: Tuple[Tuple[str, float], ...]
    preferred_checker: str
    rationale: Tuple[str, ...]

    @classmethod
    def staged(
        cls, preferred: str, clifford: bool, rationale: Tuple[str, ...]
    ) -> "Plan":
        """Lay :data:`STAGES` out around ``preferred``.

        ``preferred`` and ``simulation`` start at t=0, every other lane
        after :data:`PORTFOLIO_HEAD_START`; ``stabilizer`` joins only
        ``clifford`` pairs.
        """
        lanes = tuple(
            (
                stage,
                0.0
                if stage in (preferred, "simulation")
                else PORTFOLIO_HEAD_START,
            )
            for stage in STAGES
            if clifford or stage != "stabilizer"
        )
        late = sum(1 for _, offset in lanes if offset)
        return cls(
            lanes,
            preferred,
            rationale + (
                f"portfolio: {preferred} and simulation race from t=0, "
                f"{late} companion lane(s) stagger in after a "
                f"{PORTFOLIO_HEAD_START:g}s head start",
            ),
        )

    def launch_order(self) -> List[Tuple[str, float]]:
        """The lanes as the race forks them: by offset, and among lanes
        due at the same time the preferred checker first."""
        return sorted(
            self.lanes,
            key=lambda lane: (lane[1], lane[0] != self.preferred_checker),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "lanes": _lane_dicts(self.lanes),
            "preferred_checker": self.preferred_checker,
            "rationale": list(self.rationale),
        }


def _lane_dicts(lanes: Iterable[Tuple[str, float]]) -> List[Dict[str, object]]:
    return [
        {"strategy": strategy, "offset": offset} for strategy, offset in lanes
    ]


#: The plan both executors run when there is no pre-pass report
#: (``static_analysis=False``, or a pre-pass failure it swallowed).
DEFAULT_PLAN = Plan.staged(
    "alternating",
    clifford=False,
    rationale=("no static pre-pass report: the default plan",),
)


def _child_configuration(
    configuration: Configuration, strategy: str, timeout: Optional[float]
) -> Configuration:
    """One lane's configuration: a single strategy, no nested portfolio.

    The child skips the static pre-pass (the parent already ran it once
    for the whole race) and keeps the parent's seeds, table bounds and
    memory ceiling so lane verdicts are bit-identical to the same
    strategy run alone.
    """
    return dataclasses.replace(
        configuration,
        strategy=strategy,
        portfolio=False,
        static_analysis=False,
        timeout=timeout,
    )


def _select_fallback(outcomes) -> Optional[str]:
    """Pick the best non-sound survivor: rank first, completion order second."""
    best_name: Optional[str] = None
    best_rank: Optional[int] = None
    for child in outcomes:
        if child.result is None:
            continue
        rank = _FALLBACK_RANK.get(child.result.equivalence)
        if rank is None:  # pragma: no cover - sound results win earlier
            continue
        if best_rank is None or rank < best_rank:
            best_name, best_rank = child.name, rank
    return best_name


def run_portfolio(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    plan: Plan,
    configuration: Configuration,
    start: float,
    deadline: Optional[float],
) -> EquivalenceCheckingResult:
    """Race the plan's lanes; return the winning verdict.

    Args:
        circuit1, circuit2: The input circuits.  Every lane is a manager
            run of its own and derives its logical forms after the fork.
        plan: The check's plan; each lane launches at its offset.
        configuration: The manager's configuration (``portfolio=True``,
            ``strategy="combined"``).
        start: The manager's ``time.monotonic()`` reference — the
            returned result's ``time`` covers the whole check including
            the pre-pass, matching the sequential path's accounting.
        deadline: Shared cooperative deadline (monotonic timestamp); the
            racer converts the remainder into the shared hard budget.

    Raises:
        PortfolioDisagreement: Two lanes returned contradictory sound
            verdicts (never degraded into a result).
    """
    from repro.harness.race import KILL_LOSER, RaceEntry, race_checks
    from repro.perf import PerfCounters

    counters = PerfCounters()
    counters.count("portfolio.races")
    launches = plan.launch_order()
    now = time.monotonic()
    remaining = None if deadline is None else max(0.01, deadline - now)
    # Each lane's cooperative timeout: what is left of the check's.
    lane_timeout = min(
        (t for t in (configuration.timeout, remaining) if t is not None),
        default=None,
    )
    entries = [
        RaceEntry(
            name=strategy,
            configuration=_child_configuration(
                configuration, strategy, lane_timeout
            ),
            delay=offset,
        )
        for strategy, offset in launches
    ]
    outcome = race_checks(circuit1, circuit2, entries, shared_budget=remaining)
    counters.count(
        "portfolio.children_launched",
        sum(1 for child in outcome.children if child.pid is not None),
    )
    counters.count(
        "portfolio.losers_killed",
        sum(
            1 for child in outcome.children
            if child.kill_code == KILL_LOSER
        ),
    )

    winner = outcome.winner
    sound = winner is not None
    if sound:
        counters.count("portfolio.sound_wins")
    else:
        winner = _select_fallback(outcome.children)
        if winner is not None and (
            outcome.outcome(winner).result.equivalence
            is Equivalence.PROBABLY_EQUIVALENT
        ):
            counters.count("portfolio.probabilistic_wins")

    elapsed = time.monotonic() - start
    if winner is not None:
        winning = outcome.outcome(winner)
        result = winning.result
        assert result is not None
    else:
        # Every lane failed or was killed undecided: TIMEOUT when the
        # shared deadline expired, else NO_INFORMATION with the first
        # lane failure.
        counters.count("portfolio.no_verdict")
        failures = [c.error for c in outcome.children if c.error is not None]
        if outcome.deadline_expired:
            error: CheckError = CheckTimeout(
                "race deadline expired; undecided lanes killed",
                hard=True,
                budget_seconds=remaining,
            )
        elif failures:
            error = error_from_dict(failures[0])
        else:
            error = CheckError("no lane reported a verdict")
        result = EquivalenceCheckingResult.failed(error, "portfolio", elapsed)

    result.strategy = "portfolio"
    result.time = elapsed
    result.statistics["portfolio"] = {
        "winner": winner,
        "sound": sound,
        "preferred_checker": plan.preferred_checker,
        "rationale": list(plan.rationale),
        "plan": _lane_dicts(launches),
        "children": [child.to_dict() for child in outcome.children],
        "kills": outcome.kill_counts(),
        "all_reaped": all(
            child.reaped
            for child in outcome.children
            if child.pid is not None
        ),
        "race_elapsed": round(outcome.elapsed, 6),
        "start_method": outcome.start_method,
        "perf": counters.as_dict(),
    }
    return result


def loser_kill_codes(result: EquivalenceCheckingResult) -> Dict[str, str]:
    """Per-lane kill codes of a portfolio result (for journal cells)."""
    block = result.statistics.get("portfolio")
    if not isinstance(block, dict):
        return {}
    codes: Dict[str, str] = {}
    for child in block.get("children", ()):
        if isinstance(child, dict) and child.get("kill_code"):
            codes[str(child.get("name"))] = str(child["kill_code"])
    return codes


def portfolio_winner(result: EquivalenceCheckingResult) -> Optional[str]:
    """The winning lane of a portfolio result, or None."""
    block = result.statistics.get("portfolio")
    if isinstance(block, dict):
        winner = block.get("winner")
        return str(winner) if winner is not None else None
    return None
