"""One plan per check, and the concurrent executor that races it.

The source paper's central finding is that no single paradigm dominates
— DD construction, the alternating scheme, random-stimuli simulation
and ZX rewriting each win different Table-1 cells.  So a check's plan
is a function of one proven fact: :func:`plan` puts ``stabilizer`` in
front of the other :data:`STAGES` when the static pre-pass's gateset
pass proved both circuits Clifford, and leaves it out otherwise (and
without a pre-pass report).

The manager's sequential ``combined`` schedule walks the lanes in order
until a proof.  With ``Configuration.portfolio`` the manager instead
hands the lanes to :func:`run_portfolio`, which races them as sandboxed
children (via :mod:`repro.harness.race`) under one shared deadline: the
first two start at once, each lane that ends without a sound verdict
starts the next, and the losers are SIGKILLed the moment any child
returns a *sound* EQ/NEQ verdict.  ``PROBABLY_EQUIVALENT`` from
simulation is evidence, not proof: it only wins when nothing sound
arrives before the deadline.

Cross-child verdict disagreement — two children both claiming a proof,
with opposite polarity — is a checker bug and surfaces as a hard
:class:`~repro.errors.PortfolioDisagreement`, which no path degrades
into a result.  A race that ends without any verdict degrades like any
failed check (:meth:`EquivalenceCheckingResult.failed`).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import CheckError, CheckTimeout, error_from_dict

#: Stage order of every plan.  ``stabilizer`` only joins pairs the
#: gateset pass proves Clifford; on any other pair it can only return
#: ``NO_INFORMATION``.
STAGES = ("stabilizer", "simulation", "alternating", "zx", "construction")

#: Preference order among non-sound survivors when the race drains
#: undecided: probabilistic evidence beats "I don't know" beats timeout.
_FALLBACK_RANK = {
    Equivalence.PROBABLY_EQUIVALENT: 0,
    Equivalence.NO_INFORMATION: 1,
    Equivalence.TIMEOUT: 2,
}


def plan(clifford: bool) -> Tuple[str, ...]:
    """The lanes both executors of ``combined`` run, in stage order.

    ``clifford`` is the pre-pass's proof that both circuits are
    Clifford; every stage but ``stabilizer`` runs without it.
    """
    return STAGES if clifford else STAGES[1:]


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
    lanes: Tuple[str, ...],
    configuration: Configuration,
    start: float,
    deadline: Optional[float],
) -> EquivalenceCheckingResult:
    """Race the check's lanes; return the winning verdict.

    Args:
        circuit1, circuit2: The input circuits.  Every lane is a manager
            run of its own and derives its logical forms after the fork.
        lanes: The check's :func:`plan`, in the order the lanes start.
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
        )
        for strategy in lanes
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
        "plan": list(lanes),
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
