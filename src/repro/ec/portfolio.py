"""Concurrent strategy portfolio: race the checkers, first sound verdict wins.

The source paper's central finding is that no single paradigm dominates
— DD construction, the alternating scheme, random-stimuli simulation
and ZX rewriting each win different Table-1 cells — so running the
``combined`` schedule sequentially makes every pair pay the sum of the
losers before the winner reports.  With ``Configuration.portfolio``
enabled, the manager instead launches every applicable strategy as a
concurrent sandboxed child (via :mod:`repro.harness.race`) under one
shared deadline and SIGKILLs the losers the moment any child returns a
*sound* EQ/NEQ verdict.  ``PROBABLY_EQUIVALENT`` from simulation is
evidence, not proof: it only wins when nothing sound arrives before the
deadline.

The static cost advisor (:func:`repro.analysis.cost.seed_portfolio`)
seeds the race: the predicted winner and the cheap simulation falsifier
launch immediately, the companion strategies stagger in behind a short
head start (:data:`repro.analysis.cost.PORTFOLIO_HEAD_START`; crucial
on few-core machines, where every concurrent child slows the others),
and a lane finishing undecided promotes the next pending launch at
once.  ``stabilizer`` only joins when the gateset pass proves both
circuits Clifford.

Cross-child verdict disagreement — two children both claiming a proof,
with opposite polarity — is a checker bug and surfaces as a hard
:class:`~repro.errors.PortfolioDisagreement`, bypassing every graceful-
degradation path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.permutations import LogicalPair
from repro.ec.results import Equivalence, EquivalenceCheckingResult

#: Preference order among non-sound survivors when the race drains
#: undecided: probabilistic evidence beats "I don't know" beats timeout.
_FALLBACK_RANK = {
    Equivalence.PROBABLY_EQUIVALENT: 0,
    Equivalence.NO_INFORMATION: 1,
    Equivalence.TIMEOUT: 2,
}


def plan_portfolio(pair: LogicalPair, report=None):
    """Build the advisor-seeded launch plan for one pair.

    Reuses the static pre-pass report's profiles and cost estimate when
    the manager already computed them; with ``static_analysis`` off the
    gateset profiling and cost model run here directly (they are single
    passes over the operation lists — far cheaper than one fork).
    """
    from repro.analysis import estimate_cost, profile_gate_set, seed_portfolio

    if report is not None:
        profiles = report.profiles
        estimate = report.estimate
    else:
        profiles = (
            profile_gate_set(pair.circuit1),
            profile_gate_set(pair.circuit2),
        )
        estimate = estimate_cost((pair.circuit1, pair.circuit2), profiles)
    return seed_portfolio(profiles, estimate)


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
    pair: LogicalPair,
    configuration: Configuration,
    start: float,
    deadline: Optional[float],
    report=None,
) -> EquivalenceCheckingResult:
    """Race all applicable strategies; return the winning verdict.

    Args:
        circuit1, circuit2: The input circuits.  Every lane is a manager
            run of its own and derives its logical forms after the fork.
        pair: The parent's logical forms, which the launch plan reads.
        configuration: The manager's configuration (``portfolio=True``,
            ``strategy="combined"``).
        start: The manager's ``time.monotonic()`` reference — the
            returned result's ``time`` covers the whole check including
            the pre-pass, matching the sequential path's accounting.
        deadline: Shared cooperative deadline (monotonic timestamp); the
            racer converts the remainder into the shared hard budget.
        report: The static pre-pass report, when it ran.

    Raises:
        PortfolioDisagreement: Two lanes returned contradictory sound
            verdicts (never swallowed by graceful degradation).
    """
    from repro.harness.race import KILL_LOSER, RaceEntry, race_checks
    from repro.perf import PerfCounters

    counters = PerfCounters()
    counters.count("portfolio.races")
    plan = plan_portfolio(pair, report)
    now = time.monotonic()
    remaining = None if deadline is None else max(0.01, deadline - now)
    # Each lane's cooperative timeout: what is left of the check's.
    lane_timeout = min(
        (t for t in (configuration.timeout, remaining) if t is not None),
        default=None,
    )
    entries = [
        RaceEntry(
            name=slot.strategy,
            configuration=_child_configuration(
                configuration, slot.strategy, lane_timeout
            ),
            delay=slot.delay,
        )
        for slot in plan.slots
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
        # Every lane failed or was killed undecided: degrade like the
        # sequential path would — TIMEOUT when the shared deadline
        # expired, NO_INFORMATION otherwise — keeping the first failure.
        counters.count("portfolio.no_verdict")
        verdict = (
            Equivalence.TIMEOUT
            if outcome.deadline_expired
            else Equivalence.NO_INFORMATION
        )
        failure = next(
            (
                child.error for child in outcome.children
                if child.error is not None
            ),
            None,
        )
        statistics: Dict[str, object] = {}
        if failure is not None:
            statistics["failure"] = failure
        result = EquivalenceCheckingResult(
            verdict, "portfolio", elapsed, statistics
        )

    result.strategy = "portfolio"
    result.time = elapsed
    result.statistics["portfolio"] = {
        "winner": winner,
        "sound": sound,
        "preferred_checker": plan.preferred_checker,
        "rationale": list(plan.rationale),
        "plan": plan.to_dict()["slots"],
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
