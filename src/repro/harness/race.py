"""Multi-child racing of sandboxed equivalence checks.

Every entry runs the same circuit pair under its own configuration
(typically one strategy each) in its own forked child
(:class:`repro.harness.child.Child`), all children share one wall-clock
deadline, and the race is decided the moment any child reports a
*sound* verdict — a proof of (non-)equivalence,
:attr:`EquivalenceCheckingResult.proven`.  Losers are SIGKILLed
immediately; probabilistic evidence (``PROBABLY_EQUIVALENT`` from
random stimuli) never terminates the race early and only wins if
nothing sound arrives before the deadline.  The one-shot sandbox,
:func:`repro.harness.sandbox.run_check_isolated`, is a race with one
lane.

Scheduling follows the entry order: the first :data:`STARTING_LANES`
entries start at once, and each lane that ends without a sound verdict
(undecided, failed, killed at its budget, or unable to fork) starts the
next pending entry, so at most that many lanes share the CPUs.

Containment: per-child RLIMIT_AS headroom
(``Configuration.memory_limit_mb``), per-child hard wall budgets, and a
``multiprocessing.connection.wait`` (select/poll) result loop in the
parent.  A lane whose fork fails is ``failed`` with a ``worker_lost``
record and the race goes on with the others.  Every child is joined
before :func:`race_checks` returns — no zombies — and the per-child
bookkeeping (verdicts of completed losers, kill codes, reap states) is
returned for the portfolio statistics block.

Two children returning contradictory sound verdicts is a checker bug,
surfaced as a hard :class:`~repro.errors.PortfolioDisagreement` — never
swallowed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import CheckWorkerLost, InvalidInput, PortfolioDisagreement
from repro.harness.chaos import ChaosSpec
from repro.harness.child import (
    Child,
    check_main,
    classify_death,
    fork_context,
    hard_budget,
)

#: Lanes a race starts at once; every further lane waits for one to end
#: without a sound verdict.
STARTING_LANES = 2

#: Kill codes recorded per child (``None`` = the child was not killed).
KILL_LOSER = "loser"  # a sound verdict arrived elsewhere
KILL_BUDGET = "budget"  # the child blew its own hard wall budget
KILL_DEADLINE = "deadline"  # the shared race deadline expired


@dataclass(frozen=True)
class RaceEntry:
    """One lane of the race.

    Attributes:
        name: Stable label (the strategy name in portfolio races).
        configuration: Full child configuration — strategy, cooperative
            timeout, seeds, ``memory_limit_mb`` (the child's RLIMIT_AS
            headroom).  Validated before any child is forked.
        budget: Hard per-child wall budget in seconds from *launch*
            (SIGKILL on overrun), or ``None`` to derive it from the
            configuration's cooperative timeout plus a grace period.
        chaos: Deterministic fault injected into this child only.
    """

    name: str
    configuration: Configuration
    budget: Optional[float] = None
    chaos: Optional[ChaosSpec] = None

    def validate(self) -> None:
        try:
            self.configuration.validate()
        except ValueError as exc:
            raise InvalidInput(f"entry {self.name!r}: {exc}") from exc
        if self.budget is not None and self.budget <= 0:
            raise InvalidInput(f"entry {self.name!r}: non-positive budget")


@dataclass
class ChildOutcome:
    """Bookkeeping of one lane after the race.

    ``status`` is ``"completed"`` (structured payload received),
    ``"failed"`` (the child reported or suffered a structured failure),
    ``"killed"`` (SIGKILLed before reporting) or ``"skipped"`` (never
    launched — the race was decided first).
    """

    name: str
    status: str
    result: Optional[EquivalenceCheckingResult] = None
    error: Optional[Dict[str, object]] = None
    kill_code: Optional[str] = None
    pid: Optional[int] = None
    exitcode: Optional[int] = None
    launched_after: Optional[float] = None
    wall_seconds: Optional[float] = None
    reaped: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "verdict": (
                self.result.equivalence.value
                if self.result is not None
                else None
            ),
            "error": dict(self.error) if self.error is not None else None,
            "kill_code": self.kill_code,
            "pid": self.pid,
            "exitcode": self.exitcode,
            "launched_after": (
                round(self.launched_after, 6)
                if self.launched_after is not None
                else None
            ),
            "wall_seconds": (
                round(self.wall_seconds, 6)
                if self.wall_seconds is not None
                else None
            ),
            "reaped": self.reaped,
        }


@dataclass
class RaceOutcome:
    """Everything the race produced, in entry order."""

    children: List[ChildOutcome] = field(default_factory=list)
    winner: Optional[str] = None  # name of the first sound child
    elapsed: float = 0.0
    deadline_expired: bool = False
    start_method: str = "fork"

    def outcome(self, name: str) -> ChildOutcome:
        for child in self.children:
            if child.name == name:
                return child
        raise KeyError(name)

    @property
    def winner_result(self) -> Optional[EquivalenceCheckingResult]:
        if self.winner is None:
            return None
        return self.outcome(self.winner).result

    def kill_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for child in self.children:
            if child.kill_code is not None:
                counts[child.kill_code] = counts.get(child.kill_code, 0) + 1
        return counts


class _Lane:
    """Mutable parent-side state of one launched child."""

    __slots__ = ("entry", "outcome", "child", "hard_deadline")

    def __init__(self, entry: RaceEntry, outcome: ChildOutcome) -> None:
        self.entry = entry
        self.outcome = outcome
        self.child: Optional[Child] = None
        self.hard_deadline: Optional[float] = None


def _is_sound(result: Optional[EquivalenceCheckingResult]) -> bool:
    """A verdict that may terminate the race: a proof, not evidence."""
    return result is not None and result.proven


def check_sound_consistency(children: List[ChildOutcome]) -> None:
    """Raise :class:`PortfolioDisagreement` on contradictory sound verdicts.

    A positive proof (``EQUIVALENT`` / up-to-global-phase) next to a
    sound ``NOT_EQUIVALENT`` means one checker is wrong.  Probabilistic
    and no-information verdicts never participate — simulation missing a
    non-equivalence is the expected asymmetry, not a contradiction.
    """
    positives = [
        child
        for child in children
        if _is_sound(child.result)
        and child.result.equivalence is not Equivalence.NOT_EQUIVALENT
    ]
    negatives = [
        child
        for child in children
        if _is_sound(child.result)
        and child.result.equivalence is Equivalence.NOT_EQUIVALENT
    ]
    if positives and negatives:
        raise PortfolioDisagreement(
            "racing checkers returned contradictory sound verdicts",
            positive=positives[0].name,
            negative=negatives[0].name,
            verdicts={
                child.name: child.result.equivalence.value
                for child in children
                if child.result is not None
            },
        )


def race_checks(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    entries: List[RaceEntry],
    shared_budget: Optional[float] = None,
) -> RaceOutcome:
    """Race sandboxed children over one circuit pair; first sound verdict wins.

    Args:
        circuit1, circuit2: The pair every child checks.
        entries: The lanes in the order they start: the first
            :data:`STARTING_LANES` at once, each further one when a lane
            ends without a sound verdict.
        shared_budget: Wall-clock seconds for the whole race, measured
            from the first launch; on expiry every running child is
            SIGKILLed (``deadline`` kill code) and pending entries are
            skipped.  ``None`` = race until decided or all lanes finish.

    Returns:
        A :class:`RaceOutcome` with per-child bookkeeping.  ``winner``
        is the first child whose payload carried a sound verdict, or
        ``None`` when the race drained undecided (callers pick among
        probabilistic/degraded results).

    Raises:
        InvalidInput: An entry failed validation (no child was forked).
        PortfolioDisagreement: Two completed children hold contradictory
            sound verdicts (checked over every payload received, losers
            included).
    """
    if not entries:
        raise InvalidInput("race_checks needs at least one entry")
    names = [entry.name for entry in entries]
    if len(set(names)) != len(names):
        raise InvalidInput(f"duplicate race entry names: {names}")
    for entry in entries:
        entry.validate()

    ctx = fork_context()
    start = time.monotonic()
    race_deadline = None if shared_budget is None else start + shared_budget

    lanes = [
        _Lane(entry, ChildOutcome(name=entry.name, status="skipped"))
        for entry in entries
    ]
    pending: List[_Lane] = list(lanes)
    running: List[_Lane] = []
    deadline_expired = False

    def start_next(now: float) -> None:
        """Start the next pending lane.  A lane that cannot fork fails,
        and the one after it starts in its place."""
        while pending:
            lane = pending.pop(0)
            entry = lane.entry
            try:
                lane.child = Child.spawn(
                    ctx,
                    check_main,
                    (circuit1, circuit2, entry.configuration, entry.chaos),
                )
            except CheckWorkerLost as error:
                lane.outcome.status = "failed"
                lane.outcome.error = error.to_dict()
                continue
            budget = (
                entry.budget
                if entry.budget is not None
                else hard_budget(entry.configuration.timeout)
            )
            lane.hard_deadline = None if budget is None else now + budget
            lane.outcome.status = "running"
            lane.outcome.pid = lane.child.pid
            lane.outcome.launched_after = now - start
            running.append(lane)
            return

    def record_exit(lane: _Lane, now: float) -> None:
        """Record one lane's exit once its child is reaped."""
        lane.outcome.exitcode = lane.child.process.exitcode
        lane.outcome.reaped = lane.outcome.exitcode is not None
        lane.outcome.wall_seconds = now - start - lane.outcome.launched_after

    def settle(lane: _Lane, now: float) -> None:
        """Receive one lane's payload (or its death) and finalize it."""
        running.remove(lane)
        payload = None
        try:
            if lane.child.conn.poll(0):
                payload = lane.child.conn.recv()
        except (EOFError, OSError):
            payload = None
        finally:
            lane.child.reap()
        record_exit(lane, now)
        if payload is None:
            lane.outcome.status = "failed"
            lane.outcome.error = classify_death(
                lane.child.process, "racer child"
            ).to_dict()
        elif payload.get("ok"):
            lane.outcome.status = "completed"
            lane.outcome.result = EquivalenceCheckingResult.from_dict(
                payload["result"]
            )
        else:
            lane.outcome.status = "failed"
            lane.outcome.error = payload["error"]

    def kill(lane: _Lane, code: str, now: float) -> None:
        """SIGKILL one running lane, draining a last-instant payload first."""
        # A payload already sitting in the pipe means the child actually
        # finished — record its verdict (a "completed loser") instead of
        # pretending the kill preempted it.
        try:
            has_payload = lane.child.conn.poll(0)
        except (EOFError, OSError):
            has_payload = False
        if has_payload:
            settle(lane, now)
            return
        running.remove(lane)
        lane.child.kill()
        record_exit(lane, now)
        lane.outcome.status = "killed"
        lane.outcome.kill_code = code

    winner: Optional[str] = None
    try:
        for _ in range(STARTING_LANES):
            start_next(start)
        while running:
            # Sleep until something reports or a budget expires.
            horizons = [
                lane.hard_deadline
                for lane in running
                if lane.hard_deadline is not None
            ]
            if race_deadline is not None:
                horizons.append(race_deadline)
            now = time.monotonic()
            ready = connection_wait(
                [lane.child.conn for lane in running],
                timeout=max(0.0, min(horizons) - now) if horizons else None,
            )
            now = time.monotonic()
            ended_undecided = 0
            for conn in ready:
                lane = next(l for l in running if l.child.conn is conn)
                settle(lane, now)
                if not _is_sound(lane.outcome.result):
                    ended_undecided += 1
                elif winner is None:
                    winner = lane.entry.name
            # Contradictory sound verdicts among everything received so
            # far (the decisive batch may hold several payloads).
            check_sound_consistency([lane.outcome for lane in lanes])
            if winner is not None:
                for lane in list(running):
                    kill(lane, KILL_LOSER, now)
                check_sound_consistency([lane.outcome for lane in lanes])
                break
            # Per-child hard budgets.
            for lane in list(running):
                if (
                    lane.hard_deadline is not None
                    and now >= lane.hard_deadline
                ):
                    kill(lane, KILL_BUDGET, now)
                    ended_undecided += 1
            # Shared race deadline.
            if race_deadline is not None and now >= race_deadline:
                deadline_expired = True
                for lane in list(running):
                    kill(lane, KILL_DEADLINE, now)
                break
            # Each lane that ended without a sound verdict hands its
            # place to the next pending one.
            for _ in range(ended_undecided):
                start_next(now)
    finally:
        # Belt and braces: no child may outlive the race, whatever path
        # exited the loop (including a PortfolioDisagreement raise).
        now = time.monotonic()
        for lane in list(running):
            kill(lane, KILL_DEADLINE if deadline_expired else KILL_LOSER, now)

    return RaceOutcome(
        children=[lane.outcome for lane in lanes],
        winner=winner,
        elapsed=time.monotonic() - start,
        deadline_expired=deadline_expired,
        start_method=ctx.get_start_method(),
    )
