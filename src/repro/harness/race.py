"""Multi-child racing of sandboxed equivalence checks.

Generalizes :func:`repro.harness.sandbox.run_check_isolated` from one
fork-and-wait child into a racer: every entry runs the same circuit pair
under its own configuration (typically one strategy each) in its own
sandboxed child, all children share one wall-clock deadline, and the
race is decided the moment any child reports a *sound* verdict — a
proof of (non-)equivalence, :attr:`EquivalenceCheckingResult.proven`.
Losers are SIGKILLed immediately; probabilistic evidence
(``PROBABLY_EQUIVALENT`` from random stimuli) never terminates the
race early and only wins if nothing sound arrives before the deadline.

Scheduling is a staggered launch plan: each entry carries a ``delay``
relative to the race start (the cost advisor puts the predicted winner
and the cheap simulation falsifier at zero and holds expensive
companions behind a short head start), and whenever a running child
completes *without* deciding the race, the earliest pending entry is
promoted immediately — an idle CPU never waits out a head start.

Containment matches the one-shot sandbox: per-child RLIMIT_AS headroom,
per-child hard wall budgets, and a ``multiprocessing.connection.wait``
(select/poll) result loop in the parent.  Every child is joined before
:func:`race_checks` returns — no zombies — and the per-child
bookkeeping (verdicts of completed losers, kill codes, reap states) is
returned for the portfolio statistics block.

Two children returning contradictory sound verdicts is a checker bug,
surfaced as a hard :class:`~repro.errors.PortfolioDisagreement` — never
swallowed.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import InvalidInput, PortfolioDisagreement, error_from_dict
from repro.harness.chaos import ChaosSpec
from repro.harness.sandbox import (
    _child_main,
    _start_method,
    classify_death,
    DEFAULT_GRACE_SECONDS,
)

#: Upper bound on one poll-loop sleep, so launch times stay responsive.
_MAX_POLL_SECONDS = 0.05

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
            timeout, seeds.  Validated before any child is forked.
        delay: Seconds after race start before this child launches
            (subject to early promotion when a lane frees up).
        budget: Hard per-child wall budget in seconds from *launch*
            (SIGKILL on overrun), or ``None`` to derive it from the
            configuration's cooperative timeout plus a grace period.
        memory_mb: RLIMIT_AS headroom for this child, in MiB.
        chaos: Deterministic fault injected into this child only.
    """

    name: str
    configuration: Configuration
    delay: float = 0.0
    budget: Optional[float] = None
    memory_mb: Optional[int] = None
    chaos: Optional[ChaosSpec] = None

    def validate(self) -> None:
        try:
            self.configuration.validate()
        except ValueError as exc:
            raise InvalidInput(f"entry {self.name!r}: {exc}") from exc
        if self.delay < 0:
            raise InvalidInput(f"entry {self.name!r}: negative delay")
        if self.budget is not None and self.budget <= 0:
            raise InvalidInput(f"entry {self.name!r}: non-positive budget")

    def hard_budget(self) -> Optional[float]:
        """Per-child SIGKILL budget in seconds from launch."""
        if self.budget is not None:
            return self.budget
        if self.configuration.timeout is not None:
            return self.configuration.timeout + DEFAULT_GRACE_SECONDS
        return None


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

    __slots__ = ("entry", "outcome", "process", "conn", "launched_at",
                 "hard_deadline")

    def __init__(self, entry: RaceEntry, outcome: ChildOutcome) -> None:
        self.entry = entry
        self.outcome = outcome
        self.process = None
        self.conn = None
        self.launched_at: Optional[float] = None
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
        entries: Launch plan, in schedule order.  Entry ``delay`` values
            stagger launches; a pending entry is promoted early whenever
            a running child completes without deciding the race.
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

    ctx = multiprocessing.get_context(_start_method())
    start = time.monotonic()
    race_deadline = None if shared_budget is None else start + shared_budget

    lanes = [
        _Lane(entry, ChildOutcome(name=entry.name, status="skipped"))
        for entry in entries
    ]
    pending: List[_Lane] = list(lanes)
    launch_at: Dict[str, float] = {
        lane.entry.name: start + lane.entry.delay for lane in lanes
    }
    running: List[_Lane] = []
    decided = False
    deadline_expired = False

    def launch(lane: _Lane, now: float) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                circuit1,
                circuit2,
                lane.entry.configuration,
                lane.entry.memory_mb,
                lane.entry.chaos.to_dict()
                if lane.entry.chaos is not None
                else None,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        lane.process = process
        lane.conn = parent_conn
        lane.launched_at = now
        budget = lane.entry.hard_budget()
        lane.hard_deadline = None if budget is None else now + budget
        lane.outcome.status = "running"
        lane.outcome.pid = process.pid
        lane.outcome.launched_after = now - start
        running.append(lane)

    def settle(lane: _Lane, now: float) -> None:
        """Receive one lane's payload (or its death) and finalize it."""
        running.remove(lane)
        payload = None
        try:
            if lane.conn.poll(0):
                payload = lane.conn.recv()
        except (EOFError, OSError):
            payload = None
        lane.process.join(5.0)
        if lane.process.is_alive():  # pragma: no cover - kill is final
            lane.process.kill()
            lane.process.join(1.0)
        lane.outcome.exitcode = lane.process.exitcode
        lane.outcome.reaped = lane.process.exitcode is not None
        lane.outcome.wall_seconds = now - lane.launched_at
        lane.conn.close()
        if payload is None:
            lane.outcome.status = "failed"
            lane.outcome.error = classify_death(
                lane.process, "racer child"
            ).to_dict()
        elif payload.get("ok"):
            lane.outcome.status = "completed"
            lane.outcome.result = EquivalenceCheckingResult.from_dict(
                payload["result"]
            )
        else:
            lane.outcome.status = "failed"
            error = payload.get("error")
            lane.outcome.error = (
                dict(error) if isinstance(error, dict) else
                error_from_dict({}).to_dict()
            )

    def kill(lane: _Lane, code: str, now: float) -> None:
        """SIGKILL one running lane, draining a last-instant payload first."""
        # A payload already sitting in the pipe means the child actually
        # finished — record its verdict (a "completed loser") instead of
        # pretending the kill preempted it.
        try:
            has_payload = lane.conn.poll(0)
        except (EOFError, OSError):
            has_payload = False
        if has_payload:
            settle(lane, now)
            return
        lane.process.kill()
        running.remove(lane)
        lane.process.join(5.0)
        lane.outcome.status = "killed"
        lane.outcome.kill_code = code
        lane.outcome.exitcode = lane.process.exitcode
        lane.outcome.reaped = lane.process.exitcode is not None
        lane.outcome.wall_seconds = now - lane.launched_at
        lane.conn.close()

    winner: Optional[str] = None
    try:
        while running or (pending and not decided and not deadline_expired):
            now = time.monotonic()
            # Launch every pending lane whose time has come.
            if not decided and not deadline_expired:
                due = [
                    lane for lane in pending
                    if launch_at[lane.entry.name] <= now
                ]
                for lane in due:
                    pending.remove(lane)
                    launch(lane, now)
            if not running:
                if decided or deadline_expired:
                    break
                # Nothing running yet: sleep until the next launch.
                next_launch = min(
                    launch_at[lane.entry.name] for lane in pending
                )
                time.sleep(
                    min(max(0.0, next_launch - now), _MAX_POLL_SECONDS)
                )
                continue
            # Sleep until something reports, a budget expires, or the
            # next pending launch is due — whichever comes first.
            horizons = [now + _MAX_POLL_SECONDS]
            if race_deadline is not None:
                horizons.append(race_deadline)
            horizons.extend(
                lane.hard_deadline
                for lane in running
                if lane.hard_deadline is not None
            )
            if pending and not decided:
                horizons.append(
                    min(launch_at[lane.entry.name] for lane in pending)
                )
            timeout = max(0.0, min(horizons) - now)
            ready = connection_wait(
                [lane.conn for lane in running], timeout=timeout
            )
            now = time.monotonic()
            finished_without_decision = 0
            for conn in ready:
                lane = next(l for l in running if l.conn is conn)
                settle(lane, now)
                if _is_sound(lane.outcome.result):
                    decided = True
                    if winner is None:
                        winner = lane.entry.name
                else:
                    finished_without_decision += 1
            # Contradictory sound verdicts among everything received so
            # far (the decisive batch may hold several payloads).
            check_sound_consistency([lane.outcome for lane in lanes])
            if decided:
                for lane in list(running):
                    kill(lane, KILL_LOSER, now)
                check_sound_consistency([lane.outcome for lane in lanes])
                pending.clear()
                break
            # Per-child hard budgets.
            for lane in list(running):
                if (
                    lane.hard_deadline is not None
                    and now >= lane.hard_deadline
                ):
                    kill(lane, KILL_BUDGET, now)
                    finished_without_decision += 1
            # Shared race deadline.
            if race_deadline is not None and now >= race_deadline:
                deadline_expired = True
                for lane in list(running):
                    kill(lane, KILL_DEADLINE, now)
                pending.clear()
                break
            # Early promotion: freed lanes pull the next pending launch
            # forward so a head start never idles the machine.
            for _ in range(finished_without_decision):
                waiting = [
                    lane for lane in pending
                    if launch_at[lane.entry.name] > now
                ]
                if not waiting:
                    break
                promoted = min(
                    waiting, key=lambda lane: launch_at[lane.entry.name]
                )
                launch_at[promoted.entry.name] = now
    finally:
        # Belt and braces: no child may outlive the race, whatever path
        # exited the loop (including a PortfolioDisagreement raise).
        now = time.monotonic()
        for lane in list(running):
            kill(lane, KILL_DEADLINE if deadline_expired else KILL_LOSER, now)
        for lane in lanes:
            if lane.process is not None and lane.process.exitcode is None:
                lane.process.join(1.0)  # pragma: no cover - settled above
                lane.outcome.exitcode = lane.process.exitcode
                lane.outcome.reaped = lane.process.exitcode is not None

    return RaceOutcome(
        children=[lane.outcome for lane in lanes],
        winner=winner,
        elapsed=time.monotonic() - start,
        deadline_expired=deadline_expired,
        start_method=ctx.get_start_method(),
    )
