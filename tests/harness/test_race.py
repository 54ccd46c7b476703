"""Multi-child racing (:mod:`repro.harness.race`): winner selection,
loser kills, lane scheduling, chaos containment, budgets, and
zombie-free bookkeeping."""

import multiprocessing
import os

import pytest

from repro.bench.algorithms import ghz_state
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import CheckWorkerLost, InvalidInput, PortfolioDisagreement
from repro.harness.chaos import ChaosSpec
from repro.harness.child import Child
from repro.harness.race import (
    KILL_BUDGET,
    KILL_DEADLINE,
    KILL_LOSER,
    STARTING_LANES,
    ChildOutcome,
    RaceEntry,
    check_sound_consistency,
    race_checks,
)

@pytest.fixture(scope="module")
def tiny_pair():
    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(7))
    return original, compiled


def _config(strategy="alternating", timeout=30.0, **overrides):
    return Configuration(strategy=strategy, seed=0, timeout=timeout,
                         **overrides)


def _entry(name, strategy=None, **overrides):
    return RaceEntry(
        name=name,
        configuration=_config(strategy or name),
        **overrides,
    )


def assert_no_zombies():
    """The parent holds no unreaped child after a race.

    ``os.waitpid(-1, WNOHANG)`` returns a pid only when a zombie is
    waiting to be reaped; ``(0, 0)`` (live children, none exited) and
    ``ChildProcessError`` (no children at all) are both clean states.
    """
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = 0
    assert pid == 0
    assert multiprocessing.active_children() == []


class TestBasicRace:
    def test_sound_winner_kills_no_one_left_running(self, tiny_pair):
        """Alternating proves the pair; simulation's probabilistic verdict
        never decides the race."""
        outcome = race_checks(
            *tiny_pair,
            [_entry("alternating"), _entry("simulation")],
        )
        assert outcome.winner == "alternating"
        result = outcome.winner_result
        assert result is not None and result.proven
        for child in outcome.children:
            assert child.status in ("completed", "killed")
            assert child.reaped
            assert child.pid is not None
        assert_no_zombies()

    def test_simulation_falsifier_wins_on_non_equivalent_pair(self, tiny_pair):
        """NOT_EQUIVALENT from random stimuli is sound and ends the race."""
        from repro.bench.errors import flip_random_cnot

        original, compiled = tiny_pair
        broken = flip_random_cnot(compiled, seed=1)
        outcome = race_checks(
            original, broken, [_entry("simulation"), _entry("alternating")]
        )
        assert outcome.winner is not None
        assert (
            outcome.winner_result.equivalence is Equivalence.NOT_EQUIVALENT
        )
        assert_no_zombies()


def _hung(name="hung", budget=120.0):
    """A lane that never reports: killed as a loser, or at ``budget``."""
    return RaceEntry(
        name=name,
        configuration=_config("construction"),
        budget=budget,
        chaos=ChaosSpec(mode="hang"),
    )


@pytest.mark.chaos
class TestLaneScheduling:
    def test_two_lanes_start_and_the_third_waits(self, tiny_pair):
        """The first two lanes decide the race; the third never starts."""
        assert STARTING_LANES == 2
        outcome = race_checks(
            *tiny_pair,
            [_entry("alternating"), _hung(), _entry("construction")],
        )
        assert outcome.winner == "alternating"
        assert outcome.outcome("alternating").launched_after == 0.0
        assert outcome.outcome("hung").kill_code == KILL_LOSER
        late = outcome.outcome("construction")
        assert late.status == "skipped"
        assert late.pid is None
        assert late.kill_code is None
        assert_no_zombies()

    @pytest.mark.parametrize(
        "first, status",
        [
            # Random stimuli end undecided: PROBABLY_EQUIVALENT.
            (_entry("simulation"), "completed"),
            (
                RaceEntry(
                    name="crashing",
                    configuration=_config("alternating"),
                    chaos=ChaosSpec(mode="crash"),
                ),
                "failed",
            ),
            (_hung("over_budget", budget=0.3), "killed"),
        ],
        ids=["undecided", "failed", "budget"],
    )
    def test_a_third_lane_starts_when_a_lane_ends_undecided(
        self, tiny_pair, first, status
    ):
        """Whatever way the first lane ends without a proof, the third
        starts at that moment, decides, and the hung second lane loses."""
        outcome = race_checks(
            *tiny_pair, [first, _hung(), _entry("alternating")]
        )
        ended = outcome.outcome(first.name)
        assert ended.status == status
        assert ended.result is None or not ended.result.proven
        third = outcome.outcome("alternating")
        assert third.launched_after == pytest.approx(
            ended.launched_after + ended.wall_seconds
        )
        assert outcome.winner == "alternating"
        assert outcome.outcome("hung").kill_code == KILL_LOSER
        assert_no_zombies()

    def test_a_lane_that_cannot_fork_starts_the_next(
        self, tiny_pair, monkeypatch
    ):
        spawn = Child.spawn
        calls = []

        def first_fork_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise CheckWorkerLost("fork failed: injected", errno=11)
            return spawn(*args, **kwargs)

        monkeypatch.setattr(Child, "spawn", first_fork_fails)
        outcome = race_checks(
            *tiny_pair,
            [
                _entry("lost", "alternating"),
                _hung(),
                _entry("alternating"),
                _entry("construction"),
            ],
        )
        lost = outcome.outcome("lost")
        assert lost.status == "failed"
        assert lost.error["kind"] == "worker_lost"
        assert lost.pid is None
        # The third lane starts at once in the lost lane's place; the
        # fourth waits for a lane to end and never starts.
        assert outcome.outcome("alternating").launched_after == 0.0
        assert outcome.winner == "alternating"
        assert outcome.outcome("hung").kill_code == KILL_LOSER
        assert outcome.outcome("construction").status == "skipped"
        assert_no_zombies()


@pytest.mark.chaos
class TestChaosContainment:
    def test_hanging_loser_does_not_delay_the_winner(self, tiny_pair):
        """One lane hangs forever; the sound winner still decides the race
        promptly and the hung child is SIGKILLed as a loser."""
        hung = RaceEntry(
            name="hung",
            configuration=_config("construction"),
            budget=120.0,  # far beyond the winner's runtime
            chaos=ChaosSpec(mode="hang"),
        )
        outcome = race_checks(
            *tiny_pair, [_entry("alternating"), hung]
        )
        assert outcome.winner == "alternating"
        assert outcome.winner_result.proven
        loser = outcome.outcome("hung")
        assert loser.status == "killed"
        assert loser.kill_code == KILL_LOSER
        assert loser.reaped
        # The hang must not have stalled the race: the winner needs well
        # under its 30 s cooperative timeout, let alone the hung lane's
        # 120 s budget.
        assert outcome.elapsed < 20.0
        assert_no_zombies()

    def test_crashing_lane_fails_structured_winner_unaffected(self, tiny_pair):
        crashing = RaceEntry(
            name="crashing",
            configuration=_config("construction"),
            chaos=ChaosSpec(mode="crash"),
        )
        outcome = race_checks(
            *tiny_pair, [_entry("alternating"), crashing]
        )
        assert outcome.winner == "alternating"
        crashed = outcome.outcome("crashing")
        assert crashed.status in ("failed", "killed")
        if crashed.status == "failed":
            assert crashed.error is not None
            assert "kind" in crashed.error
        assert crashed.reaped
        assert_no_zombies()

    def test_per_child_budget_kill(self, tiny_pair):
        hung = RaceEntry(
            name="hung",
            configuration=_config("alternating"),
            budget=0.4,
            chaos=ChaosSpec(mode="hang"),
        )
        outcome = race_checks(*tiny_pair, [hung])
        assert outcome.winner is None
        child = outcome.outcome("hung")
        assert child.status == "killed"
        assert child.kill_code == KILL_BUDGET
        assert child.reaped
        assert not outcome.deadline_expired
        assert_no_zombies()

    def test_shared_deadline_kills_every_running_lane(self, tiny_pair):
        entries = [
            RaceEntry(
                name=name,
                configuration=_config("alternating", timeout=None),
                chaos=ChaosSpec(mode="hang"),
            )
            for name in ("first", "second")
        ]
        outcome = race_checks(*tiny_pair, entries, shared_budget=0.5)
        assert outcome.winner is None
        assert outcome.deadline_expired
        for child in outcome.children:
            assert child.status == "killed"
            assert child.kill_code == KILL_DEADLINE
            assert child.reaped
        assert_no_zombies()


class TestSoundConsistency:
    @staticmethod
    def _completed(name, verdict):
        return ChildOutcome(
            name=name,
            status="completed",
            result=EquivalenceCheckingResult(verdict, name, 0.0),
        )

    def test_contradictory_proofs_raise(self):
        children = [
            self._completed("zx", Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE),
            self._completed("simulation", Equivalence.NOT_EQUIVALENT),
        ]
        with pytest.raises(PortfolioDisagreement) as info:
            check_sound_consistency(children)
        assert info.value.transient is False
        assert info.value.diagnostics["positive"] == "zx"
        assert info.value.diagnostics["negative"] == "simulation"

    def test_probabilistic_evidence_never_contradicts(self):
        """PROBABLY_EQUIVALENT next to a sound NOT_EQUIVALENT is the
        expected simulation asymmetry, not a checker bug."""
        check_sound_consistency([
            self._completed("simulation", Equivalence.PROBABLY_EQUIVALENT),
            self._completed("alternating", Equivalence.NOT_EQUIVALENT),
        ])

    def test_agreeing_proofs_are_fine(self):
        check_sound_consistency([
            self._completed("alternating", Equivalence.EQUIVALENT),
            self._completed("zx", Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE),
        ])


class TestValidation:
    def test_empty_entry_list(self, tiny_pair):
        with pytest.raises(InvalidInput):
            race_checks(*tiny_pair, [])

    def test_duplicate_names(self, tiny_pair):
        with pytest.raises(InvalidInput):
            race_checks(
                *tiny_pair, [_entry("alternating"), _entry("alternating")]
            )

    def test_non_positive_budget(self, tiny_pair):
        with pytest.raises(InvalidInput):
            race_checks(*tiny_pair, [_entry("alternating", budget=0.0)])

    def test_invalid_child_configuration(self, tiny_pair):
        entry = RaceEntry(
            name="bad", configuration=Configuration(strategy="alternating",
                                                    timeout=-5.0)
        )
        with pytest.raises(InvalidInput):
            race_checks(*tiny_pair, [entry])
