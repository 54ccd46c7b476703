"""One forked child (:mod:`repro.harness.child`): spawn, kill, reap and
classify — and a race that loses one lane to a failed fork."""

import signal
import time

import pytest

from repro.bench.algorithms import ghz_state
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration
from repro.errors import CheckWorkerLost
from repro.harness import child as child_module
from repro.harness.child import Child, classify_death, fork_context
from repro.harness.race import RaceEntry, race_checks
from tests.harness.test_race import assert_no_zombies


def _report_and_exit(conn):
    conn.send("done")


def _sleep(_conn):
    time.sleep(60)


class TestSpawn:
    def test_failed_spawn_closes_both_pipe_ends(
        self, monkeypatch, failing_fork
    ):
        ctx = fork_context()
        real_pipe = ctx.Pipe
        ends = []

        def pipe(duplex=True):
            pair = real_pipe(duplex)
            ends.extend(pair)
            return pair

        monkeypatch.setattr(ctx, "Pipe", pipe)
        failing_fork()
        with pytest.raises(CheckWorkerLost) as info:
            Child.spawn(ctx, _report_and_exit, ())
        assert info.value.transient
        assert len(ends) == 2
        assert all(conn.closed for conn in ends)
        assert_no_zombies()

    def test_child_reports_then_is_reaped(self):
        child = Child.spawn(fork_context(), _report_and_exit, ())
        assert child.conn.recv() == "done"
        child.reap()
        assert child.process.exitcode == 0
        assert child.conn.closed
        assert_no_zombies()


class TestKillAndReap:
    def test_kill_reaps_and_classifies_as_worker_lost(self):
        child = Child.spawn(fork_context(), _sleep, ())
        child.kill()
        assert child.process.exitcode == -signal.SIGKILL
        assert child.conn.closed
        death = classify_death(child.process, "test child")
        assert death.kind == "worker_lost"
        assert death.diagnostics["signal"] == signal.SIGKILL
        assert_no_zombies()

    def test_reap_kills_a_child_that_will_not_exit(self, monkeypatch):
        monkeypatch.setattr(child_module, "_EXIT_SECONDS", 0.2)
        child = Child.spawn(fork_context(), _sleep, ())
        child.reap()
        assert child.process.exitcode == -signal.SIGKILL
        assert_no_zombies()


class TestRaceWithAFailedFork:
    def test_second_lane_fork_fails_first_lane_still_wins(
        self, failing_fork
    ):
        original = ghz_state(6)
        compiled = compile_circuit(original, line_architecture(7))
        entries = [
            RaceEntry(
                name=strategy,
                configuration=Configuration(
                    strategy=strategy, seed=0, timeout=30.0
                ),
            )
            for strategy in ("alternating", "simulation")
        ]
        failing_fork(2)
        outcome = race_checks(original, compiled, entries)
        assert outcome.winner == "alternating"
        assert outcome.winner_result.proven
        lost = outcome.outcome("simulation")
        assert lost.status == "failed"
        assert lost.error["kind"] == "worker_lost"
        assert lost.pid is None
        assert_no_zombies()
