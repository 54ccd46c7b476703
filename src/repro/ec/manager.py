"""The equivalence-checking manager: strategy dispatch, timeout, combination.

Mirrors QCEC's front end: construct a manager from two circuits and a
:class:`~repro.ec.configuration.Configuration`, call :meth:`run`.  The
``combined`` strategy reproduces the paper's QCEC setup — "we run the
equivalence checking routine described in Section 4.1 in parallel with a
sequence of 16 simulation runs.  If the simulations manage to prove
non-equivalence of the circuits, the equivalence checking routine is
terminated early."  CPython's GIL makes thread-parallel DD work pointless,
so the reproduction runs the (cheap, falsifying) simulations first and the
(expensive, proving) alternating scheme second, which preserves the
early-exit behaviour the paper's setup achieves through parallelism.

With ``configuration.portfolio`` the combined schedule is replaced by
genuine concurrency: every applicable strategy races in its own
sandboxed child process and the first *sound* verdict wins
(:mod:`repro.ec.portfolio`) — process isolation sidesteps the GIL the
same way QCEC's native threads do.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import AlternatingChecker, ConstructionChecker
from repro.ec.results import (
    Equivalence,
    EquivalenceCheckingResult,
    EquivalenceCheckingTimeout,
)
from repro.ec.sim_checker import simulation_check
from repro.ec.stab_checker import stabilizer_check
from repro.ec.state_checker import state_check
from repro.ec.zx_checker import zx_check


#: Simulation-stage statistics the combined schedule keeps, under
#: ``statistics["simulation"]``, when a later stage decides the pair.
_SIMULATION_KEYS = (
    "simulations_run",
    "first_mismatch",
    "stimuli_digest",
    "active_qubits",
)


class EquivalenceCheckingManager:
    """Runs one equivalence check between two circuits.

    The manager never mutates ``self.configuration``: strategy overrides
    (:meth:`run_single`) are threaded through the dispatch chain as an
    explicit configuration value, so one manager instance is safe to
    drive concurrently — the portfolio racer and the differential fuzz
    oracle both rely on this.
    """

    def __init__(
        self,
        circuit1: QuantumCircuit,
        circuit2: QuantumCircuit,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.circuit1 = circuit1
        self.circuit2 = circuit2
        self.configuration = configuration or Configuration()
        self.configuration.validate()

    def run(self) -> EquivalenceCheckingResult:
        """Execute the configured strategy and return the result.

        With ``configuration.graceful_degradation`` (the default), a
        failing checker never propagates an exception: the failure is
        classified through :mod:`repro.errors` and degraded into a
        ``NO_INFORMATION`` result whose ``statistics["failure"]`` holds
        the structured record — one bad cell must not take down a batch.
        The single exception is a cross-child
        :class:`~repro.errors.PortfolioDisagreement`: two racing
        checkers contradicting each other with sound verdicts is a
        checker bug and always propagates.
        """
        return self._run(self.configuration)

    def run_single(self, strategy: str) -> EquivalenceCheckingResult:
        """Run exactly one named strategy, overriding the configured one.

        The differential fuzzer drives the full strategy matrix through
        this hook: the manager's configuration (timeouts, seeds, table
        bounds) stays authoritative while the strategy choice is swapped
        per call.  The override is threaded through explicitly —
        ``self.configuration`` is never touched, so concurrent
        ``run_single`` calls on one manager cannot race each other.
        Degradation semantics are those of :meth:`run`.
        """
        override = dataclasses.replace(self.configuration, strategy=strategy)
        if strategy != "combined":
            # Portfolio racing only applies to the combined schedule; a
            # single-strategy override runs that one checker directly.
            override = dataclasses.replace(override, portfolio=False)
        override.validate()
        return self._run(override)

    def _run(self, config: Configuration) -> EquivalenceCheckingResult:
        """Shared driver behind :meth:`run` and :meth:`run_single`."""
        start = time.monotonic()
        try:
            return self._run_strategy(config, start)
        except EquivalenceCheckingTimeout:
            return EquivalenceCheckingResult(
                Equivalence.TIMEOUT,
                config.strategy,
                time.monotonic() - start,
            )
        except Exception as exc:
            from repro.errors import PortfolioDisagreement, classify_exception

            if isinstance(exc, PortfolioDisagreement):
                raise  # a checker bug — never swallowed
            if not config.graceful_degradation:
                raise
            return EquivalenceCheckingResult(
                Equivalence.NO_INFORMATION,
                config.strategy,
                time.monotonic() - start,
                {"failure": classify_exception(exc).to_dict()},
            )

    def _run_strategy(
        self, config: Configuration, start: float
    ) -> EquivalenceCheckingResult:
        """Dispatch to the configured checker (exceptions propagate).

        This is the single dispatch seam: both :meth:`run` and
        :meth:`run_single` land here, so the static pre-pass below is
        exercised identically by users and by the differential fuzzer.
        """
        deadline = (
            start + config.timeout if config.timeout is not None else None
        )
        # Fault-injection seam: repro.harness.chaos arms faults that fire
        # here, inside the checker path, after configuration validation —
        # where a real DD/ZX blowup would occur.  Imported lazily to keep
        # repro.ec free of a load-time dependency on the harness layer.
        from repro.harness import chaos

        chaos.maybe_trigger()
        from repro.circuit.symbolic import is_symbolic_circuit

        symbolic = is_symbolic_circuit(self.circuit1) or is_symbolic_circuit(
            self.circuit2
        )
        if config.strategy == "parameterized":
            if symbolic:
                # The parameterized checker owns its whole ladder
                # (symbolic phase polynomial, symbolic ZX, seeded
                # instantiation); the concrete static pre-pass below
                # cannot run on symbolic circuits, so dispatch directly.
                from repro.ec.param_checker import parameterized_check

                return parameterized_check(
                    self.circuit1, self.circuit2, config, deadline
                )
            # A concrete pair under the parameterized strategy is just a
            # concrete check: fall through to the combined machinery.
            config = dataclasses.replace(config, strategy="combined")
        elif symbolic:
            from repro.errors import InvalidInput

            raise InvalidInput(
                "circuits carry symbolic parameters; only "
                "strategy='parameterized' can check them "
                f"(got strategy={config.strategy!r})"
            )
        if config.strategy == "analysis":
            # The standalone static-analysis strategy (also the fuzz
            # oracle's analyzer participant).  Imported lazily like the
            # chaos seam: repro.analysis depends on repro.ec.
            from repro import analysis

            return analysis.analysis_check(
                self.circuit1, self.circuit2, config, deadline
            )
        advice = None
        report = None
        analysis_block: Optional[dict] = None
        # The pre-pass reasons about full unitary equivalence, which the
        # "state" strategy deliberately weakens (states from |0...0>
        # only) — a sound unitary-level NEQ witness could contradict a
        # correct state-level EQUIVALENT verdict, so "state" opts out.
        if config.static_analysis and config.strategy != "state":
            from repro import analysis

            short_circuit, report = analysis.run_prepass(
                self.circuit1, self.circuit2, config, start, deadline
            )
            if short_circuit is not None:
                return short_circuit
            if report is not None:
                advice = report.advice
                analysis_block = report.to_dict()
        if config.portfolio and config.strategy == "combined":
            # Race every applicable strategy in sandboxed children; the
            # first sound verdict wins (repro.ec.portfolio).
            from repro.ec.portfolio import run_portfolio

            result = run_portfolio(
                self.circuit1, self.circuit2, config, start, deadline, report
            )
        else:
            result = self._dispatch_checker(config, start, deadline, advice)
        if analysis_block is not None:
            result.statistics.setdefault("analysis", analysis_block)
        return result

    def _dispatch_checker(
        self,
        config: Configuration,
        start: float,
        deadline: Optional[float],
        advice=None,
    ) -> EquivalenceCheckingResult:
        """Run the configured checker (the pre-pass has already happened)."""
        strategy = config.strategy
        if strategy == "construction":
            return ConstructionChecker(
                self.circuit1, self.circuit2, config
            ).run(deadline)
        if strategy == "alternating":
            return AlternatingChecker(
                self.circuit1, self.circuit2, config
            ).run(deadline)
        if strategy == "simulation":
            return simulation_check(
                self.circuit1, self.circuit2, config, deadline
            )
        if strategy == "zx":
            return zx_check(self.circuit1, self.circuit2, config, deadline)
        if strategy == "stabilizer":
            return stabilizer_check(
                self.circuit1, self.circuit2, config, deadline
            )
        if strategy == "state":
            return state_check(
                self.circuit1, self.circuit2, config, deadline
            )
        return self._run_combined(config, start, deadline, advice)

    def _run_combined(
        self,
        config: Configuration,
        start: float,
        deadline: Optional[float],
        advice=None,
    ) -> EquivalenceCheckingResult:
        """Run the combined schedule: falsify cheaply, then prove.

        The default schedule is simulation (fast falsification) followed
        by the alternating proof.  When the static pre-pass produced
        advice, its schedule is used instead — the advisor only ever
        *prepends* stages (e.g. ``stabilizer`` for Clifford pairs), so
        the historic worst-case behaviour is preserved.  A stage's
        result is final when it is a proof, or a ``NOT_EQUIVALENT``
        falsification from simulation; otherwise the next stage runs.
        """
        schedule = (
            tuple(advice.schedule)
            if advice is not None
            else ("simulation", "alternating")
        )
        simulation: Optional[EquivalenceCheckingResult] = None
        result: Optional[EquivalenceCheckingResult] = None
        for stage in schedule:
            if stage == "simulation":
                result = simulation = simulation_check(
                    self.circuit1, self.circuit2, config, deadline
                )
                if result.equivalence is Equivalence.NOT_EQUIVALENT:
                    break
            elif stage == "alternating":
                result = AlternatingChecker(
                    self.circuit1, self.circuit2, config
                ).run(deadline)
                if result.proven:
                    break
            elif stage == "stabilizer":
                result = stabilizer_check(
                    self.circuit1, self.circuit2, config, deadline
                )
                if result.proven:
                    break
            else:  # pragma: no cover - advisor emits only known stages
                raise ValueError(f"unknown combined stage {stage!r}")
        assert result is not None  # schedules are never empty
        result.strategy = "combined"
        if simulation is not None and simulation is not result:
            # A later stage decided: keep the falsifier's own record.
            stats = simulation.statistics
            result.statistics["simulations_run"] = stats["simulations_run"]
            result.statistics["simulation"] = {
                **{key: stats[key] for key in _SIMULATION_KEYS if key in stats},
                "seconds": simulation.time,
            }
        result.statistics.setdefault("combined_schedule", list(schedule))
        result.time = time.monotonic() - start
        return result
