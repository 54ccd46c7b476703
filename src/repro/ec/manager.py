"""The equivalence-checking manager: strategy dispatch, timeout, combination.

Mirrors QCEC's front end: construct a manager from two circuits and a
:class:`~repro.ec.configuration.Configuration`, call :meth:`run`, which
degrades every failure into a result (:meth:`check`, for the harness,
raises all but a timeout).  The
``combined`` strategy reproduces the paper's QCEC setup — "we run the
equivalence checking routine described in Section 4.1 in parallel with a
sequence of 16 simulation runs.  If the simulations manage to prove
non-equivalence of the circuits, the equivalence checking routine is
terminated early."  Both of its executors run one plan, the lanes
:func:`~repro.ec.portfolio.plan` lays out from one proven fact: whether
the static pre-pass proved both circuits Clifford.

CPython's GIL makes thread-parallel DD work pointless, so the sequential
executor walks the plan's lanes in order until one proves: the (cheap,
falsifying) simulations before the (expensive, proving) alternating
scheme, which preserves the early-exit behaviour the paper's setup
achieves through parallelism.  When every stimulus agrees, the
alternating proof runs priced against the basis columns the stimuli left
undrawn, and hands a narrow register over to them once they are measured
to cost less: all ``2^w`` basis columns prove equivalence as the
alternating proof does (:mod:`repro.ec.sim_checker`).

With ``configuration.portfolio`` the plan runs with genuine concurrency:
its lanes race in sandboxed child processes, two at a time, and the
first *sound* verdict wins (:mod:`repro.ec.portfolio`) — process
isolation sidesteps the GIL the same way QCEC's native threads do.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import AlternatingChecker, ConstructionChecker
from repro.ec.permutations import LogicalPair, logical_pair
from repro.ec.portfolio import plan
from repro.ec.results import EquivalenceCheckingResult
from repro.ec.sim_checker import ColumnChecker, simulation_check, state_check
from repro.ec.stab_checker import stabilizer_check
from repro.ec.zx_checker import zx_check
from repro.errors import (
    CheckTimeout,
    InvalidInput,
    PortfolioDisagreement,
    classify_exception,
)


#: Simulation-stage statistics the combined schedule keeps, under
#: ``statistics["simulation"]``, when a later stage decides the pair.
_SIMULATION_KEYS = (
    "simulations_run",
    "first_mismatch",
    "stimuli_digest",
    "active_qubits",
    "perf",
)


class EquivalenceCheckingManager:
    """Runs one equivalence check between two circuits.

    The manager never mutates ``self.configuration``: a derived
    configuration (the ``parameterized`` strategy on a concrete pair) is
    threaded through the dispatch chain as an explicit value, so one
    manager instance is safe to drive more than once.
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
        """Execute the configured strategy; never raises on a failed check.

        :meth:`check`, with every failure it raises classified through
        :mod:`repro.errors` and degraded into a ``NO_INFORMATION`` result
        whose ``statistics["failure"]`` holds the record — one bad cell
        must not take down a batch.  The single exception is a
        cross-child :class:`~repro.errors.PortfolioDisagreement`: two
        racing checkers contradicting each other with sound verdicts is
        a checker bug and always propagates.
        """
        start = time.monotonic()
        try:
            return self.check()
        except PortfolioDisagreement:
            raise
        except Exception as exc:
            return EquivalenceCheckingResult.failed(
                classify_exception(exc),
                self.configuration.strategy,
                time.monotonic() - start,
            )

    def check(self) -> EquivalenceCheckingResult:
        """Execute the configured strategy; raise what fails.

        A cooperative timeout is an outcome, not a failure: it returns
        as ``TIMEOUT`` with its :class:`~repro.errors.CheckTimeout`
        record.  The single dispatch seam: it derives the pair's logical
        forms once, for every stage, and reports their SWAP bookkeeping
        under ``statistics["permutations"]``.
        """
        # Fault-injection seam: repro.harness.chaos arms faults that fire
        # here, inside the checker path, after configuration validation —
        # where a real DD/ZX blowup would occur.  Imported lazily to keep
        # repro.ec free of a load-time dependency on the harness layer.
        from repro.harness import chaos

        config = self.configuration
        start = time.monotonic()
        deadline = (
            start + config.timeout if config.timeout is not None else None
        )
        try:
            chaos.maybe_trigger()
            # A malformed layout raises ValueError here.
            pair = logical_pair(self.circuit1, self.circuit2)
            result = self._check_pair(pair, config, start, deadline)
        except CheckTimeout as error:
            return EquivalenceCheckingResult.failed(
                error, config.strategy, time.monotonic() - start
            )
        result.statistics["permutations"] = pair.statistics
        return result

    def _check_pair(
        self,
        pair: LogicalPair,
        config: Configuration,
        start: float,
        deadline: Optional[float],
    ) -> EquivalenceCheckingResult:
        """Run the pre-pass and the configured strategy on one pair."""
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
                    pair, self.circuit1, self.circuit2, config, deadline
                )
            # A concrete pair under the parameterized strategy is just a
            # concrete check: fall through to the combined machinery.
            config = dataclasses.replace(config, strategy="combined")
        elif symbolic:
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

            return analysis.analysis_check(pair, deadline)
        clifford = False
        analysis_block: Optional[dict] = None
        # The pre-pass reasons about full unitary equivalence, which the
        # "state" strategy deliberately weakens (states from |0...0>
        # only) — a sound unitary-level NEQ witness could contradict a
        # correct state-level EQUIVALENT verdict, so "state" opts out.
        if config.static_analysis and config.strategy != "state":
            from repro import analysis

            short_circuit, report = analysis.run_prepass(
                pair, config, start, deadline
            )
            if short_circuit is not None:
                return short_circuit
            if report is not None:
                clifford = report.clifford
                analysis_block = report.to_dict()
        lanes = plan(clifford)
        if config.strategy != "combined":
            result = _run_checker(config.strategy, pair, config, deadline)
        elif config.portfolio:
            # Race the lanes in sandboxed children; the first sound
            # verdict wins (repro.ec.portfolio).
            from repro.ec.portfolio import run_portfolio

            result = run_portfolio(
                self.circuit1, self.circuit2, lanes, config, start, deadline
            )
        else:
            result = self._run_combined(pair, config, start, deadline, lanes)
        if analysis_block is not None:
            result.statistics.setdefault("analysis", analysis_block)
        return result

    def _run_combined(
        self,
        pair: LogicalPair,
        config: Configuration,
        start: float,
        deadline: Optional[float],
        lanes: Tuple[str, ...],
    ) -> EquivalenceCheckingResult:
        """Run the combined schedule: the lanes in order until a proof.

        A stage's result is final when it is a proof; a ``NOT_EQUIVALENT``
        falsification from the stimuli is one.  Otherwise the next stage
        runs.  The alternating proof always decides, so the ``zx`` and
        ``construction`` lanes behind it only ever run in the race.
        ``statistics["combined_schedule"]`` lists the stages that ran.

        The simulation stage hands its columns to the alternating proof,
        which may hand the check back to them: when the basis columns
        the stimuli left undrawn are measured to cost less than the
        proof, they decide on all ``2^w`` columns instead
        (:meth:`AlternatingChecker.run`).  ``statistics["columns"]``
        says which proof decided.
        """
        ran: List[str] = []
        simulation: Optional[EquivalenceCheckingResult] = None
        columns: Optional[ColumnChecker] = None
        for stage in lanes:
            ran.append(stage)
            if stage == "simulation":
                columns = ColumnChecker(pair, config)
                result = simulation = simulation_check(
                    pair, config, deadline, columns
                )
            else:
                result = _run_checker(stage, pair, config, deadline, columns)
            if result.proven:
                break
        result.strategy = "combined"
        if simulation is not None and simulation is not result:
            # A later stage decided: keep the falsifier's own record.
            stats = simulation.statistics
            result.statistics["simulations_run"] = stats["simulations_run"]
            result.statistics["simulation"] = {
                **{key: stats[key] for key in _SIMULATION_KEYS if key in stats},
                "seconds": simulation.time,
            }
        result.statistics["combined_schedule"] = ran
        result.time = time.monotonic() - start
        return result


def _run_checker(
    strategy: str,
    pair: LogicalPair,
    config: Configuration,
    deadline: Optional[float],
    columns: Optional[ColumnChecker] = None,
) -> EquivalenceCheckingResult:
    """Run one checker on the pair (the pre-pass has already happened).

    ``columns`` is the simulation stage's column checker, which the
    combined schedule hands to the alternating proof.  The checkers are
    looked up as module globals at call time.
    """
    if strategy == "construction":
        return ConstructionChecker(pair, config).run(deadline)
    if strategy == "alternating":
        return AlternatingChecker(pair, config).run(deadline, columns)
    if strategy == "simulation":
        return simulation_check(pair, config, deadline)
    if strategy == "zx":
        return zx_check(pair, deadline)
    if strategy == "stabilizer":
        return stabilizer_check(pair, deadline)
    if strategy == "state":
        return state_check(pair, deadline)
    raise ValueError(f"unknown strategy {strategy!r}")
