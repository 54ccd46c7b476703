"""The ``parameterized`` strategy: symbolic-first, instantiate-fallback.

Variational workloads (VQE ansätze and friends) carry free rotation
parameters, which none of the concrete checkers can express.  Following
mqt-qcec's ``parameterized.py`` flow and Hong et al.'s symbolic ZX
treatment, the checker runs a ladder of increasingly expensive paths:

1. **Symbolic phase polynomial** — both circuits canonicalized over the
   {CNOT, X, Rz} fragment with exact :class:`~repro.circuit.symbolic.
   ParamExpr` angle accumulation.  An affine-map mismatch or a purely
   numeric relative-phase defect is a *valuation-independent* sound
   ``NOT_EQUIVALENT``; exact symbolic cancellation of every term is a
   sound ``EQUIVALENT_UP_TO_GLOBAL_PHASE`` for **all** valuations.
2. **Symbolic ZX** — the ordinary :func:`repro.ec.zx_checker.zx_check`
   miter with :class:`~repro.zx.phase.SymbolicPhase` spider phases.
   Every rewrite the engine may apply to a symbolic spider holds for
   arbitrary phase values (fusion, identity removal, Hopf/π-copy), and
   the Clifford-specific rules skip symbolic spiders by construction,
   so a reduction to the identity diagram proves equivalence for every
   valuation.  A ``NOT_EQUIVALENT`` from this path (empty diagram or
   residual wire permutation) is likewise valuation-independent.
3. **Random instantiation** — seeded valuations are substituted into
   both circuits and each concrete pair dispatched through the existing
   :func:`repro.harness.run_check` machinery (static analysis, combined
   schedule, sandboxing, retries — everything concrete checks get).
   ``NOT_EQUIVALENT`` at *any* valuation is a sound witness, recorded
   in the statistics; agreement at every valuation yields
   ``PROBABLY_EQUIVALENT`` — evidence, not proof, exactly like the
   simulation strategy's asymmetry in the paper's Section 6.2.

The remaining wall-clock budget is re-split before every instantiation
(``remaining / instantiations_left``, mqt-qcec's ``__adjust_timeout``),
so an early slow valuation cannot starve the rest of the schedule.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.phasepoly import phase_polynomial_check
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.symbolic import circuit_parameters, instantiate_circuit
from repro.ec.configuration import Configuration
from repro.ec.permutations import LogicalPair
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.ec.zx_checker import zx_check
from repro.errors import CheckTimeout, check_deadline

_TWO_PI = 6.283185307179586

#: The strategy name this checker reports.
STRATEGY = "parameterized"


def draw_valuations(
    variables: Tuple[str, ...],
    count: int,
    seed: Optional[int],
) -> List[Dict[str, float]]:
    """``count`` seeded uniform valuations over ``variables``.

    Angles are drawn from ``[0, 2π)`` — every gate angle is 2π-periodic,
    so this covers the full parameter space.
    """
    rng = random.Random(seed)
    return [
        {name: rng.uniform(0.0, _TWO_PI) for name in variables}
        for _ in range(count)
    ]


def _instantiation_timeout(
    deadline: Optional[float], remaining_checks: int
) -> Optional[float]:
    """Fair share of the remaining budget for the next instantiation."""
    if deadline is None:
        return None
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return 0.001  # force an immediate cooperative timeout downstream
    return max(remaining / max(1, remaining_checks), 0.001)


def check_instantiated_random(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    deadline: Optional[float] = None,
    variables: Optional[Tuple[str, ...]] = None,
) -> Tuple[Equivalence, Dict[str, object]]:
    """Dispatch seeded concrete instantiations through ``run_check``.

    Returns ``(verdict, stats)``; a ``NOT_EQUIVALENT`` at any valuation
    carries the witness valuation in ``stats["witness_valuation"]``.
    """
    from repro.harness import run_check

    if variables is None:
        variables = tuple(
            sorted(
                set(circuit_parameters(circuit1))
                | set(circuit_parameters(circuit2))
            )
        )
    count = configuration.num_instantiations
    valuations = draw_valuations(variables, count, configuration.seed)
    sub_base = dataclasses.replace(
        configuration,
        strategy="combined",
        portfolio=False,
    )
    outcomes: List[str] = []
    stats: Dict[str, object] = {
        "instantiations_requested": count,
        "outcomes": outcomes,
    }
    positives = 0
    undecided = 0
    timeouts = 0
    for index, valuation in enumerate(valuations):
        check_deadline(deadline)
        inst1 = instantiate_circuit(circuit1, valuation)
        inst2 = instantiate_circuit(circuit2, valuation)
        sub_config = dataclasses.replace(
            sub_base,
            timeout=_instantiation_timeout(deadline, count - index),
        )
        result = run_check(inst1, inst2, sub_config, isolate=False)
        outcomes.append(result.equivalence.value)
        if result.equivalence is Equivalence.NOT_EQUIVALENT:
            stats["witness_valuation"] = dict(valuation)
            stats["witness_index"] = index
            stats["instantiations_run"] = index + 1
            return Equivalence.NOT_EQUIVALENT, stats
        if result.considered_equivalent:
            positives += 1
        elif result.equivalence is Equivalence.TIMEOUT:
            timeouts += 1
        else:
            undecided += 1
    stats["instantiations_run"] = len(valuations)
    if positives == len(valuations) and valuations:
        # Every valuation agreed — strong evidence, never a proof.
        return Equivalence.PROBABLY_EQUIVALENT, stats
    if timeouts and not positives and not undecided:
        return Equivalence.TIMEOUT, stats
    return Equivalence.NO_INFORMATION, stats


def parameterized_check(
    pair: LogicalPair,
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Check two (symbolically) parameterized circuits for equivalence.

    The symbolic paths read ``pair``, the logical forms of ``circuit1``
    and ``circuit2``.  The instantiation fallback instantiates the two
    input circuits themselves, so each instantiated check is exactly the
    concrete check of that valuation.
    """
    config = configuration or Configuration()
    start = time.monotonic()
    variables = tuple(
        sorted(
            set(circuit_parameters(circuit1))
            | set(circuit_parameters(circuit2))
        )
    )
    stats: Dict[str, object] = {"variables": list(variables)}

    def finish(
        equivalence: Equivalence, path: str
    ) -> EquivalenceCheckingResult:
        stats["path"] = path
        elapsed = time.monotonic() - start
        if equivalence is Equivalence.TIMEOUT:
            result = EquivalenceCheckingResult.failed(
                CheckTimeout("every instantiation timed out", hard=False),
                STRATEGY,
                elapsed,
            )
        else:
            result = EquivalenceCheckingResult(equivalence, STRATEGY, elapsed)
        result.statistics["parameterized"] = stats
        return result

    if config.parameterized_symbolic:
        # Path 1: symbolic phase polynomial over the logical forms.
        check_deadline(deadline)
        verdict, details = phase_polynomial_check(pair.circuit1, pair.circuit2)
        stats["phase_polynomial"] = details
        if verdict == "not_equivalent":
            # Affine-map mismatch or purely numeric phase defect — both
            # independent of the parameter valuation, so any valuation
            # (all-zeros is the canonical one) witnesses it.
            stats["witness_valuation"] = {name: 0.0 for name in variables}
            return finish(Equivalence.NOT_EQUIVALENT, "phase_polynomial")
        if verdict == "equivalent_up_to_global_phase":
            return finish(
                Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE, "phase_polynomial"
            )

        # Path 2: symbolic ZX reduction of the miter.
        check_deadline(deadline)
        zx_result = zx_check(pair, deadline)
        stats["zx"] = dict(zx_result.statistics)
        if zx_result.proven:
            if zx_result.equivalence is Equivalence.NOT_EQUIVALENT:
                stats["witness_valuation"] = {
                    name: 0.0 for name in variables
                }
            return finish(zx_result.equivalence, "zx_symbolic")

    # Path 3: seeded random instantiation through the concrete stack.
    equivalence, inst_stats = check_instantiated_random(
        circuit1, circuit2, config, deadline, variables
    )
    stats["instantiation"] = inst_stats
    if "witness_valuation" in inst_stats:
        stats["witness_valuation"] = inst_stats["witness_valuation"]
    return finish(equivalence, "instantiation")
