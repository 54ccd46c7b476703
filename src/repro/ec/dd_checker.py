"""Decision-diagram based equivalence checking (paper Section 4.1).

Two strategies live here:

* :class:`ConstructionChecker` — build both circuits' complete system
  matrices as DDs and exploit canonicity: equal functions are represented
  by the very same node (the baseline the alternating scheme improves on).
* :class:`AlternatingChecker` — build the DD of ``G' G†`` starting from
  the identity "in the middle", alternating between applications of gates
  from ``G'`` (on the left) and inverted gates from ``G`` (on the right)
  as directed by an *oracle*, so the intermediate diagram stays as close
  to the identity as possible.  Since the product ``U† U'`` is constructed
  anyway, the Hilbert-Schmidt check ``|tr(U† U')| ~ 2^n`` comes for free.

Both consume a :class:`~repro.ec.permutations.LogicalPair`, whose
logical forms realize the permutation tracking and SWAP reconstruction
the paper describes.

Gates are merged into the accumulated product through the
``apply_gate_*`` kernels of :class:`~repro.dd.array_package.ArrayDDPackage`
(only the diagram below a gate's top qubit is traversed).  Every result
carries a ``perf`` statistics block (phase wall times, compute-table and
complex-table counters) produced by :mod:`repro.perf`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dd.array_package import ArrayDDPackage
from repro.dd.gates import (
    apply_operation_left,
    apply_operation_right,
)
from repro.ec.configuration import FIDELITY_THRESHOLD, Configuration
# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import check_deadline
from repro.perf import PerfCounters, package_statistics

if TYPE_CHECKING:
    from repro.ec.sim_checker import ColumnChecker

#: The alternating proof trusts its own projection only after it has run
#: for this share of the basis columns' price.  Over the 12 equivalent
#: Table-1 cells under ``combined`` (2-core Xeon, medians of 3 in-process
#: runs) the shares 1/16, 1/8, 1/4 and 1/2 took 2.11, 2.05, 2.17 and
#: 2.37 s.  1/16 and 1/8 tie within the noise; beyond them a later
#: check only pays longer for the same hand-over.
HANDOVER_WARMUP = 1 / 8


def _columns_cheaper(
    elapsed: float, done: int, steps: int, price: float
) -> bool:
    """True once the basis columns are measured cheaper than the proof.

    The projection rule: ``elapsed`` seconds into its gate applications,
    after ``done`` of ``steps``, the proof projects its total time as
    ``elapsed * steps / done``, and hands over once that exceeds
    ``price``, the columns' measured cost, and it has run for
    :data:`HANDOVER_WARMUP` of the price.  The projection extrapolates
    the pace so far, and the pace is not even.  On urf_s1_5 equivalent
    the proof slows as it goes: a tenth of the way in it projects half
    the time it takes (0.29 of 0.58 s), and the rest alone never
    projects above the 0.29 s price, so comparing only the rest would
    keep a proof that costs twice the columns.  On randomwalk_3_2
    equivalent it front-loads, and the projection over-reads it.  A
    price of 0 hands over at the first gate, an infinite one never.
    """
    return (
        elapsed >= HANDOVER_WARMUP * price
        and elapsed * steps >= price * done
    )


def _phase_verdict(
    pkg: ArrayDDPackage, edge: int, num_qubits: int
) -> Equivalence:
    """Classify a product DD that should represent the identity."""
    if pkg.is_identity(edge, num_qubits, up_to_global_phase=False):
        return Equivalence.EQUIVALENT
    if pkg.is_identity(edge, num_qubits, up_to_global_phase=True):
        return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    # Canonicity failed structurally; fall back to the Hilbert-Schmidt
    # fidelity, which tolerates numerical noise (Section 3).
    fidelity = pkg.hilbert_schmidt_fidelity(edge, num_qubits)
    if abs(fidelity - 1.0) <= FIDELITY_THRESHOLD:
        return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return Equivalence.NOT_EQUIVALENT


class ConstructionChecker:
    """Build both full system-matrix DDs and compare canonical roots."""

    def __init__(
        self,
        pair: LogicalPair,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.configuration = configuration or Configuration()
        self.logical1, self.logical2 = pair.circuit1, pair.circuit2
        # The DD is built on the active register only: wires above it are
        # the identity in both circuits.
        self.num_qubits = pair.active_qubits
        self.package = ArrayDDPackage()

    def run(self, deadline: Optional[float] = None) -> EquivalenceCheckingResult:
        start = time.monotonic()
        pkg = self.package
        perf = PerfCounters()
        edges: List[int] = []
        max_size = 0
        with perf.phase("construction"):
            for circuit in (self.logical1, self.logical2):
                accumulated = pkg.identity(self.num_qubits)
                for op in circuit:
                    check_deadline(deadline)
                    accumulated = apply_operation_left(pkg, accumulated, op)
                    perf.count("gate_applications")
                    if self.configuration.trace_sizes:
                        max_size = max(
                            max_size, pkg.matrix_dd_size(accumulated)
                        )
                edges.append(accumulated)
        first, second = edges
        with perf.phase("verdict"):
            # Canonicity: equal functions share one node handle.
            if pkg.edge_node(first) == pkg.edge_node(second):
                weight_delta = abs(
                    pkg.edge_weight(first) - pkg.edge_weight(second)
                )
                if weight_delta <= 16 * pkg.tolerance:
                    verdict = Equivalence.EQUIVALENT
                else:
                    verdict = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            else:
                # Structural mismatch may still be numerical noise; decide via
                # the Hilbert-Schmidt inner product of U† U'.
                product = pkg.multiply(pkg.conjugate_transpose(first), second)
                fidelity = pkg.hilbert_schmidt_fidelity(product, self.num_qubits)
                if abs(fidelity - 1.0) <= FIDELITY_THRESHOLD:
                    verdict = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
                else:
                    verdict = Equivalence.NOT_EQUIVALENT
        statistics = {
            "dd_size_1": pkg.matrix_dd_size(first),
            "dd_size_2": pkg.matrix_dd_size(second),
            "unique_nodes": pkg.num_unique_matrix_nodes(),
            "active_qubits": self.num_qubits,
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }
        if self.configuration.trace_sizes:
            statistics["max_dd_size"] = max_size
        return EquivalenceCheckingResult(
            verdict, "construction", time.monotonic() - start, statistics
        )


class AlternatingChecker:
    """The alternating ``G' G†`` scheme with oracle-driven gate selection."""

    def __init__(
        self,
        pair: LogicalPair,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.configuration = configuration or Configuration()
        self.logical1, self.logical2 = pair.circuit1, pair.circuit2
        self.num_qubits = pair.active_qubits
        self.package = ArrayDDPackage()

    # -- oracles ----------------------------------------------------------
    def _schedule_naive(self, m1: int, m2: int) -> List[int]:
        """Strict 1:1 alternation (side 1 = inverted G, side 2 = G')."""
        schedule = []
        for i in range(max(m1, m2)):
            if i < m1:
                schedule.append(1)
            if i < m2:
                schedule.append(2)
        return schedule

    def _schedule_compilation_flow(self) -> List[int]:
        """Per-gate cost profile oracle (Burgholzer et al., reference [38]).

        When ``G'`` is the *compiled* version of ``G``, each original gate
        expands into a predictable number of basis gates; applying one
        original gate followed by its expected expansion keeps the product
        at the identity through every gate boundary.  The profile is
        estimated by decomposing each original gate to the device basis
        and scaling to the actual compiled gate count (routing SWAPs make
        the true count larger than the profile sum).
        """
        from repro.compile.decompose import decompose_to_basis
        from repro.circuit.circuit import QuantumCircuit

        costs = []
        for op in self.logical1:
            single = QuantumCircuit(self.num_qubits, operations=[op])
            costs.append(max(1, len(decompose_to_basis(single))))
        total_cost = sum(costs)
        m2 = len(self.logical2)
        schedule: List[int] = []
        emitted2 = 0
        seen_cost = 0
        for cost in costs:
            schedule.append(1)
            seen_cost += cost
            target = round(m2 * seen_cost / total_cost) if total_cost else 0
            # repro: allow(deadline-prop): emitted2 increases to target <= m2
            while emitted2 < target:
                schedule.append(2)
                emitted2 += 1
        schedule.extend([2] * (m2 - emitted2))
        return schedule

    def _schedule_proportional(self, m1: int, m2: int) -> List[int]:
        """Alternation weighted by the gate-count ratio (QCEC default)."""
        if m1 == 0 or m2 == 0:
            return [1] * m1 + [2] * m2
        schedule = []
        taken1 = taken2 = 0
        # repro: allow(deadline-prop): every iteration takes one gate
        while taken1 < m1 or taken2 < m2:
            # Take from the side that is behind its proportional share.
            share1 = (taken1 + 1) / m1 if taken1 < m1 else float("inf")
            share2 = (taken2 + 1) / m2 if taken2 < m2 else float("inf")
            if share1 <= share2:
                schedule.append(1)
                taken1 += 1
            else:
                schedule.append(2)
                taken2 += 1
        return schedule

    def run(
        self,
        deadline: Optional[float] = None,
        columns: Optional["ColumnChecker"] = None,
    ) -> EquivalenceCheckingResult:
        """Build ``G' G†`` gate by gate and classify the product.

        Inside the combined schedule, ``columns`` is the stimuli stage's
        :class:`~repro.ec.sim_checker.ColumnChecker`, and the proof
        prices itself against it: at every gate application it projects
        its own total time (:func:`_columns_cheaper`), and once the basis
        columns the stimuli left undrawn are cheaper it stops and lets
        the columns decide on all ``2^w`` of them.  Both are
        proofs, so the choice moves only time; ``statistics["columns"]``
        says which one decided, at what price and after how many gate
        applications.

        ``statistics["max_dd_size"]`` is the peak over every gate
        application only when ``trace_sizes`` is set or the oracle is
        ``lookahead`` (which sizes every step anyway).  Otherwise it is
        the size of the product where the proof stopped: its
        ``final_dd_size``, or its size at the hand-over to the columns.
        """
        start = time.monotonic()
        pkg = self.package
        config = self.configuration
        perf = PerfCounters()
        gates1 = [op.inverse() for op in self.logical1]  # applied right
        gates2 = list(self.logical2.operations)  # applied left
        steps = len(gates1) + len(gates2)
        price = columns.price() if columns is not None else float("inf")
        accumulated = pkg.identity(self.num_qubits)
        max_size = 1
        trace: List[int] = []
        index1 = index2 = 0

        if config.oracle == "lookahead":
            with perf.phase("alternation"):
                began = time.monotonic()
                while index1 < len(gates1) or index2 < len(gates2):
                    check_deadline(deadline)
                    if columns is not None and _columns_cheaper(
                        time.monotonic() - began, index1 + index2, steps, price
                    ):
                        break
                    candidate1 = candidate2 = None
                    if index1 < len(gates1):
                        candidate1 = apply_operation_right(
                            pkg, accumulated, gates1[index1]
                        )
                    if index2 < len(gates2):
                        candidate2 = apply_operation_left(
                            pkg, accumulated, gates2[index2]
                        )
                    if candidate2 is None or (
                        candidate1 is not None
                        and pkg.matrix_dd_size(candidate1)
                        <= pkg.matrix_dd_size(candidate2)
                    ):
                        accumulated = candidate1
                        index1 += 1
                    else:
                        accumulated = candidate2
                        index2 += 1
                    perf.count("gate_applications")
                    size = pkg.matrix_dd_size(accumulated)
                    max_size = max(max_size, size)
                    if config.trace_sizes:
                        trace.append(size)
        else:
            with perf.phase("schedule"):
                if config.oracle == "naive":
                    schedule = self._schedule_naive(len(gates1), len(gates2))
                elif config.oracle == "compilation_flow":
                    schedule = self._schedule_compilation_flow()
                else:
                    schedule = self._schedule_proportional(
                        len(gates1), len(gates2)
                    )
            with perf.phase("alternation"):
                began = time.monotonic()
                for side in schedule:
                    check_deadline(deadline)
                    if columns is not None and _columns_cheaper(
                        time.monotonic() - began, index1 + index2, steps, price
                    ):
                        break
                    if side == 1:
                        accumulated = apply_operation_right(
                            pkg, accumulated, gates1[index1]
                        )
                        index1 += 1
                    else:
                        accumulated = apply_operation_left(
                            pkg, accumulated, gates2[index2]
                        )
                        index2 += 1
                    perf.count("gate_applications")
                    if config.trace_sizes:
                        size = pkg.matrix_dd_size(accumulated)
                        max_size = max(max_size, size)
                        trace.append(size)

        if not config.trace_sizes:
            max_size = max(max_size, pkg.matrix_dd_size(accumulated))
        statistics: Dict[str, object] = {"max_dd_size": max_size}
        done = index1 + index2
        if done < steps:
            assert columns is not None  # only the columns stop the proof
            verdict, exhaustion = columns.exhaust(deadline)
        else:
            statistics["final_dd_size"] = pkg.matrix_dd_size(accumulated)
            with perf.phase("verdict"):
                verdict = _phase_verdict(pkg, accumulated, self.num_qubits)
                statistics["hilbert_schmidt_fidelity"] = (
                    pkg.hilbert_schmidt_fidelity(accumulated, self.num_qubits)
                )
            exhaustion = {"columns_simulated": 0}
        statistics.update({
            "unique_nodes": pkg.num_unique_matrix_nodes(),
            "active_qubits": self.num_qubits,
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        })
        if config.trace_sizes:
            statistics["dd_size_trace"] = trace
        if columns is not None:
            statistics["columns"] = {
                "proof": "columns" if done < steps else "alternating",
                "price_seconds": round(price, 6),
                "steps": steps,
                "steps_done": done,
                "width": columns.width,
                **exhaustion,
            }
        return EquivalenceCheckingResult(
            verdict, "alternating", time.monotonic() - start, statistics
        )


def construction_dd_check(
    pair: LogicalPair,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Functional wrapper around :class:`ConstructionChecker`."""
    return ConstructionChecker(pair, configuration).run(deadline)


def alternating_dd_check(
    pair: LogicalPair,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Functional wrapper around :class:`AlternatingChecker`."""
    return AlternatingChecker(pair, configuration).run(deadline)
