"""Column checking: simulate both circuits on input columns, compare overlaps.

Simulating ``G`` and ``G'`` on an input column ``|c>`` and taking the
overlap ``<G c|G' c>`` checks one column of ``G† G'``.  Each circuit is
first cut into blocks of at most three wires whose matrix diagrams are
built once per check (:func:`repro.dd.gates.build_blocks`); every batch
of columns then makes one pass per block
(:func:`repro.dd.gates.apply_block_columns`, the deadline checked per
block).  One checker runs three sets of columns this way, and one
function, :func:`column_verdict`, decides every set:

* ``state`` — the column ``|0...0>``, a complete set for the
  state-preparation semantics (:func:`state_check`);
* ``simulation`` — the paper's seeded random stimuli (Section 6.1 /
  [45]): QCEC runs the alternating scheme "in parallel with a sequence
  of 16 simulation runs. If the simulations manage to prove
  non-equivalence of the circuits, the equivalence checking routine is
  terminated early."  Agreement on every stimulus is evidence
  (``PROBABLY_EQUIVALENT``), not proof (:func:`simulation_check`);
* exhaustive — every basis column of the register.  Over all ``2^w`` of
  them the overlaps' mean is ``tr(G† G') / 2^w``, the Hilbert-Schmidt
  quantity the alternating proof tests, so their agreement is a proof.
  It runs only inside the combined schedule, when the alternating proof
  measures itself dearer than the basis columns the stimuli left
  undrawn (:meth:`ColumnChecker.price`,
  :meth:`repro.ec.dd_checker.AlternatingChecker.run`).

Comparing complex overlaps rather than fidelities is what lets stimuli
see a phase that differs from one column to the next (Viamontes, Markov
& Hayes separate such a relative phase from a global one): a lone ``Z``
leaves every basis column's fidelity at 1, but gives ``|0>`` and ``|1>``
opposite overlaps.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import circuit_to_qasm
from repro.dd.array_package import ArrayDDPackage
from repro.dd.gates import apply_block_columns, build_blocks
from repro.ec.configuration import FIDELITY_THRESHOLD, Configuration
# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.ec.stimuli import generate_stimulus, prepare_stimulus_columns
from repro.errors import check_deadline
from repro.perf import PerfCounters, package_statistics

#: Basis columns simulated per pass when exhausting a register: every
#: register of at most 8 qubits is one pass, and a pass never holds more
#: than this many column states.
EXHAUSTION_BATCH = 256


def column_verdict(
    overlaps: Sequence[complex],
    complete: bool,
    threshold: float,
    tolerance: float,
) -> Tuple[Equivalence, Optional[int]]:
    """One verdict over the overlaps ``<G c|G' c>`` of simulated columns.

    * **Fidelity drop.** Some ``|overlap|^2`` differs from 1 by more
      than ``threshold``: ``NOT_EQUIVALENT``.
    * **Phase spread.** The overlaps' mean has modulus below
      ``1 - threshold``: ``NOT_EQUIVALENT``.  Both tests are sound for
      any columns, however drawn: if ``G' = e^{i phi} G``, every overlap
      equals ``e^{i phi}``.
    * **A complete set agrees.** ``EQUIVALENT`` when the mean is within
      ``16 * tolerance`` of 1, ``EQUIVALENT_UP_TO_GLOBAL_PHASE``
      otherwise.
    * **A strict subset agrees.** ``PROBABLY_EQUIVALENT``.

    Returns the verdict and, for ``NOT_EQUIVALENT``, the 1-based index of
    the column at which it turns: the shortest prefix it holds for.
    """
    total = 0j
    for index, overlap in enumerate(overlaps, 1):
        total += overlap
        if (
            abs(abs(overlap) ** 2 - 1.0) > threshold
            or abs(total) < (1.0 - threshold) * index
        ):
            return Equivalence.NOT_EQUIVALENT, index
    if not complete:
        return Equivalence.PROBABLY_EQUIVALENT, None
    if abs(total / len(overlaps) - 1.0) <= 16 * tolerance:
        return Equivalence.EQUIVALENT, None
    return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE, None


def basis_index(stimulus: QuantumCircuit) -> Optional[int]:
    """The basis column a stimulus prepares from ``|0...0>``, or None.

    A stimulus of ``x`` gates on distinct qubits prepares ``|index>``,
    with bit ``q`` of ``index`` set for each flipped qubit ``q``.
    """
    index = 0
    for op in stimulus:
        qubit = op.qubits[0]
        if op.name != "x" or (index >> qubit) & 1:
            return None
        index |= 1 << qubit
    return index


#: Both circuits' block diagrams, in one package.
Blocks = Tuple[List[int], List[int]]


def _build(
    pair: LogicalPair,
    pkg: ArrayDDPackage,
    perf: PerfCounters,
    deadline: Optional[float],
) -> Blocks:
    """Both circuits' blocks, built in ``pkg``."""
    blocks = []
    for logical in (pair.circuit1, pair.circuit2):
        built = build_blocks(pkg, logical, deadline)
        perf.count("dd.blocks_built", len(built))
        perf.count("dd.block_operations", len(logical))
        blocks.append(built)
    return blocks[0], blocks[1]


def _simulate(
    blocks: Blocks,
    pkg: ArrayDDPackage,
    perf: PerfCounters,
    columns: List[int],
    deadline: Optional[float],
) -> Tuple[List[int], List[int]]:
    """Both circuits' output states on ``columns``, one pass per block."""
    states = []
    for circuit_blocks in blocks:
        current = columns
        for block in circuit_blocks:
            check_deadline(deadline)
            current = apply_block_columns(pkg, current, block)
            perf.count("dd.batched_block_applications")
        states.append(current)
    return states[0], states[1]


class ColumnChecker:
    """The simulation and exhaustive modes of one pair's column check.

    :meth:`stimuli` keeps, by basis index, the overlap of every stimulus
    that is a basis column.  A basis column's overlap depends only on its
    index, not on how the index was drawn, so :meth:`exhaust` simulates
    only the columns the stimuli left undrawn.  Both modes run in one DD
    package and on one set of blocks, built when the checker first
    simulates, so the exhaustion finds the blocks built and the compute
    tables warm: on randomwalk_3_2 equivalent that takes its 7 undrawn
    columns from 0.0145 s in a fresh checker to 0.0032 s.
    """

    def __init__(
        self,
        pair: LogicalPair,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.pair = pair
        self.configuration = configuration or Configuration()
        # Stimuli live on the data qubits, and every operation on the
        # active register: the columns span both.
        self.width = max(pair.active_qubits, pair.data_qubits)
        #: Overlap of every basis column simulated so far, by index.
        self.overlaps: Dict[int, complex] = {}
        #: Distinct columns the stimuli simulated, and their seconds.
        self.columns_simulated = 0
        self.seconds = 0.0
        #: The package both modes simulate in.
        self.package = ArrayDDPackage()
        #: Both circuits' blocks, once the checker first simulated.
        self.blocks: Optional[Blocks] = None

    def _blocks(
        self, perf: PerfCounters, deadline: Optional[float]
    ) -> Blocks:
        """Both circuits' blocks, built the first time they are asked for."""
        if self.blocks is None:
            self.blocks = _build(self.pair, self.package, perf, deadline)
        return self.blocks

    def price(self) -> float:
        """Projected seconds to simulate every basis column not yet simulated.

        The number of undrawn basis columns times the measured seconds
        per distinct column the stimuli simulated.  Non-basis stimuli
        leave every basis column undrawn.
        """
        if self.width >= sys.float_info.max_exp:
            return float("inf")  # 2^width is not a float any more
        undrawn = 2**self.width - len(self.overlaps)
        return undrawn * self.seconds / max(1, self.columns_simulated)

    def stimuli(
        self, deadline: Optional[float] = None
    ) -> EquivalenceCheckingResult:
        """The simulation mode; see :func:`simulation_check`."""
        config = self.configuration
        pair = self.pair
        start = time.monotonic()
        rng = random.Random(config.seed)
        pkg = self.package
        perf = PerfCounters()
        # Running digest over the serialized stimuli: two runs with the same
        # seed must report byte-identical sequences (reproducibility contract,
        # checkable across process boundaries via this statistic).
        stimuli_digest = hashlib.sha256()
        # One overlap per simulated stimulus; a fidelity drop or a phase
        # spread is a proof of non-equivalence, however the stimuli were
        # drawn.
        overlaps: List[complex] = []
        first_mismatch: Optional[int] = None
        while len(overlaps) < config.num_simulations and first_mismatch is None:
            runs = len(overlaps)
            batch = min(max(1, runs), config.num_simulations - runs)
            with perf.phase("stimulus_preparation"):
                stimuli = []
                for _ in range(batch):
                    check_deadline(deadline)
                    stimulus = generate_stimulus(
                        config.stimuli_type, pair.num_qubits, pair.data_qubits, rng
                    )
                    stimuli_digest.update(
                        circuit_to_qasm(stimulus).encode("utf-8")
                    )
                    stimuli.append(stimulus)
                columns = prepare_stimulus_columns(pkg, stimuli, self.width)
            perf.count("dd.batch_width", batch)
            with perf.phase("simulation"):
                states1, states2 = _simulate(
                    self._blocks(perf, deadline), pkg, perf, columns, deadline
                )
            with perf.phase("fidelity"):
                for stimulus, state1, state2 in zip(stimuli, states1, states2):
                    check_deadline(deadline)
                    overlap = pkg.inner_product(state1, state2)
                    overlaps.append(overlap)
                    index = basis_index(stimulus)
                    if index is None or index not in self.overlaps:
                        self.columns_simulated += 1
                    if index is not None:
                        self.overlaps[index] = overlap
            _, first_mismatch = column_verdict(
                overlaps, False, FIDELITY_THRESHOLD, pkg.tolerance
            )
        self.seconds = time.monotonic() - start
        statistics = {
            "simulations_run": len(overlaps),
            "min_fidelity": min(
                (abs(overlap) ** 2 for overlap in overlaps), default=1.0
            ),
            "stimuli_digest": stimuli_digest.hexdigest(),
            "active_qubits": self.width,
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }
        if first_mismatch is not None:
            statistics["first_mismatch"] = first_mismatch
            return EquivalenceCheckingResult(
                Equivalence.NOT_EQUIVALENT,
                "simulation",
                time.monotonic() - start,
                statistics,
            )
        # Random stimuli never prove equivalence, however many agree.
        return EquivalenceCheckingResult(
            Equivalence.PROBABLY_EQUIVALENT,
            "simulation",
            time.monotonic() - start,
            statistics,
        )

    def exhaust(
        self, deadline: Optional[float] = None
    ) -> Tuple[Equivalence, Dict[str, object]]:
        """Simulate the undrawn basis columns and decide on all ``2^w``.

        Returns the verdict and the run's statistics: the columns it
        simulated and reused, its seconds and its ``perf`` block (whose
        package counters include the stimuli's, when they ran), and, for
        ``NOT_EQUIVALENT``, the 1-based ``first_mismatch`` in basis
        order.
        """
        start = time.monotonic()
        pkg = self.package
        perf = PerfCounters()
        reused = len(self.overlaps)
        size = 2**self.width
        with perf.phase("exhaustion"):
            for low in range(0, size, EXHAUSTION_BATCH):
                check_deadline(deadline)
                undrawn = [
                    index
                    for index in range(low, min(size, low + EXHAUSTION_BATCH))
                    if index not in self.overlaps
                ]
                if not undrawn:  # the stimuli drew every column here
                    continue
                columns = [pkg.basis_state(self.width, i) for i in undrawn]
                states1, states2 = _simulate(
                    self._blocks(perf, deadline), pkg, perf, columns, deadline
                )
                for index, state1, state2 in zip(undrawn, states1, states2):
                    check_deadline(deadline)
                    self.overlaps[index] = pkg.inner_product(state1, state2)
        # Only an exact cover of the register is a proof.
        indices = sorted(self.overlaps)
        verdict, first_mismatch = column_verdict(
            [self.overlaps[index] for index in indices],
            indices == list(range(size)),
            FIDELITY_THRESHOLD,
            pkg.tolerance,
        )
        statistics: Dict[str, object] = {
            "columns_simulated": len(self.overlaps) - reused,
            "columns_reused": reused,
            "seconds": round(time.monotonic() - start, 6),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }
        if first_mismatch is not None:
            statistics["first_mismatch"] = first_mismatch
        return verdict, statistics


def simulation_check(
    pair: LogicalPair,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
    columns: Optional[ColumnChecker] = None,
) -> EquivalenceCheckingResult:
    """Run random stimuli through both circuits and compare their overlaps.

    Stimuli are random bit strings on the *data* qubits (the width of the
    narrower circuit); ancilla wires added by compilation start in
    ``|0>``, matching the hardware assumption.  Stimuli are generated on
    the declared register, but both circuits are simulated only on the
    active one (``pair.active_qubits``, at least the data qubits): wires
    no operation touches stay ``|0>`` in both, so dropping them changes
    no overlap.

    Stimuli run in growing batches — first one, then each batch as large
    as everything simulated so far (1, 1, 2, 4, 8 for 16 stimuli) — and
    each batch is one matrix-of-columns pass per block.  The check stops
    after the first batch for which :func:`column_verdict` finds a
    fidelity drop or a phase spread.  ``simulations_run`` counts the
    stimuli actually simulated, ``stimuli_digest`` covers exactly those,
    and a ``NOT_EQUIVALENT`` result reports the 1-based index of the
    stimulus at which the verdict turns as ``first_mismatch``.

    ``columns`` is the checker to run on, so that the caller can hand its
    basis-column overlaps on to the exhaustive mode (the combined
    schedule does); by default a fresh one for ``pair``.
    """
    checker = columns or ColumnChecker(pair, configuration)
    return checker.stimuli(deadline)


def state_check(
    pair: LogicalPair, deadline: Optional[float] = None
) -> EquivalenceCheckingResult:
    """Decide whether both circuits prepare the same state from ``|0...0>``.

    Many of the case study's benchmarks (GHZ, graph states, W states) are
    state-preparation circuits: what matters is the state they produce
    from ``|0...0>``, not the full unitary.  That is strictly weaker than
    unitary equivalence and much cheaper to decide: the one column
    ``|0...0>`` is a complete set for it, so the verdict is a proof (up
    to numerical tolerance) for the state-preparation semantics.  QCEC
    exposes the same notion; here it is the manager's ``"state"``
    strategy.
    """
    start = time.monotonic()
    pkg = ArrayDDPackage()
    perf = PerfCounters()
    # Wires above the active register stay |0> in both circuits.
    width = pair.active_qubits
    with perf.phase("simulation"):
        blocks = _build(pair, pkg, perf, deadline)
        (state1,), (state2,) = _simulate(
            blocks, pkg, perf, [pkg.basis_state(width)], deadline
        )
    with perf.phase("fidelity"):
        overlap = pkg.inner_product(state1, state2)
    verdict, _ = column_verdict(
        [overlap], True, FIDELITY_THRESHOLD, pkg.tolerance
    )
    return EquivalenceCheckingResult(
        verdict,
        "state",
        time.monotonic() - start,
        {
            "fidelity": abs(overlap) ** 2,
            "max_state_dd_size": max(
                pkg.vector_dd_size(state1), pkg.vector_dd_size(state2)
            ),
            "active_qubits": width,
            # canonicity bonus: equal states share the very same node
            "same_canonical_node": (
                pkg.edge_node(state1) == pkg.edge_node(state2)
            ),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        },
    )
