"""Random-stimuli simulation checking (paper Section 6.1 / [45]).

The paper's QCEC configuration runs the alternating scheme "in parallel
with a sequence of 16 simulation runs. If the simulations manage to prove
non-equivalence of the circuits, the equivalence checking routine is
terminated early."  Each run simulates both circuits on a random classical
basis state using vector decision diagrams and compares the resulting
states' fidelity: any mismatch is a *proof* of non-equivalence, while
agreement on all stimuli yields ``PROBABLY_EQUIVALENT`` — strong evidence,
not proof.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import List, Optional

from repro.circuit.qasm import circuit_to_qasm
from repro.dd.gates import apply_operation_columns
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import _check_deadline, make_package
# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.ec.stimuli import generate_stimulus, prepare_stimulus_columns
from repro.perf import PerfCounters, package_statistics


def simulation_check(
    pair: LogicalPair,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Run random-basis-state simulations of both circuits and compare.

    Stimuli are random bit strings on the *data* qubits (the width of the
    narrower circuit); ancilla wires added by compilation start in
    ``|0>``, matching the hardware assumption.  Stimuli are generated on
    the declared register, but both circuits are simulated only on the
    active one (``pair.active_qubits``, at least the data qubits): wires
    no operation touches stay ``|0>`` in both, so dropping them changes
    no fidelity.

    Stimuli run in growing batches — first one, then each batch as large
    as everything simulated so far (1, 1, 2, 4, 8 for 16 stimuli) — and
    each batch is one matrix-of-columns pass per gate.  The check stops
    after the first batch that holds a mismatch.  ``simulations_run``
    counts the stimuli actually simulated, ``stimuli_digest`` covers
    exactly those, and a ``NOT_EQUIVALENT`` result reports the 1-based
    index of the first mismatching stimulus as ``first_mismatch``.
    """
    config = configuration or Configuration()
    start = time.monotonic()
    width = max(pair.active_qubits, pair.data_qubits)
    rng = random.Random(config.seed)
    pkg = make_package(config)
    perf = PerfCounters()
    # Running digest over the serialized stimuli: two runs with the same
    # seed must report byte-identical sequences (reproducibility contract,
    # checkable across process boundaries via this statistic).
    stimuli_digest = hashlib.sha256()
    # One fidelity per simulated stimulus; a mismatch is a proof of
    # non-equivalence, however the stimulus was drawn.
    fidelities: List[float] = []
    mismatches: List[int] = []
    while len(fidelities) < config.num_simulations and not mismatches:
        runs = len(fidelities)
        batch = min(max(1, runs), config.num_simulations - runs)
        with perf.phase("stimulus_preparation"):
            stimuli = []
            for _ in range(batch):
                _check_deadline(deadline)
                stimulus = generate_stimulus(
                    config.stimuli_type, pair.num_qubits, pair.data_qubits, rng
                )
                stimuli_digest.update(
                    circuit_to_qasm(stimulus).encode("utf-8")
                )
                stimuli.append(stimulus)
            columns = prepare_stimulus_columns(pkg, stimuli, width)
        perf.count("dd.batch_width", batch)
        with perf.phase("simulation"):
            states = []
            for logical in (pair.circuit1, pair.circuit2):
                current = columns
                for op in logical:
                    _check_deadline(deadline)
                    current = apply_operation_columns(pkg, current, op)
                    perf.count("dd.batched_gate_applications")
                states.append(current)
        with perf.phase("fidelity"):
            for state1, state2 in zip(*states):
                _check_deadline(deadline)
                fidelities.append(pkg.fidelity(state1, state2))
        mismatches = [
            index
            for index, fidelity in enumerate(fidelities, 1)
            if abs(fidelity - 1.0) > config.fidelity_threshold
        ]
    statistics = {
        "simulations_run": len(fidelities),
        "min_fidelity": min(fidelities, default=1.0),
        "stimuli_digest": stimuli_digest.hexdigest(),
        "active_qubits": width,
        "complex_table": pkg.complex_table.stats(),
        "perf": {**perf.as_dict(), **package_statistics(pkg)},
    }
    if not mismatches:
        return EquivalenceCheckingResult(
            Equivalence.PROBABLY_EQUIVALENT,
            "simulation",
            time.monotonic() - start,
            statistics,
        )
    statistics["first_mismatch"] = mismatches[0]
    return EquivalenceCheckingResult(
        Equivalence.NOT_EQUIVALENT,
        "simulation",
        time.monotonic() - start,
        statistics,
    )
