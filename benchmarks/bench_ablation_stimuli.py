"""Ablation A4: random-stimuli families (reference [45] of the paper).

QCEC's simulation runs default to classical basis states; reference [45]
shows quantum stimuli detect strictly more error classes per run.  This
ablation measures cost per stimulus family and asserts the detectability
hierarchy on diagonal errors: comparing complex overlaps lets classical
stimuli see a phase that differs between the columns they draw, but not
one confined to columns they never draw.
"""

import pytest

from repro.bench import algorithms
from repro.bench.errors import remove_random_gate
from repro.circuit import QuantumCircuit
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, logical_pair, simulation_check
from repro.ec.results import Equivalence
from repro.ec.stimuli import STIMULI_TYPES


@pytest.fixture(scope="module")
def broken_pair():
    original = algorithms.grover(4)
    compiled = compile_circuit(original, line_architecture(6))
    return original, remove_random_gate(compiled, seed=2)


@pytest.fixture(scope="module")
def equivalent_pair():
    original = algorithms.qft(5)
    compiled = compile_circuit(original, line_architecture(7))
    return original, compiled


@pytest.mark.parametrize("kind", STIMULI_TYPES)
def test_stimuli_cost_on_equivalent(benchmark, equivalent_pair, kind):
    """Cost of a full 16-run pass per stimuli family."""
    original, compiled = equivalent_pair

    def run():
        return simulation_check(
            logical_pair(original, compiled),
            Configuration(stimuli_type=kind, seed=0),
        )

    result = benchmark.pedantic(run, rounds=1)
    assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT


@pytest.mark.parametrize("kind", STIMULI_TYPES)
def test_stimuli_detection_speed(benchmark, broken_pair, kind):
    """Runs-to-detection per stimuli family on a broken instance."""
    original, broken = broken_pair

    def run():
        return simulation_check(
            logical_pair(original, broken),
            Configuration(stimuli_type=kind, seed=0),
        )

    result = benchmark.pedantic(run, rounds=1)
    assert result.equivalence is Equivalence.NOT_EQUIVALENT


def test_detectability_hierarchy():
    """The [45] hierarchy on diagonal errors.

    A trailing Z keeps every basis column's fidelity but flips the phase
    of half of them: classical stimuli catch it once two drawn columns
    differ in phase, quantum stimuli on the first run.  A multi-controlled
    Z flips only the all-ones column of 5 qubits, which no seed-0
    classical stimulus draws: classical stimuli stay blind to it, while
    quantum stimuli, which overlap every column, catch it."""
    clean = QuantumCircuit(2).cx(0, 1)
    phase_broken = QuantumCircuit(2).cx(0, 1).z(0)
    pair = logical_pair(clean, phase_broken)
    classical = simulation_check(
        pair, Configuration(stimuli_type="classical", seed=0)
    )
    assert classical.equivalence is Equivalence.NOT_EQUIVALENT
    assert classical.statistics["min_fidelity"] == pytest.approx(1.0)
    assert classical.statistics["first_mismatch"] == 6
    for kind in ("local_quantum", "global_quantum"):
        quantum = simulation_check(
            pair, Configuration(stimuli_type=kind, seed=0)
        )
        assert quantum.equivalence is Equivalence.NOT_EQUIVALENT, kind
        assert quantum.statistics["first_mismatch"] == 1, kind

    hidden = logical_pair(
        QuantumCircuit(5), QuantumCircuit(5).mcz([0, 1, 2, 3], 4)
    )
    classical = simulation_check(
        hidden, Configuration(stimuli_type="classical", seed=0)
    )
    assert classical.equivalence is Equivalence.PROBABLY_EQUIVALENT
    for kind in ("local_quantum", "global_quantum"):
        quantum = simulation_check(
            hidden, Configuration(stimuli_type=kind, seed=0)
        )
        assert quantum.equivalence is Equivalence.NOT_EQUIVALENT, kind
        assert quantum.statistics["first_mismatch"] <= 2, kind
