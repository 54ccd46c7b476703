"""Section 6.2 discussion, part 2 (experiment D2 in DESIGN.md).

"QCEC resorts to simulations of the circuit with random inputs which [...]
are expected to show the non-equivalence within a few simulations", while
the ZX rewriting "is not a proof of non-equivalence, but [...] gives a
strong indication" by terminating prematurely.

The benchmarks time both falsification paths and assert the behavioural
claims: few simulations suffice, and the stuck ZX reduction never wrongly
accepts.
"""

import pytest

from repro.bench import algorithms
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, logical_pair, simulation_check, zx_check
from repro.ec.results import Equivalence


@pytest.fixture(scope="module")
def broken_pairs():
    pairs = {}
    for original in (
        algorithms.grover(4),
        algorithms.qft(6),
        algorithms.ghz_state(8),
    ):
        compiled = compile_circuit(
            original, line_architecture(original.num_qubits + 2)
        )
        for kind, inject in (
            ("gate_missing", remove_random_gate),
            ("flipped_cnot", flip_random_cnot),
        ):
            pairs[f"{original.name}/{kind}"] = (
                original,
                inject(compiled, seed=0),
            )
    return pairs


_CASES = [
    "grover_4/gate_missing", "grover_4/flipped_cnot",
    "qft_6/gate_missing", "qft_6/flipped_cnot",
    "ghz_8/gate_missing", "ghz_8/flipped_cnot",
]


@pytest.mark.parametrize("case", _CASES)
def test_simulation_falsification(benchmark, broken_pairs, case):
    original, broken = broken_pairs[case]

    def run():
        return simulation_check(
            logical_pair(original, broken), Configuration(seed=0)
        )

    result = benchmark.pedantic(run, rounds=1)
    assert result.equivalence is Equivalence.NOT_EQUIVALENT
    # the paper's expectation: a handful of stimuli expose the error
    assert result.statistics["simulations_run"] <= 16


@pytest.mark.parametrize("case", _CASES)
def test_zx_indication(benchmark, broken_pairs, case):
    original, broken = broken_pairs[case]

    def run():
        return zx_check(logical_pair(original, broken))

    result = benchmark.pedantic(run, rounds=1)
    # never a wrong acceptance; usually NO_INFORMATION (stuck reduction)
    assert result.equivalence in (
        Equivalence.NO_INFORMATION,
        Equivalence.NOT_EQUIVALENT,
    )


def test_simulation_run_distribution(broken_pairs):
    """Across all broken instances, the median detection needs few runs."""
    runs = []
    for original, broken in broken_pairs.values():
        result = simulation_check(
            logical_pair(original, broken), Configuration(seed=3)
        )
        if result.equivalence is Equivalence.NOT_EQUIVALENT:
            runs.append(result.statistics["simulations_run"])
    assert runs, "no instance was falsified"
    runs.sort()
    assert runs[len(runs) // 2] <= 4
