"""Cost profile of the differential fuzzing oracle.

Times one full strategy-matrix pass (six checkers + dense ground truth)
per circuit family, so regressions in oracle throughput — the quantity
that bounds how many pairs a fuzz budget can afford — show up next to
the other paper benchmarks.
"""

import pytest

from repro.ec import Configuration
from repro.fuzz.generator import FAMILIES, generate_instance
from repro.fuzz.mutators import MutationNotApplicable
from repro.fuzz.oracle import DifferentialOracle


@pytest.fixture(scope="module")
def fuzz_pairs():
    """Five labeled fuzz pairs per family."""
    pairs = {}
    for family in FAMILIES:
        collected = []
        seed = 0
        while len(collected) < 5:
            try:
                collected.append(generate_instance(seed, family)[1])
            except MutationNotApplicable:
                pass
            seed += 1
        pairs[family] = collected
    return pairs


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_matrix_cost(benchmark, fuzz_pairs, family):
    """Wall cost of the full verdict matrix over 5 labeled pairs."""
    oracle = DifferentialOracle(Configuration(timeout=20.0, seed=0))
    pairs = fuzz_pairs[family]

    def run():
        return [oracle.check(pair) for pair in pairs]

    reports = benchmark.pedantic(run, rounds=1)
    for report in reports:
        assert report.agreed, report.disagreements


def test_oracle_overhead_vs_single_strategy(benchmark, fuzz_pairs):
    """The matrix costs roughly the sum of its parts: no hidden
    re-preparation blowup in the per-strategy dispatch."""
    from repro.ec import EquivalenceCheckingManager

    pair = fuzz_pairs["clifford_t"][0]

    def single():
        config = Configuration(strategy="alternating", timeout=20.0, seed=0)
        return EquivalenceCheckingManager(
            pair.circuit1, pair.circuit2, config
        ).run()

    from repro.fuzz.mutators import LABEL_EQUIVALENT

    result = benchmark.pedantic(single, rounds=3)
    assert result.considered_equivalent == (pair.label == LABEL_EQUIVALENT)
