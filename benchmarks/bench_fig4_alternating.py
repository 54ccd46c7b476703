"""Figure 4: the alternating scheme stays near the identity (experiment F4).

The paper's Fig. 4 walks through verifying the GHZ compilation by applying
gates alternately from ``G†`` and ``G'`` so the intermediate DD never
departs far from the identity.  These benchmarks measure both the paper's
scheme and the naive construction baseline and assert the size relation
that motivates the whole approach.
"""

import pytest

from repro.bench import algorithms
from repro.compile import compile_circuit, line_architecture
from repro.ec import (
    AlternatingChecker,
    Configuration,
    ConstructionChecker,
    logical_pair,
)


@pytest.fixture(scope="module")
def ghz_pair():
    original = algorithms.ghz_state(8)
    compiled = compile_circuit(original, line_architecture(10))
    return original, compiled


@pytest.fixture(scope="module")
def qft_pair():
    original = algorithms.qft(5)
    compiled = compile_circuit(original, line_architecture(7))
    return original, compiled


@pytest.mark.parametrize("pair_fixture", ["ghz_pair", "qft_pair"])
def test_alternating_scheme(benchmark, pair_fixture, request):
    original, compiled = request.getfixturevalue(pair_fixture)
    config = Configuration(strategy="alternating", trace_sizes=True)

    def run():
        return AlternatingChecker(
            logical_pair(original, compiled), config
        ).run()

    result = benchmark.pedantic(run, rounds=1)
    assert result.considered_equivalent
    # Fig. 4's property: the intermediate DD stays near the identity.
    assert result.statistics["max_dd_size"] <= 4 * compiled.num_qubits


@pytest.mark.parametrize("pair_fixture", ["ghz_pair", "qft_pair"])
def test_construction_baseline(benchmark, pair_fixture, request):
    original, compiled = request.getfixturevalue(pair_fixture)
    config = Configuration(strategy="construction", trace_sizes=True)

    def run():
        return ConstructionChecker(
            logical_pair(original, compiled), config
        ).run()

    result = benchmark.pedantic(run, rounds=1)
    assert result.considered_equivalent


def test_alternating_beats_construction_on_size(ghz_pair):
    """The headline claim behind Fig. 4, asserted directly."""
    original, compiled = ghz_pair
    config = Configuration(trace_sizes=True)
    pair = logical_pair(original, compiled)
    alternating = AlternatingChecker(pair, config).run()
    construction = ConstructionChecker(pair, config).run()
    assert (
        alternating.statistics["max_dd_size"]
        <= construction.statistics["max_dd_size"]
    )
