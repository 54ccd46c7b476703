"""Ablation A1: the alternating scheme's gate-selection oracle.

Section 4.1: "The strategy when to choose gates from which circuit is
dictated by an oracle.  If more information about the relation between G
and G' is known, a more sophisticated oracle can be employed."

This ablation compares the three oracles on compiled pairs where the gate
counts differ substantially (|G'| >> |G|):

* ``naive`` 1:1 alternation lets the product drift away from the identity,
* ``proportional`` alternation (QCEC's default for compilation flows)
  keeps the sides in sync,
* ``lookahead`` greedily minimizes the DD after every step at the price of
  trying both sides.
"""

import pytest

from repro.bench import algorithms
from repro.compile import compile_circuit, line_architecture
from repro.ec import AlternatingChecker, Configuration, logical_pair

ORACLES = ["naive", "proportional", "lookahead", "compilation_flow"]


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for original in (
        algorithms.ghz_state(8),
        algorithms.qft(5),
        algorithms.grover(4),
    ):
        compiled = compile_circuit(
            original, line_architecture(original.num_qubits + 3)
        )
        out[original.name] = (original, compiled)
    return out


@pytest.mark.parametrize("name", ["ghz_8", "qft_5", "grover_4"])
@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_runtime(benchmark, pairs, name, oracle):
    original, compiled = pairs[name]
    config = Configuration(
        strategy="alternating", oracle=oracle, trace_sizes=True
    )

    def run():
        return AlternatingChecker(
            logical_pair(original, compiled), config
        ).run()

    result = benchmark.pedantic(run, rounds=1)
    assert result.considered_equivalent


@pytest.mark.parametrize("name", ["ghz_8", "qft_5"])
def test_proportional_tracks_identity_better_than_naive(pairs, name):
    """With |G'| >> |G|, naive 1:1 alternation exhausts G early and then
    multiplies G' into an already-drifted product; proportional keeps the
    intermediate DD at least as small."""
    original, compiled = pairs[name]
    sizes = {}
    for oracle in ("naive", "proportional"):
        config = Configuration(
            strategy="alternating", oracle=oracle, trace_sizes=True
        )
        result = AlternatingChecker(
            logical_pair(original, compiled), config
        ).run()
        sizes[oracle] = result.statistics["max_dd_size"]
    assert sizes["proportional"] <= sizes["naive"]
