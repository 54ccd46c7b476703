"""Ablation A3: routing strategy of the compilation substrate.

The compiled circuits the case study verifies are produced by SWAP
routing; the router's quality changes |G'| and therefore both checkers'
workload.  This ablation compares the basic BFS-path router against the
SABRE-flavoured lookahead router on the benchmark algorithms, measuring
routing time and asserting the SWAP-count relation, then measures the
knock-on effect on equivalence-checking time.
"""

import pytest

from repro.bench import algorithms
from repro.compile import compile_circuit, line_architecture, manhattan_architecture
from repro.compile.decompose import decompose_to_basis
from repro.compile.routing import route_circuit
from repro.ec import Configuration, EquivalenceCheckingManager

ROUTERS = ["basic", "lookahead"]


@pytest.fixture(scope="module")
def lowered_benchmarks():
    return {
        "qft_6": decompose_to_basis(algorithms.qft(6)),
        "grover_4": decompose_to_basis(algorithms.grover(4)),
        "ghz_16": decompose_to_basis(algorithms.ghz_state(16)),
    }


@pytest.mark.parametrize("name", ["qft_6", "grover_4", "ghz_16"])
@pytest.mark.parametrize("router", ROUTERS)
def test_routing_time(benchmark, lowered_benchmarks, name, router):
    lowered = lowered_benchmarks[name]
    device = manhattan_architecture()

    def run():
        return route_circuit(
            lowered, device, decompose_swaps=False, routing_method=router
        )

    routed = benchmark.pedantic(run, rounds=1)
    assert routed.num_qubits == 65


@pytest.mark.parametrize("name", ["qft_6", "grover_4"])
def test_lookahead_uses_fewer_or_equal_swaps(lowered_benchmarks, name):
    lowered = lowered_benchmarks[name]
    device = line_architecture(lowered.num_qubits + 2)
    swaps = {}
    for router in ROUTERS:
        routed = route_circuit(
            lowered, device, decompose_swaps=False, routing_method=router
        )
        swaps[router] = routed.count_ops().get("swap", 0)
    assert swaps["lookahead"] <= swaps["basic"]


@pytest.mark.parametrize("router", ROUTERS)
def test_ec_time_after_routing(benchmark, router):
    """Knock-on effect: smaller routed circuits check faster."""
    original = algorithms.qft(5)
    compiled = compile_circuit(
        original, line_architecture(7), routing_method=router
    )

    def run():
        return EquivalenceCheckingManager(
            original, compiled, Configuration(strategy="alternating", seed=0)
        ).run()

    result = benchmark.pedantic(run, rounds=1)
    assert result.considered_equivalent
