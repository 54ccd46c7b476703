"""Tier-1 smoke benchmarks for the DD fast-path kernels and ZX engines.

Marked ``bench_smoke`` so they can be selected alone::

    PYTHONPATH=src python -m pytest -m bench_smoke -q

They are deliberately tiny (well under 5 seconds) — the full baseline
comparisons live in ``benchmarks/bench_dd_kernels.py`` and
``benchmarks/bench_zx_simplify.py``, which write
``BENCH_dd_kernels.json`` / ``BENCH_zx_simplify.json``.  Here we only
guard the invariants the benchmarks rely on: the fast and legacy paths
agree on a small pair, and the fast paths stay fast enough for tier-1.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.algorithms import ghz_state
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


@pytest.mark.bench_smoke
def test_dd_kernel_smoke():
    original = ghz_state(8)
    compiled = compile_circuit(original, line_architecture(10))

    verdicts = {}
    elapsed = {}
    for label, direct in (("direct", True), ("legacy", False)):
        config = Configuration(
            strategy="alternating", seed=0, direct_application=direct
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(original, compiled, config).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence
        assert result.equivalence in POSITIVE, label

    assert verdicts["direct"] == verdicts["legacy"]
    # Generous bound: this pair takes ~0.1 s; 5 s means something broke.
    assert elapsed["direct"] < 5.0


@pytest.mark.bench_smoke
def test_dd_kernel_smoke_detects_error():
    """The fast path must still catch an injected error."""
    from repro.bench.errors import remove_random_gate

    original = ghz_state(8)
    compiled = compile_circuit(original, line_architecture(10))
    broken = remove_random_gate(compiled, seed=0)

    config = Configuration(strategy="alternating", seed=0)
    result = EquivalenceCheckingManager(original, broken, config).run()
    assert result.equivalence is Equivalence.NOT_EQUIVALENT


@pytest.mark.bench_smoke
def test_batched_simulation_smoke():
    """Batched simulation on a compiled GHZ pair must not be slower on
    the array engine than on the object engine, and both must consume
    the byte-identical stimulus sequence (same sha256 digest)."""
    from repro.bench.algorithms import ghz_state as ghz
    from repro.compile import manhattan_architecture

    original = ghz(16)
    compiled = compile_circuit(original, manhattan_architecture())

    elapsed = {}
    digests = {}
    verdicts = {}
    for label, array_dd in (("legacy", False), ("batched", True)):
        config = Configuration(
            strategy="simulation", seed=0, num_simulations=8,
            array_dd=array_dd,
        )
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            result = EquivalenceCheckingManager(
                original, compiled, config
            ).run()
            best = min(best, time.perf_counter() - start)
        elapsed[label] = best
        digests[label] = result.statistics["stimuli_digest"]
        verdicts[label] = result.equivalence
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT, label

    assert digests["batched"] == digests["legacy"]
    assert verdicts["batched"] == verdicts["legacy"]
    # The array kernels win this cell ~2.4x; equality with a small
    # scheduling allowance still catches a batching regression.
    assert elapsed["batched"] <= elapsed["legacy"] * 1.1 + 0.05
    counters = result.statistics["perf"]["counters"]
    assert counters.get("dd.batch_width") == 8


@pytest.mark.bench_smoke
def test_compiled_checks_stay_on_the_active_register():
    """GHZ-16 compiled to the 65-qubit Manhattan device touches only its
    16 data wires after logical form: the DD checkers must build their
    vectors and matrices on those 16 levels, not on all 65."""
    from repro.compile import manhattan_architecture

    original = ghz_state(16)
    compiled = compile_circuit(original, manhattan_architecture())
    assert compiled.num_qubits == 65
    for strategy in ("simulation", "alternating"):
        config = Configuration(
            strategy=strategy, seed=0, static_analysis=False
        )
        result = EquivalenceCheckingManager(original, compiled, config).run()
        assert result.statistics["active_qubits"] == 16, strategy
    assert result.equivalence in POSITIVE
    assert result.statistics["max_dd_size"] <= 4 * 16


@pytest.mark.bench_smoke
def test_zx_simplify_smoke():
    """Incremental and legacy ZX engines agree end-to-end and stay fast."""
    from repro.bench.algorithms import qft

    original = qft(5)

    verdicts = {}
    spiders = {}
    elapsed = {}
    for label, incremental in (("incremental", True), ("legacy", False)):
        config = Configuration(
            strategy="zx", seed=0, incremental_zx=incremental
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(original, original, config).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence
        spiders[label] = result.statistics["spiders_remaining"]
        assert result.equivalence in POSITIVE, label
        assert result.statistics["zx_engine"] == label
        counters = result.statistics["perf"]["counters"]
        assert counters.get("zx.rounds", 0) >= 1, label

    assert verdicts["incremental"] == verdicts["legacy"]
    assert spiders["incremental"] == spiders["legacy"] == 0
    # Generous bound: this pair takes ~0.05 s; 5 s means something broke.
    assert elapsed["incremental"] < 5.0


@pytest.mark.bench_smoke
def test_isolation_overhead_smoke():
    """Sandboxed execution agrees with in-process and its overhead stays
    bounded: a fork + pipe round-trip costs tens of milliseconds, not
    multiples of the check itself."""
    from repro.harness import run_check

    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(8))
    config = Configuration(strategy="combined", seed=0, timeout=30)

    start = time.perf_counter()
    in_process = EquivalenceCheckingManager(original, compiled, config).run()
    in_process_seconds = time.perf_counter() - start

    start = time.perf_counter()
    isolated = run_check(original, compiled, config, isolate=True)
    isolated_seconds = time.perf_counter() - start

    assert isolated.equivalence == in_process.equivalence
    assert isolated.failure is None
    # Generous bound: sandbox setup is ~0.1 s on this instance.  A 10x
    # factor plus a 2 s fixed allowance means containment went wrong
    # (e.g. spawn instead of fork, or a serialization blowup).
    assert isolated_seconds < in_process_seconds * 10 + 2.0
    overhead = isolated.statistics["isolation"]["overhead_seconds"]
    assert 0 <= overhead < 2.0


@pytest.mark.bench_smoke
def test_portfolio_overhead_smoke():
    """Racing a trivial pair must stay within a fixed multiple of the
    sequential combined schedule: the portfolio's value is on expensive
    cells, but its fork/stagger overhead on cheap ones has to stay
    bounded or `--portfolio` would tax every small instance."""
    from repro.ec.portfolio import portfolio_winner

    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(8))

    elapsed = {}
    verdicts = {}
    for label, portfolio in (("sequential", False), ("portfolio", True)):
        config = Configuration(
            strategy="combined", portfolio=portfolio,
            static_analysis=False, timeout=30.0, seed=0,
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(original, compiled, config).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence
        assert result.equivalence in POSITIVE, label

    raced = EquivalenceCheckingManager(
        original, compiled,
        Configuration(strategy="combined", portfolio=True,
                      static_analysis=False, timeout=30.0, seed=0),
    ).run()
    assert portfolio_winner(raced) is not None
    assert raced.statistics["portfolio"]["all_reaped"] is True
    # Fixed multiple plus a fork allowance: the sequential arm finishes
    # this pair in ~0.05 s, the race in ~0.2 s.  15x + 2 s means the
    # racer regressed into something pathological.
    assert elapsed["portfolio"] < elapsed["sequential"] * 15 + 2.0


@pytest.mark.bench_smoke
def test_parameterized_smoke():
    """Symbolic-first and instantiate-only parameterized checks agree on
    a seeded ansatz pair, and the symbolic path stays fast: the full
    baseline comparison lives in ``benchmarks/bench_parameterized.py``
    (``BENCH_parameterized.json``); here we only guard its invariants."""
    from repro.fuzz.generator import generate_instance

    # Seed 2 draws an equivalent (split-rotation) pair; the symbolic ZX
    # path proves it for every valuation.
    _, pair = generate_instance(2, family="parameterized")
    assert pair.label == "equivalent"

    elapsed = {}
    verdicts = {}
    for label, symbolic in (("symbolic", True), ("instantiate", False)):
        config = Configuration(
            strategy="parameterized", parameterized_symbolic=symbolic,
            static_analysis=False, timeout=30.0, seed=0,
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(
            pair.circuit1, pair.circuit2, config
        ).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence

    assert verdicts["symbolic"] in POSITIVE
    assert verdicts["instantiate"] is Equivalence.PROBABLY_EQUIVALENT
    # The symbolic proof skips all num_instantiations concrete checks;
    # parity with a small allowance still catches a ladder regression.
    assert elapsed["symbolic"] <= elapsed["instantiate"] * 1.1 + 0.05


@pytest.mark.bench_smoke
def test_parameterized_smoke_detects_error():
    """A planted coefficient nudge must yield a separating witness."""
    from repro.circuit import circuit_unitary, unitaries_equivalent
    from repro.circuit.symbolic import instantiate_circuit
    from repro.fuzz.generator import generate_instance

    _, pair = generate_instance(0, family="parameterized")
    assert pair.label == "not_equivalent"
    config = Configuration(strategy="parameterized", timeout=30.0, seed=0)
    result = EquivalenceCheckingManager(
        pair.circuit1, pair.circuit2, config
    ).run()
    assert result.equivalence is Equivalence.NOT_EQUIVALENT
    witness = result.statistics["parameterized"]["witness_valuation"]
    u1 = circuit_unitary(instantiate_circuit(pair.circuit1, witness))
    u2 = circuit_unitary(instantiate_circuit(pair.circuit2, witness))
    assert not unitaries_equivalent(u1, u2)
