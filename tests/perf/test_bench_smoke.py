"""Tier-1 smoke benchmarks for the DD fast-path kernels and the ZX engine.

Marked ``bench_smoke`` so they can be selected alone::

    PYTHONPATH=src python -m pytest -m bench_smoke -q

They are deliberately tiny (well under 5 seconds) — the full baseline
comparisons live in ``benchmarks/bench_dd_kernels.py`` and
``benchmarks/bench_zx_simplify.py``, which write
``BENCH_dd_kernels.json`` / ``BENCH_zx_simplify.json``.  Here we only
guard the invariants the benchmarks rely on: the DD checkers return the
golden fixture's verdicts and stimulus digests (``tests/dd/golden_dd.json``),
the ZX checker its verdict and final counts (``tests/zx/golden_zx.json``),
and both stay fast enough for tier-1.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench.algorithms import ghz_state
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from tests.dd import golden

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


def _compiled_ghz16():
    """Table-1 cell ``compiled/ghz_16/equivalent`` of the golden fixture."""
    from repro.compile import manhattan_architecture

    original = ghz_state(16)
    return original, compile_circuit(original, manhattan_architecture())


def _golden_check(strategy):
    """Run one strategy on the GHZ-16 cell as the fixture did; time it."""
    original, compiled = _compiled_ghz16()
    config = Configuration(strategy=strategy, seed=0, static_analysis=False)
    start = time.perf_counter()
    result = EquivalenceCheckingManager(original, compiled, config).run()
    elapsed = time.perf_counter() - start
    expected = golden.load()["table1"]["compiled/ghz_16/equivalent"][strategy]
    return result, expected, elapsed


@pytest.mark.bench_smoke
def test_dd_kernel_smoke():
    result, expected, elapsed = _golden_check("alternating")
    assert result.equivalence in POSITIVE
    assert result.equivalence.value == expected["verdict"]
    for key in ("max_dd_size", "final_dd_size", "unique_nodes"):
        assert result.statistics[key] == expected[key], key
    # Generous bound: this pair takes ~0.1 s; 5 s means something broke.
    assert elapsed < 5.0


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
    """Batched simulation on the compiled GHZ-16 cell consumes the
    fixture's byte-identical stimulus sequence (same sha256 digest)."""
    result, expected, elapsed = _golden_check("simulation")
    assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
    assert result.equivalence.value == expected["verdict"]
    assert result.statistics["stimuli_digest"] == expected["stimuli_digest"]
    assert result.statistics["simulations_run"] == expected["simulations_run"]
    # Generous bound: this pair takes ~0.1 s; 5 s means something broke.
    assert elapsed < 5.0
    counters = result.statistics["perf"]["counters"]
    assert counters.get("dd.batch_width") == 16


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
    """The ZX checker reproduces its golden record on the compiled GHZ-16
    cell and stays fast."""
    from tests.zx import golden as zx_golden

    original, compiled = _compiled_ghz16()
    config = Configuration(strategy="zx", seed=0, static_analysis=False)
    start = time.perf_counter()
    result = EquivalenceCheckingManager(original, compiled, config).run()
    elapsed = time.perf_counter() - start
    assert result.equivalence in POSITIVE
    record = {"verdict": result.equivalence.value}
    record.update((key, result.statistics[key]) for key in zx_golden.FIELDS)
    assert record == (
        zx_golden.load()["table1"]["compiled/ghz_16/equivalent"]
    )
    counters = result.statistics["perf"]["counters"]
    assert counters.get("zx.rounds", 0) >= 1
    # Generous bound: this pair takes ~0.05 s; 5 s means something broke.
    assert elapsed < 5.0


def test_zx_bench_compares_counters_with_the_previous_report(tmp_path):
    """``bench_zx_simplify`` lists the cells whose ``zx.*`` counters
    moved (a new cell counts as moved) and cannot compare without a
    readable previous report."""
    from benchmarks.bench_zx_simplify import counter_changes

    previous = tmp_path / "BENCH_zx_simplify.json"
    assert counter_changes([], previous) is None
    previous.write_text(json.dumps({"cases": [
        {"case": "a", "counters": {"zx.id.rewrites": 3}},
        {"case": "b", "counters": {"zx.id.rewrites": 4}},
    ]}))
    cases = [
        {"case": "a", "counters": {"zx.id.rewrites": 3}},
        {"case": "b", "counters": {"zx.id.rewrites": 5}},
        {"case": "c", "counters": {}},
    ]
    assert counter_changes(cases, previous) == [
        ("b", {"zx.id.rewrites": 4}, {"zx.id.rewrites": 5}),
        ("c", None, {}),
    ]
    assert counter_changes(cases[:1], previous) == []
    previous.write_text("{")
    assert counter_changes(cases, previous) is None


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
    cells, but its fork overhead on cheap ones has to stay
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
