"""Tests for the column checker (`repro.ec.sim_checker`): one verdict over
overlaps, and the exhaustive mode the combined schedule hands a proof to.

Which proof decides a combined check depends on measured time, so the
tests force each path by monkeypatching the exhaustion's price: 0 hands
over at the first gate, infinity never.  Both paths must give the same
label, and the exhaustive verdict must equal dense truth.
"""

import math
import random

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.circuit.unitary import circuit_unitary, hilbert_schmidt_fidelity
from repro.ec import Configuration, EquivalenceCheckingManager, logical_pair
from repro.ec.results import Equivalence
from repro.ec.sim_checker import (
    ColumnChecker,
    basis_index,
    column_verdict,
    simulation_check,
    state_check,
)
from repro.ec.stimuli import generate_stimulus, prepare_stimulus_state
from repro.errors import CheckTimeout
from repro.fuzz.generator import FAMILIES, generate_instance
from tests.dd import golden

EQ = Equivalence.EQUIVALENT
GP = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
NEQ = Equivalence.NOT_EQUIVALENT
PROBABLY = Equivalence.PROBABLY_EQUIVALENT

#: Fuzz seeds per family checked against dense truth and across paths.
FUZZ_SEEDS = range(20)


def _verdict(overlaps, complete=True):
    return column_verdict(overlaps, complete, 1e-8, 1e-13)


def dense_truth(pair) -> Equivalence:
    """The verdict of the pair's dense unitaries on the active register."""
    n = pair.active_qubits
    u1 = circuit_unitary(QuantumCircuit(n, operations=pair.circuit1.operations))
    u2 = circuit_unitary(QuantumCircuit(n, operations=pair.circuit2.operations))
    if np.allclose(u1, u2, atol=1e-8):
        return EQ
    if abs(hilbert_schmidt_fidelity(u1, u2) - 1.0) < 1e-8:
        return GP
    return NEQ


def force(monkeypatch, price):
    """Make every exhaustion cost ``price`` seconds."""
    monkeypatch.setattr(ColumnChecker, "price", lambda self: price)


def combined(circuit1, circuit2, **overrides):
    config = Configuration(seed=0, static_analysis=False, **overrides)
    return EquivalenceCheckingManager(circuit1, circuit2, config).run()


def concrete_fuzz_pairs():
    """``(id, circuit1, circuit2)`` of every family at FUZZ_SEEDS.

    Symbolic pairs are taken at a seeded valuation, as the golden
    fixture takes them.
    """
    for family in FAMILIES:
        for seed in FUZZ_SEEDS:
            _, pair = generate_instance(seed, family)
            circuit1, circuit2 = pair.circuit1, pair.circuit2
            if is_symbolic_circuit(circuit1) or is_symbolic_circuit(circuit2):
                rng = random.Random(seed)
                names = sorted(
                    set(circuit_parameters(circuit1))
                    | set(circuit_parameters(circuit2))
                )
                valuation = {
                    name: rng.uniform(-math.pi, math.pi) for name in names
                }
                circuit1 = instantiate_circuit(circuit1, valuation)
                circuit2 = instantiate_circuit(circuit2, valuation)
            yield f"{family}/{seed}", circuit1, circuit2


FUZZ_PAIRS = list(concrete_fuzz_pairs())

#: Table-1 cells narrow enough for dense truth, without the two slow
#: instances (``tests/dd/slow_checks.py`` covers those).
NARROW_CELLS = [
    cell for cell in golden.cell_ids(slow=False)
    if logical_pair(*golden.table1_cells()[cell]).active_qubits <= 10
]


class TestColumnVerdict:
    def test_fidelity_drop_is_not_equivalent(self):
        assert _verdict([1, 0.5 + 0.5j, 1]) == (NEQ, 2)

    def test_phase_spread_is_not_equivalent(self):
        # Every fidelity is 1, but the two columns differ in phase.
        assert _verdict([1j, -1j, 1j]) == (NEQ, 2)
        assert _verdict([1j, -1j], complete=False) == (NEQ, 2)

    def test_a_small_phase_spread_turns_later(self):
        phase = np.exp(0.5j)
        assert _verdict([1, 1, 1, phase, phase, phase])[0] is NEQ

    def test_complete_agreement_is_a_proof(self):
        assert _verdict([1, 1, 1, 1]) == (EQ, None)
        phase = np.exp(0.3j)
        assert _verdict([phase] * 4) == (GP, None)

    def test_strict_subset_agreement_is_evidence(self):
        assert _verdict([1, 1, 1], complete=False) == (PROBABLY, None)

    def test_numerical_noise_is_tolerated(self):
        phase = np.exp(0.3j)
        noisy = [phase * np.exp(1e-7j * k) for k in range(8)]
        assert _verdict(noisy) == (GP, None)


class TestBasisIndex:
    @pytest.mark.parametrize("seed", range(5))
    def test_classical_stimulus_prepares_its_basis_column(self, seed):
        from repro.dd import ArrayDDPackage

        pkg = ArrayDDPackage()
        rng = random.Random(seed)
        stimulus = generate_stimulus("classical", 6, 5, rng)
        index = basis_index(stimulus)
        assert index is not None and index < 2**5
        assert prepare_stimulus_state(pkg, stimulus, 6) == pkg.basis_state(
            6, index
        )

    def test_quantum_stimulus_is_no_basis_column(self):
        assert basis_index(QuantumCircuit(2).x(0).h(1)) is None
        assert basis_index(QuantumCircuit(2).x(0).x(0)) is None
        assert basis_index(QuantumCircuit(2)) == 0


class TestExhaustion:
    @pytest.mark.parametrize("cell", NARROW_CELLS)
    def test_table1_cell_matches_dense_truth(self, cell):
        pair = logical_pair(*golden.table1_cells()[cell])
        verdict, statistics = ColumnChecker(pair).exhaust()
        assert verdict is dense_truth(pair)
        assert statistics["columns_simulated"] == 2 ** max(
            pair.active_qubits, pair.data_qubits
        )

    @pytest.mark.parametrize(
        "name,circuit1,circuit2", FUZZ_PAIRS, ids=[p[0] for p in FUZZ_PAIRS]
    )
    def test_fuzz_pair_matches_dense_truth(self, name, circuit1, circuit2):
        pair = logical_pair(circuit1, circuit2)
        verdict, _ = ColumnChecker(pair).exhaust()
        assert verdict is dense_truth(pair)

    def test_reuses_every_drawn_basis_column(self):
        pair = logical_pair(QuantumCircuit(5), QuantumCircuit(5).h(0).h(0))
        columns = ColumnChecker(pair, Configuration(seed=0))
        simulation_check(pair, Configuration(seed=0), columns=columns)
        drawn = len(columns.overlaps)
        assert 0 < drawn < 32
        assert columns.price() > 0
        verdict, statistics = columns.exhaust()
        assert verdict is EQ
        assert statistics["columns_reused"] == drawn
        assert statistics["columns_simulated"] == 32 - drawn
        assert sorted(columns.overlaps) == list(range(32))

    def test_quantum_stimuli_leave_every_column_undrawn(self):
        pair = logical_pair(QuantumCircuit(3).h(0), QuantumCircuit(3).h(0))
        config = Configuration(seed=0, stimuli_type="global_quantum")
        columns = ColumnChecker(pair, config)
        simulation_check(pair, config, columns=columns)
        assert columns.overlaps == {}
        assert columns.price() == pytest.approx(8 * columns.seconds / 16)

    def test_phase_on_undrawn_column_is_found(self):
        # The stimuli miss it; the exhaustion must simulate the undrawn
        # columns rather than decide on the stimuli's overlaps.
        circuit1 = QuantumCircuit(5)
        circuit2 = QuantumCircuit(5).mcz([0, 1, 2, 3], 4)
        pair = logical_pair(circuit1, circuit2)
        columns = ColumnChecker(pair, Configuration(seed=0))
        stimuli = simulation_check(pair, Configuration(seed=0), columns=columns)
        assert stimuli.equivalence is PROBABLY
        assert 31 not in columns.overlaps
        verdict, statistics = columns.exhaust()
        assert verdict is NEQ
        assert statistics["first_mismatch"] == 32


class TestCombinedHandOver:
    @pytest.mark.parametrize(
        "cell", [c for c in NARROW_CELLS if c.endswith("/equivalent")]
    )
    def test_both_paths_give_one_label_on_table1(self, monkeypatch, cell):
        circuit1, circuit2 = golden.table1_cells()[cell]
        force(monkeypatch, 0.0)
        columns = combined(circuit1, circuit2)
        force(monkeypatch, math.inf)
        alternating = combined(circuit1, circuit2)
        assert columns.statistics["columns"]["proof"] == "columns"
        assert alternating.statistics["columns"]["proof"] == "alternating"
        assert columns.equivalence is alternating.equivalence
        assert columns.equivalence is dense_truth(
            logical_pair(circuit1, circuit2)
        )

    @pytest.mark.parametrize(
        "name,circuit1,circuit2", FUZZ_PAIRS, ids=[p[0] for p in FUZZ_PAIRS]
    )
    def test_both_paths_give_one_label_on_fuzz(
        self, monkeypatch, name, circuit1, circuit2
    ):
        force(monkeypatch, 0.0)
        columns = combined(circuit1, circuit2)
        force(monkeypatch, math.inf)
        alternating = combined(circuit1, circuit2)
        assert columns.equivalence is alternating.equivalence
        assert columns.equivalence is dense_truth(
            logical_pair(circuit1, circuit2)
        )

    @pytest.mark.parametrize("oracle", ("proportional", "lookahead"))
    def test_forced_columns_decide_a_miss(self, monkeypatch, oracle):
        force(monkeypatch, 0.0)
        result = combined(
            QuantumCircuit(5), QuantumCircuit(5).mcz([0, 1, 2, 3], 4),
            oracle=oracle,
        )
        assert result.equivalence is NEQ
        block = result.statistics["columns"]
        assert block["proof"] == "columns"
        assert block["steps_done"] == 0
        assert block["steps"] == 1
        assert block["columns_reused"] + block["columns_simulated"] == 32
        assert block["first_mismatch"] == 32

    def test_alternating_reports_what_it_did_not_hand_over(
        self, monkeypatch
    ):
        force(monkeypatch, math.inf)
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        result = combined(circuit, circuit.copy())
        block = result.statistics["columns"]
        assert block["proof"] == "alternating"
        assert block["steps_done"] == block["steps"] == 6
        assert block["columns_simulated"] == 0
        assert "hilbert_schmidt_fidelity" in result.statistics

    def test_simulation_block_keeps_the_stimuli_perf(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        result = combined(circuit, circuit.copy())
        phases = result.statistics["simulation"]["perf"]["phase_seconds"]
        assert {"stimulus_preparation", "simulation", "fidelity"} <= set(
            phases
        )

    def test_exhaustion_honours_the_deadline(self):
        columns = ColumnChecker(
            logical_pair(QuantumCircuit(4).h(0), QuantumCircuit(4).h(0))
        )
        with pytest.raises(CheckTimeout) as raised:
            columns.exhaust(deadline=0.0)
        assert raised.value.diagnostics["hard"] is False

    def test_block_building_honours_the_deadline(self, monkeypatch):
        import repro.ec.sim_checker as sim_checker

        monkeypatch.setattr(
            sim_checker, "_simulate",
            lambda *args: pytest.fail("simulated past the deadline"),
        )
        pair = logical_pair(QuantumCircuit(4).h(0), QuantumCircuit(4).h(0))
        with pytest.raises(CheckTimeout) as raised:
            state_check(pair, deadline=0.0)
        assert raised.value.diagnostics["hard"] is False

    def test_stimuli_and_exhaustion_share_one_set_of_blocks(self):
        circuit = QuantumCircuit(4).h(0).cx(0, 1).t(1).ccx(0, 1, 2).h(3)
        pair = logical_pair(circuit, circuit.copy())
        columns = ColumnChecker(pair, Configuration(seed=0))
        stimuli = simulation_check(pair, Configuration(seed=0), columns=columns)
        counters = stimuli.statistics["perf"]["counters"]
        assert counters["dd.blocks_built"] == 4
        assert counters["dd.block_operations"] == 10
        blocks = columns.blocks
        verdict, statistics = columns.exhaust()
        assert verdict is EQ
        assert columns.blocks is blocks
        assert "dd.blocks_built" not in statistics["perf"]["counters"]

    def test_standalone_alternating_never_hands_over(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2)
        result = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="alternating")
        ).run()
        assert "columns" not in result.statistics
        assert result.statistics["final_dd_size"] >= 1
