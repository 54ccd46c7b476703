"""Instantiation-agreement property suite for the parameterized checker.

The core contract: whatever the ``parameterized`` strategy concludes
about a symbolic pair must agree with the dense-unitary ground truth at
every seeded valuation — the symbolic paths claim *all* valuations, the
instantiation fallback claims the sampled ones, and a recorded
``NOT_EQUIVALENT`` witness valuation must actually separate the pair.
"""

import dataclasses
import math
import random

import pytest

from repro.circuit import (
    QuantumCircuit,
    circuit_unitary,
    unitaries_equivalent,
)
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    symbol,
)
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.param_checker import (
    check_instantiated_random,
    draw_valuations,
    parameterized_check,
)
from repro.ec.permutations import logical_pair, to_logical_form
from repro.ec.results import Equivalence
from repro.errors import InvalidInput
from repro.fuzz.generator import generate_instance

_SEEDS = range(12)
_NUM_VALUATIONS = 8


def _dense_verdict(circuit1, circuit2, valuation):
    n = max(circuit1.num_qubits, circuit2.num_qubits)
    unitaries = []
    for circuit in (circuit1, circuit2):
        logical, _ = to_logical_form(
            instantiate_circuit(circuit, valuation), n
        )
        unitaries.append(circuit_unitary(logical))
    return unitaries_equivalent(*unitaries)


def _truth_valuations(pair):
    """The planted witness valuation first, then 8 seeded draws."""
    variables = tuple(
        sorted(
            set(circuit_parameters(pair.circuit1))
            | set(circuit_parameters(pair.circuit2))
        )
    )
    valuations = []
    planted = pair.witness.get("valuation")
    if isinstance(planted, dict):
        valuations.append(
            {name: float(planted.get(name, 0.0)) for name in variables}
        )
    valuations.extend(draw_valuations(variables, _NUM_VALUATIONS, seed=99))
    return valuations


def _dense_truth(pair):
    return all(
        _dense_verdict(pair.circuit1, pair.circuit2, valuation)
        for valuation in _truth_valuations(pair)
    )


def _run(pair, **overrides):
    config = Configuration(
        strategy="parameterized", timeout=30.0, seed=5, **overrides
    )
    manager = EquivalenceCheckingManager(pair.circuit1, pair.circuit2, config)
    return manager.run()


class TestInstantiationAgreement:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_symbolic_first_agrees_with_dense_truth(self, seed):
        _, pair = generate_instance(seed, family="parameterized")
        result = _run(pair)
        truth = _dense_truth(pair)
        if truth:
            assert result.equivalence is not Equivalence.NOT_EQUIVALENT
            assert result.considered_equivalent
        else:
            assert result.equivalence is Equivalence.NOT_EQUIVALENT

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_instantiate_only_agrees_with_dense_truth(self, seed):
        _, pair = generate_instance(seed, family="parameterized")
        result = _run(pair, parameterized_symbolic=False)
        truth = _dense_truth(pair)
        if truth:
            assert result.equivalence is not Equivalence.NOT_EQUIVALENT
            assert result.considered_equivalent
        else:
            assert result.equivalence is Equivalence.NOT_EQUIVALENT

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_neq_verdicts_carry_a_separating_witness(self, seed):
        _, pair = generate_instance(seed, family="parameterized")
        result = _run(pair)
        if result.equivalence is not Equivalence.NOT_EQUIVALENT:
            pytest.skip("pair is equivalent")
        stats = result.statistics["parameterized"]
        witness = stats["witness_valuation"]
        assert set(witness) == set(stats["variables"])
        assert not _dense_verdict(pair.circuit1, pair.circuit2, witness)


def _phase_poly_pair():
    """An {Rz, CX} pair the symbolic phase polynomial decides exactly."""
    theta = symbol("theta")
    phi = symbol("phi")
    a = QuantumCircuit(2, name="a")
    a.add("rz", [0], params=[theta])
    a.cx(0, 1)
    a.add("rz", [1], params=[2 * phi])
    a.cx(0, 1)
    b = QuantumCircuit(2, name="b")
    b.add("rz", [0], params=[theta / 2])
    b.add("rz", [0], params=[theta / 2])
    b.cx(0, 1)
    b.add("rz", [1], params=[2 * phi])
    b.cx(0, 1)
    return a, b


class TestParameterizedCheck:
    def test_symbolic_phase_polynomial_proves_equivalence(self):
        a, b = _phase_poly_pair()
        result = parameterized_check(
            logical_pair(a, b), a, b, Configuration(seed=0)
        )
        assert result.considered_equivalent
        assert result.proven
        stats = result.statistics["parameterized"]
        assert stats["path"] == "phase_polynomial"

    def test_affine_mismatch_is_valuation_independent_neq(self):
        theta = symbol("theta")
        a = QuantumCircuit(2)
        a.add("rz", [0], params=[theta])
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.add("rz", [0], params=[theta])
        result = parameterized_check(
            logical_pair(a, b), a, b, Configuration(seed=0)
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        stats = result.statistics["parameterized"]
        assert "witness_valuation" in stats

    def test_coefficient_defect_caught_by_instantiation(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("ry", [0], params=[theta])
        b = QuantumCircuit(1)
        b.add("ry", [0], params=[2 * theta])
        result = parameterized_check(
            logical_pair(a, b), a, b, Configuration(seed=0)
        )
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        stats = result.statistics["parameterized"]
        assert stats["path"] == "instantiation"
        assert not _dense_verdict(a, b, stats["witness_valuation"])

    def test_probably_equivalent_is_evidence_not_proof(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("ry", [0], params=[theta])
        a.add("h", [0])
        b = QuantumCircuit(1)
        b.add("ry", [0], params=[theta])
        b.add("h", [0])
        result = parameterized_check(
            logical_pair(a, b),
            a,
            b,
            Configuration(seed=0, parameterized_symbolic=False),
        )
        assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
        assert result.considered_equivalent
        assert not result.proven

    def test_timeout_degrades_to_timeout_verdict(self):
        a, b = _phase_poly_pair()
        config = Configuration(
            strategy="parameterized", timeout=1e-9, seed=0
        )
        result = EquivalenceCheckingManager(a, b, config).run()
        assert result.equivalence is Equivalence.TIMEOUT


class TestCheckInstantiatedRandom:
    def test_all_positive_yields_probably_equivalent(self):
        a, b = _phase_poly_pair()
        verdict, stats = check_instantiated_random(
            a, b, Configuration(seed=1, num_instantiations=4)
        )
        assert verdict is Equivalence.PROBABLY_EQUIVALENT
        assert stats["instantiations_run"] == 4
        assert len(stats["outcomes"]) == 4

    def test_neq_short_circuits_with_witness(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("rx", [0], params=[theta])
        b = QuantumCircuit(1)
        b.add("rx", [0], params=[theta + 0.3])
        verdict, stats = check_instantiated_random(
            a, b, Configuration(seed=1, num_instantiations=6)
        )
        assert verdict is Equivalence.NOT_EQUIVALENT
        assert stats["witness_index"] == 0
        assert stats["instantiations_run"] == 1
        assert not _dense_verdict(a, b, stats["witness_valuation"])


class TestDrawValuations:
    def test_deterministic_and_in_range(self):
        first = draw_valuations(("a", "b"), 5, seed=3)
        second = draw_valuations(("a", "b"), 5, seed=3)
        assert first == second
        assert len(first) == 5
        for valuation in first:
            assert set(valuation) == {"a", "b"}
            for value in valuation.values():
                assert 0.0 <= value < 2 * math.pi

    def test_different_seeds_differ(self):
        assert draw_valuations(("a",), 3, seed=0) != draw_valuations(
            ("a",), 3, seed=1
        )


class TestDispatch:
    def test_concrete_pair_falls_through_to_combined(self):
        a = QuantumCircuit(1)
        a.add("h", [0])
        b = QuantumCircuit(1)
        b.add("h", [0])
        config = Configuration(strategy="parameterized", seed=0)
        result = EquivalenceCheckingManager(a, b, config).run()
        assert result.considered_equivalent
        assert result.strategy == "combined"

    def test_symbolic_pair_under_concrete_strategy_degrades(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("rz", [0], params=[theta])
        config = Configuration(strategy="zx", seed=0)
        result = EquivalenceCheckingManager(a, a.copy(), config).run()
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "invalid_input"

    def test_symbolic_pair_under_concrete_strategy_raises_strict(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("rz", [0], params=[theta])
        config = Configuration(strategy="combined", seed=0)
        with pytest.raises(InvalidInput):
            EquivalenceCheckingManager(a, a.copy(), config).check()

    def test_manager_runs_the_parameterized_strategy(self):
        theta = symbol("theta")
        a = QuantumCircuit(1)
        a.add("rz", [0], params=[theta])
        manager = EquivalenceCheckingManager(
            a, a.copy(), Configuration(strategy="parameterized", seed=0)
        )
        result = manager.run()
        assert result.considered_equivalent


class TestConfigurationKnobs:
    def test_defaults_validate(self):
        config = Configuration(strategy="parameterized")
        config.validate()
        assert config.num_instantiations == 8
        assert config.parameterized_symbolic is True

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "8"])
    def test_num_instantiations_validation(self, bad):
        with pytest.raises(ValueError):
            dataclasses.replace(
                Configuration(), num_instantiations=bad
            ).validate()

    def test_bool_knob_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                Configuration(), parameterized_symbolic="yes"
            ).validate()
