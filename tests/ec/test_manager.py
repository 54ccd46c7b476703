"""Tests for the equivalence-checking manager (`repro.ec.manager`)."""

import pytest

from repro import verify
from repro.circuit import QuantumCircuit
from repro.circuit.circuit import compiled_ghz_example, ghz_example
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.bench.errors import remove_random_gate
from tests.conftest import random_circuit

ALL_STRATEGIES = ["construction", "alternating", "simulation", "zx", "combined"]


class TestStrategyDispatch:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_equivalent_pair(self, strategy):
        result = EquivalenceCheckingManager(
            ghz_example(),
            compiled_ghz_example(),
            Configuration(strategy=strategy, seed=1),
        ).run()
        assert result.considered_equivalent

    @pytest.mark.parametrize("strategy", ["alternating", "simulation", "combined"])
    def test_non_equivalent_pair(self, strategy):
        circuit = random_circuit(4, 25, seed=1)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=5)
        result = EquivalenceCheckingManager(
            circuit, broken, Configuration(strategy=strategy, seed=1)
        ).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceCheckingManager(
                QuantumCircuit(1),
                QuantumCircuit(1),
                Configuration(strategy="magic"),
            )

    def test_invalid_oracle_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceCheckingManager(
                QuantumCircuit(1),
                QuantumCircuit(1),
                Configuration(oracle="psychic"),
            )


class TestCombinedStrategy:
    def test_early_exit_on_simulation_counterexample(self):
        circuit = random_circuit(4, 30, seed=2)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        result = EquivalenceCheckingManager(
            circuit, broken, Configuration(strategy="combined", seed=1)
        ).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.strategy == "combined"
        # the falsifying simulation count is surfaced
        assert result.statistics["simulations_run"] >= 1

    def test_proof_comes_from_alternating(self):
        circuit = random_circuit(4, 20, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        result = EquivalenceCheckingManager(
            circuit, compiled, Configuration(strategy="combined", seed=1)
        ).run()
        assert result.proven
        assert result.considered_equivalent

    def test_simulation_stage_record_survives_the_proof(self):
        circuit = random_circuit(4, 20, seed=3)
        compiled = compile_circuit(circuit, line_architecture(6))
        config = Configuration(
            strategy="combined", seed=1, static_analysis=False
        )
        result = EquivalenceCheckingManager(circuit, compiled, config).run()
        assert result.proven
        simulation = EquivalenceCheckingManager(
            circuit, compiled, Configuration(strategy="simulation", seed=1)
        ).run()
        block = result.statistics["simulation"]
        assert block["simulations_run"] == 16
        assert result.statistics["simulations_run"] == 16
        assert block["stimuli_digest"] == simulation.statistics["stimuli_digest"]
        assert block["active_qubits"] == 4
        assert 0 < block["seconds"] <= result.time
        assert "first_mismatch" not in block

    def test_no_simulation_block_when_simulation_decides(self):
        circuit = random_circuit(4, 30, seed=2)
        compiled = compile_circuit(circuit, line_architecture(6))
        broken = remove_random_gate(compiled, seed=3)
        config = Configuration(
            strategy="combined", seed=1, static_analysis=False
        )
        result = EquivalenceCheckingManager(circuit, broken, config).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert "simulation" not in result.statistics
        assert result.statistics["first_mismatch"] >= 1


class TestTimeout:
    def test_timeout_result(self):
        circuit = random_circuit(5, 60, seed=4)
        compiled = compile_circuit(circuit, line_architecture(7))
        result = EquivalenceCheckingManager(
            circuit,
            compiled,
            Configuration(strategy="combined", timeout=1e-4),
        ).run()
        assert result.equivalence is Equivalence.TIMEOUT
        assert not result.considered_equivalent
        assert not result.proven

    def test_zx_timeout(self):
        circuit = random_circuit(5, 60, seed=5)
        result = EquivalenceCheckingManager(
            circuit,
            circuit.copy(),
            Configuration(strategy="zx", timeout=1e-6),
        ).run()
        assert result.equivalence is Equivalence.TIMEOUT


class TestConfigurationFields:
    def test_the_thirteen_knobs(self):
        """Every field is a knob some CLI flag, bench or caller sets; a
        value nothing sets is a module constant instead.  A new knob
        changes this list."""
        import dataclasses

        assert [field.name for field in dataclasses.fields(Configuration)] == [
            "strategy",
            "static_analysis",
            "oracle",
            "num_simulations",
            "stimuli_type",
            "timeout",
            "trace_sizes",
            "seed",
            "memory_limit_mb",
            "max_retries",
            "portfolio",
            "num_instantiations",
            "parameterized_symbolic",
        ]


class TestVerifyHelper:
    def test_package_level_verify(self):
        assert verify(ghz_example(), compiled_ghz_example()).considered_equivalent

    def test_verify_with_config(self):
        result = verify(
            ghz_example(),
            compiled_ghz_example(),
            Configuration(strategy="zx"),
        )
        assert result.considered_equivalent


class TestResultProperties:
    def test_result_string(self):
        result = verify(ghz_example(), compiled_ghz_example())
        text = str(result)
        assert "combined" in text

    def test_probably_equivalent_not_proven(self):
        circuit = random_circuit(3, 10, seed=6)
        result = EquivalenceCheckingManager(
            circuit, circuit.copy(), Configuration(strategy="simulation")
        ).run()
        assert result.considered_equivalent
        assert not result.proven


#: Every strategy the manager dispatches on a concrete pair.
EVERY_STRATEGY = (
    "construction", "alternating", "simulation", "zx", "combined",
    "stabilizer", "state", "analysis", "parameterized",
)


def _malformed_pairs():
    """A non-injective initial layout, an out-of-range output permutation."""
    circuit = QuantumCircuit(3).h(0).cx(0, 1)
    non_injective = circuit.copy()
    non_injective.initial_layout = {0: 1, 2: 1}
    out_of_range = circuit.copy()
    out_of_range.output_permutation = {0: 7}
    return {"non_injective": non_injective, "out_of_range": out_of_range}


class TestMalformedLayouts:
    """A malformed layout degrades to ``invalid_input`` on every path."""

    @staticmethod
    def _assert_invalid_input(result):
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "invalid_input"

    @pytest.mark.parametrize("which", ("non_injective", "out_of_range"))
    @pytest.mark.parametrize("strategy", EVERY_STRATEGY)
    def test_every_strategy(self, strategy, which):
        broken = _malformed_pairs()[which]
        result = EquivalenceCheckingManager(
            QuantumCircuit(3).h(0).cx(0, 1),
            broken,
            Configuration(strategy=strategy, seed=0),
        ).run()
        self._assert_invalid_input(result)

    @pytest.mark.parametrize("which", ("non_injective", "out_of_range"))
    def test_portfolio(self, which):
        broken = _malformed_pairs()[which]
        result = EquivalenceCheckingManager(
            broken,
            QuantumCircuit(3).h(0).cx(0, 1),
            Configuration(portfolio=True, seed=0, timeout=20.0),
        ).run()
        self._assert_invalid_input(result)

    @pytest.mark.parametrize("which", ("non_injective", "out_of_range"))
    def test_isolated(self, which):
        from repro.harness import run_check

        broken = _malformed_pairs()[which]
        result = run_check(
            QuantumCircuit(3).h(0).cx(0, 1),
            broken,
            Configuration(seed=0, timeout=20.0),
            isolate=True,
        )
        self._assert_invalid_input(result)


class TestOneLogicalPairPerCheck:
    """Each check derives its logical forms exactly once: two
    ``to_logical_form`` calls, one per circuit, whatever the strategy."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls through every ``repro`` module binding of it."""
        import sys

        # Load every module that may bind the name before wrapping.
        import repro.analysis
        import repro.cli
        import repro.ec.param_checker
        import repro.ec.portfolio
        import repro.fuzz.oracle
        from repro.ec import permutations

        original = permutations.to_logical_form
        counter = []

        def counting(*args, **kwargs):
            counter.append(args[0].name)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
        return counter

    @staticmethod
    def _pair():
        circuit = random_circuit(3, 12, seed=3, gate_set="clifford_t")
        return circuit, compile_circuit(circuit, line_architecture(4))

    @pytest.mark.parametrize("strategy", EVERY_STRATEGY)
    def test_every_strategy(self, calls, strategy):
        EquivalenceCheckingManager(
            *self._pair(), Configuration(strategy=strategy, seed=0)
        ).run()
        assert len(calls) == 2

    @pytest.mark.parametrize("static_analysis", (True, False))
    def test_combined_with_and_without_the_prepass(
        self, calls, static_analysis
    ):
        config = Configuration(seed=0, static_analysis=static_analysis)
        EquivalenceCheckingManager(*self._pair(), config).run()
        assert len(calls) == 2

    def test_symbolic_parameterized_pair(self, calls):
        from tests.ec.test_parameterized import _phase_poly_pair

        result = EquivalenceCheckingManager(
            *_phase_poly_pair(),
            Configuration(strategy="parameterized", seed=0),
        ).run()
        assert result.statistics["parameterized"]["path"] in (
            "phase_polynomial",
            "zx_symbolic",
        )
        assert len(calls) == 2

    @pytest.mark.parametrize("static_analysis", (True, False))
    def test_portfolio_parent(self, calls, static_analysis):
        config = Configuration(
            portfolio=True,
            seed=0,
            timeout=20.0,
            static_analysis=static_analysis,
        )
        result = EquivalenceCheckingManager(*self._pair(), config).run()
        assert result.considered_equivalent
        assert len(calls) == 2

    def test_every_result_reports_the_swap_bookkeeping(self):
        circuit = ghz_example()
        for strategy in EVERY_STRATEGY:
            result = EquivalenceCheckingManager(
                circuit,
                compiled_ghz_example(),
                Configuration(strategy=strategy, seed=0),
            ).run()
            permutations = result.statistics["permutations"]
            assert permutations["circuit2"]["swaps_reconstructed"] == 1
            assert permutations["circuit1"]["swaps_elided"] == 0
