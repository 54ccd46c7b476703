"""Manager integration of the static pre-pass and the analysis strategy."""

import dataclasses

from repro.analysis import analyze_pair
from repro.circuit.circuit import QuantumCircuit
from repro.ec import Configuration, EquivalenceCheckingManager, logical_pair
from repro.ec.results import Equivalence


def _neq_pair():
    """A pair the pre-pass decides statically (idle-wire mismatch)."""
    a = QuantumCircuit(3).h(0).cx(0, 1)
    b = QuantumCircuit(3).h(0).cx(0, 1).x(2)
    return a, b


def _clifford_pair():
    a = QuantumCircuit(2).h(0).cx(0, 1)
    b = QuantumCircuit(2).h(0).cx(0, 1)
    return a, b


class TestShortCircuit:
    def test_sound_neq_short_circuits_combined(self):
        manager = EquivalenceCheckingManager(*_neq_pair())
        result = manager.run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.strategy == "combined"
        analysis = result.statistics["analysis"]
        assert analysis["verdict"] == "not_equivalent"
        assert analysis["witness"]["kind"] == "idle_wire_mismatch"
        # No checker ran: the short-circuit must not have touched the
        # simulation or DD paths.
        assert "simulations_run" not in result.statistics
        assert "max_dd_size" not in result.statistics

    def test_short_circuit_applies_to_single_strategies(self):
        for strategy in ("alternating", "construction", "zx", "simulation"):
            manager = EquivalenceCheckingManager(
                *_neq_pair(), Configuration(strategy=strategy)
            )
            result = manager.run()
            assert result.equivalence is Equivalence.NOT_EQUIVALENT, strategy
            assert "analysis" in result.statistics, strategy

    def test_positive_proof_does_not_short_circuit(self):
        # The spec short-circuits *only* sound NEQ witnesses; an
        # equivalent pair still runs the configured checker.
        a = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        b = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        result = EquivalenceCheckingManager(a, b).run()
        assert result.considered_equivalent
        # The checker genuinely ran.
        assert "combined_schedule" in result.statistics

    def test_state_strategy_opts_out(self):
        # rz(θ) versus the empty circuit: unitarily non-equivalent, but
        # both prepare |0> up to global phase.  The unitary-level
        # pre-pass must not override the state checker's semantics.
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).rz(0.4, 0)
        result = EquivalenceCheckingManager(
            a, b, Configuration(strategy="state")
        ).run()
        assert result.considered_equivalent
        assert "analysis" not in result.statistics


class TestDispatchSeam:
    def test_every_entry_point_exercises_the_prepass(self):
        # Regression: run() and check() (the fuzz oracle's and the
        # harness's entry points) go through one dispatch seam, static
        # pre-pass included — otherwise the fuzzer would never exercise
        # the code path users hit.
        manager = EquivalenceCheckingManager(
            *_neq_pair(), Configuration(strategy="combined")
        )
        for result in (manager.run(), manager.check()):
            assert result.equivalence is Equivalence.NOT_EQUIVALENT
            assert result.statistics["analysis"]["verdict"] == (
                "not_equivalent"
            )

    def test_run_respects_static_analysis_flag(self):
        manager = EquivalenceCheckingManager(
            *_neq_pair(), Configuration(static_analysis=False)
        )
        result = manager.run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert "analysis" not in result.statistics
        assert result.statistics["simulations_run"] >= 1


class TestAdvisor:
    def test_clifford_pair_prepends_stabilizer(self):
        result = EquivalenceCheckingManager(*_clifford_pair()).run()
        # The plan puts the stabilizer first and it decided: the
        # schedule lists only the stages that ran.
        assert result.statistics["combined_schedule"] == ["stabilizer"]
        # The stabilizer stage proved it; no simulations were needed.
        assert result.equivalence in (
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        )
        assert "simulations_run" not in result.statistics

    def test_non_clifford_pair_keeps_default_schedule(self):
        a = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        b = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        result = EquivalenceCheckingManager(a, b).run()
        assert result.statistics["combined_schedule"] == [
            "simulation",
            "alternating",
        ]
        assert result.statistics["simulations_run"] >= 1

    def test_falsified_pair_stops_after_the_stimuli(self):
        # Wider than the dense fragment comparison, so the pre-pass
        # leaves it to the checkers; a Z on one wire is a phase the
        # stimuli catch.
        a = QuantumCircuit(8).h(0)
        for q in range(7):
            a.cx(q, q + 1)
        a.t(7)
        b = a.copy().z(3)
        result = EquivalenceCheckingManager(a, b).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.statistics["analysis"]["verdict"] == "undecided"
        assert result.statistics["combined_schedule"] == ["simulation"]

    def test_plan_matches_analyze_pair(self):
        a, b = _clifford_pair()
        report = analyze_pair(logical_pair(a, b))
        assert report.clifford
        assert report.to_dict()["lanes"] == [
            "stabilizer", "simulation", "alternating", "zx", "construction",
        ]
        result = EquivalenceCheckingManager(a, b).run()
        assert result.statistics["analysis"]["lanes"] == (
            report.to_dict()["lanes"]
        )


class TestAnalysisStrategy:
    def test_neq_verdict(self):
        result = EquivalenceCheckingManager(
            *_neq_pair(), Configuration(strategy="analysis")
        ).run()
        assert result.equivalence is Equivalence.NOT_EQUIVALENT
        assert result.strategy == "analysis"

    def test_undecided_is_no_information(self):
        result = EquivalenceCheckingManager(
            *_clifford_pair(), Configuration(strategy="analysis")
        ).run()
        assert result.equivalence is Equivalence.NO_INFORMATION

    def test_positive_proof_on_factorizable_pair(self):
        a = QuantumCircuit(4).h(0).cx(0, 1).t(2).cx(2, 3)
        b = QuantumCircuit(4).h(0).cx(0, 1).t(2).cx(2, 3)
        result = EquivalenceCheckingManager(
            a, b, Configuration(strategy="analysis")
        ).run()
        assert result.equivalence is Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE

    def test_perf_counters_use_analysis_namespace(self):
        result = EquivalenceCheckingManager(
            *_neq_pair(), Configuration(strategy="analysis")
        ).run()
        perf = result.statistics["perf"]
        assert all(
            name.startswith("analysis.")
            for name in perf["phase_seconds"]
        )
        assert perf["counters"]["analysis.runs"] == 1

    def test_configuration_accepts_analysis_strategy(self):
        config = Configuration(strategy="analysis")
        config.validate()
        config = dataclasses.replace(config, strategy="nonsense")
        try:
            config.validate()
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("invalid strategy accepted")


class TestTimeoutBehaviour:
    def test_prepass_respects_deadline(self):
        import pytest

        from repro.analysis import analyze_pair as ap
        from repro.errors import CheckTimeout

        a, b = _neq_pair()
        with pytest.raises(CheckTimeout) as raised:
            ap(logical_pair(a, b), deadline=0.0)  # already expired
        assert raised.value.diagnostics["hard"] is False
