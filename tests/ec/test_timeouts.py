"""Timeout-path coverage for every strategy, the degradation of
failures into results, and validation of the robustness-related
configuration fields."""

import pytest

from repro.bench.algorithms import ghz_state
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.harness import chaos
from repro.harness.chaos import ChaosSpec

ALL_STRATEGIES = [
    "construction",
    "alternating",
    "simulation",
    "zx",
    "stabilizer",
    "state",
    "combined",
]


@pytest.fixture
def clifford_pair():
    # GHZ is Clifford, so every strategy — including the stabilizer
    # checker — accepts the pair.
    return ghz_state(4), ghz_state(4)


class TestTimeoutPathAllStrategies:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_near_zero_deadline_yields_timeout_verdict(
        self, strategy, clifford_pair
    ):
        """An already-expired deadline must surface as a TIMEOUT result,
        never as an exception — for every strategy."""
        circuit1, circuit2 = clifford_pair
        result = EquivalenceCheckingManager(
            circuit1,
            circuit2,
            Configuration(strategy=strategy, timeout=1e-9, seed=0),
        ).run()
        assert result.equivalence is Equivalence.TIMEOUT, strategy
        assert not result.considered_equivalent
        assert not result.proven
        assert result.failure["kind"] == "timeout"
        assert result.failure["diagnostics"]["hard"] is False

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_generous_deadline_still_succeeds(self, strategy, clifford_pair):
        circuit1, circuit2 = clifford_pair
        result = EquivalenceCheckingManager(
            circuit1,
            circuit2,
            Configuration(strategy=strategy, timeout=60.0, seed=0),
        ).run()
        assert result.considered_equivalent, strategy

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_check_returns_timeout_instead_of_raising(
        self, strategy, clifford_pair
    ):
        """Timeouts are an expected verdict, not a failure: check(),
        which raises every failure, still returns TIMEOUT."""
        circuit1, circuit2 = clifford_pair
        result = EquivalenceCheckingManager(
            circuit1,
            circuit2,
            Configuration(strategy=strategy, timeout=1e-9, seed=0),
        ).check()
        assert result.equivalence is Equivalence.TIMEOUT, strategy
        assert result.failure["kind"] == "timeout"


class TestDegradation:
    def test_checker_exception_degrades_to_no_information(self, clifford_pair):
        circuit1, circuit2 = clifford_pair
        chaos.activate(ChaosSpec(mode="exception"))
        try:
            result = EquivalenceCheckingManager(
                circuit1, circuit2, Configuration(strategy="combined")
            ).run()
        finally:
            chaos.deactivate()
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "crashed"
        assert "chaos" in result.failure["message"]

    def test_check_raises_what_run_degrades(self, clifford_pair):
        circuit1, circuit2 = clifford_pair
        chaos.activate(ChaosSpec(mode="exception"))
        try:
            with pytest.raises(RuntimeError):
                EquivalenceCheckingManager(
                    circuit1, circuit2, Configuration(strategy="combined")
                ).check()
        finally:
            chaos.deactivate()

    def test_memory_error_degrades_to_oom_record(self, clifford_pair):
        circuit1, circuit2 = clifford_pair
        chaos.activate(ChaosSpec(mode="memory_balloon", balloon_mb=16))
        try:
            result = EquivalenceCheckingManager(
                circuit1, circuit2, Configuration(strategy="combined")
            ).run()
        finally:
            chaos.deactivate()
        assert result.equivalence is Equivalence.NO_INFORMATION
        assert result.failure["kind"] == "out_of_memory"

    def test_success_leaves_no_failure_record(self, clifford_pair):
        circuit1, circuit2 = clifford_pair
        result = EquivalenceCheckingManager(
            circuit1, circuit2, Configuration(strategy="combined")
        ).run()
        assert result.failure is None


class TestConfigurationValidation:
    @pytest.mark.parametrize("timeout", [0, -1, -0.5, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            Configuration(timeout=timeout).validate()

    @pytest.mark.parametrize("timeout", ["10", True, [1]])
    def test_non_numeric_timeout_rejected(self, timeout):
        with pytest.raises((ValueError, TypeError)):
            Configuration(timeout=timeout).validate()

    def test_none_timeout_means_unlimited(self):
        Configuration(timeout=None).validate()

    @pytest.mark.parametrize("limit", [0, -64, 1.5, "256", True])
    def test_bad_memory_limit_rejected(self, limit):
        with pytest.raises((ValueError, TypeError)):
            Configuration(memory_limit_mb=limit).validate()

    def test_valid_memory_limit_accepted(self):
        Configuration(memory_limit_mb=512).validate()

    @pytest.mark.parametrize("retries", [-1, 0.5, "2", True])
    def test_bad_max_retries_rejected(self, retries):
        with pytest.raises((ValueError, TypeError)):
            Configuration(max_retries=retries).validate()

    def test_zero_retries_accepted(self):
        Configuration(max_retries=0).validate()
