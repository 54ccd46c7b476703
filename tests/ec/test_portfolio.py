"""The concurrent strategy portfolio (:mod:`repro.ec.portfolio`):
advisor seeding, deterministic winner attribution, fallback selection,
and the manager-level guarantees around racing."""

import pytest

from repro.analysis import estimate_cost, profile_gate_set, seed_portfolio
from repro.analysis.cost import PORTFOLIO_HEAD_START
from repro.bench.algorithms import ghz_state, qft
from repro.compile import (
    compile_circuit,
    line_architecture,
    manhattan_architecture,
)
from repro.ec import Configuration, EquivalenceCheckingManager, logical_pair
from repro.ec.portfolio import (
    _select_fallback,
    loser_kill_codes,
    plan_portfolio,
    portfolio_winner,
)
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import PortfolioDisagreement
from repro.harness.race import ChildOutcome

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


@pytest.fixture(scope="module")
def tiny_pair():
    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(7))
    return original, compiled


def _portfolio_config(**overrides):
    options = dict(
        strategy="combined",
        portfolio=True,
        static_analysis=False,
        timeout=30.0,
        seed=0,
    )
    options.update(overrides)
    return Configuration(**options)


class TestWinnerAttribution:
    def test_zx_wins_the_compiled_ghz_cell(self):
        """Deterministic-seed winner attribution on a fixed Table-1 pair.

        On the compiled GHZ-16 cell the advisor launches ZX at t=0 and it
        proves equivalence up to global phase roughly an order of
        magnitude before any DD lane — the attribution is stable across
        runs (same seed, same plan, same margin)."""
        original = ghz_state(16)
        compiled = compile_circuit(original, manhattan_architecture())
        manager = EquivalenceCheckingManager(
            original, compiled, _portfolio_config()
        )
        result = manager.run()
        assert result.strategy == "portfolio"
        assert result.equivalence in POSITIVE
        assert portfolio_winner(result) == "zx"
        block = result.statistics["portfolio"]
        assert block["sound"] is True
        assert block["all_reaped"] is True
        assert block["perf"]["counters"]["portfolio.sound_wins"] == 1
        # Every loser was either killed with a recorded code or genuinely
        # completed/was never launched — nothing is unaccounted for.
        accounted = {"completed", "failed", "killed", "skipped"}
        assert {c["status"] for c in block["children"]} <= accounted
        for name, code in loser_kill_codes(result).items():
            assert name != "zx"
            assert code in ("loser", "budget", "deadline")

    def test_statistics_block_reports_the_plan(self, tiny_pair):
        manager = EquivalenceCheckingManager(
            *tiny_pair, _portfolio_config()
        )
        result = manager.run()
        block = result.statistics["portfolio"]
        planned = [slot["strategy"] for slot in block["plan"]]
        assert block["preferred_checker"] in planned
        assert "simulation" in planned
        assert block["winner"] in planned
        assert any("portfolio" in line for line in block["rationale"])


class TestPlanSeeding:
    @staticmethod
    def _plan_for(circuit1, circuit2):
        return plan_portfolio(logical_pair(circuit1, circuit2))

    def test_stabilizer_joins_only_clifford_pairs(self):
        clifford = ghz_state(6)
        clifford_plan = self._plan_for(clifford, clifford)
        strategies = [slot.strategy for slot in clifford_plan.slots]
        assert "stabilizer" in strategies

        non_clifford = qft(4)
        plan = self._plan_for(non_clifford, non_clifford)
        assert "stabilizer" not in [slot.strategy for slot in plan.slots]

    def test_two_zero_delay_lanes_then_head_start(self, tiny_pair):
        plan = self._plan_for(*tiny_pair)
        delays = [slot.delay for slot in plan.slots]
        assert PORTFOLIO_HEAD_START == 0.25
        assert delays[:2] == [0.0, 0.0]
        assert len(delays) > 2
        assert all(delay == PORTFOLIO_HEAD_START for delay in delays[2:])
        assert any("0.25s head start" in line for line in plan.rationale)
        # The predicted winner races from t=0 alongside the simulation
        # falsifier.
        front = {plan.slots[0].strategy, plan.slots[1].strategy}
        assert plan.preferred_checker in front
        assert "simulation" in front

    def test_seeder_never_drops_a_strategy(self, tiny_pair):
        profiles = tuple(profile_gate_set(c) for c in tiny_pair)
        estimate = estimate_cost(tiny_pair, profiles)
        plan = seed_portfolio(profiles, estimate)
        strategies = [slot.strategy for slot in plan.slots]
        assert sorted(strategies) == sorted(set(strategies))
        for required in ("alternating", "construction", "simulation", "zx"):
            assert required in strategies


class TestFallbackSelection:
    @staticmethod
    def _child(name, verdict):
        result = (
            None if verdict is None
            else EquivalenceCheckingResult(verdict, name, 0.0)
        )
        return ChildOutcome(
            name=name,
            status="completed" if result is not None else "killed",
            result=result,
        )

    def test_probabilistic_beats_no_information(self):
        assert _select_fallback([
            self._child("alternating", Equivalence.NO_INFORMATION),
            self._child("simulation", Equivalence.PROBABLY_EQUIVALENT),
        ]) == "simulation"

    def test_no_information_beats_timeout(self):
        assert _select_fallback([
            self._child("alternating", Equivalence.TIMEOUT),
            self._child("stabilizer", Equivalence.NO_INFORMATION),
        ]) == "stabilizer"

    def test_ties_break_on_completion_order(self):
        assert _select_fallback([
            self._child("zx", Equivalence.NO_INFORMATION),
            self._child("stabilizer", Equivalence.NO_INFORMATION),
        ]) == "zx"

    def test_no_survivors_means_no_fallback(self):
        assert _select_fallback([
            self._child("alternating", None),
            self._child("zx", None),
        ]) is None


class TestManagerIntegration:
    def test_run_single_leaves_configuration_untouched(self, tiny_pair):
        """Regression: ``run_single`` used to mutate the manager's own
        configuration; under the portfolio it must thread an explicit
        override instead."""
        config = _portfolio_config()
        manager = EquivalenceCheckingManager(*tiny_pair, config)
        result = manager.run_single("alternating")
        assert result.strategy == "alternating"
        assert manager.configuration is config
        assert manager.configuration.strategy == "combined"
        assert manager.configuration.portfolio is True
        # The full portfolio run still works afterwards.
        raced = manager.run()
        assert raced.strategy == "portfolio"
        assert raced.equivalence in POSITIVE

    def test_run_single_combined_keeps_the_race(self, tiny_pair):
        manager = EquivalenceCheckingManager(*tiny_pair, _portfolio_config())
        result = manager.run_single("combined")
        assert result.strategy == "portfolio"
        assert portfolio_winner(result) is not None

    def test_disagreement_is_never_degraded(self, tiny_pair, monkeypatch):
        """A cross-child contradiction must surface as a hard error, not
        be swallowed into a NO_INFORMATION result."""
        import repro.ec.portfolio as portfolio_module

        def exploding(*args, **kwargs):
            raise PortfolioDisagreement(
                "injected contradiction", positive="zx", negative="simulation"
            )

        monkeypatch.setattr(portfolio_module, "run_portfolio", exploding)
        manager = EquivalenceCheckingManager(*tiny_pair, _portfolio_config())
        with pytest.raises(PortfolioDisagreement):
            manager.run()

    def test_sequential_and_portfolio_agree_on_polarity(self, tiny_pair):
        sequential = EquivalenceCheckingManager(
            *tiny_pair,
            Configuration(strategy="combined", static_analysis=False,
                          timeout=30.0, seed=0),
        ).run()
        raced = EquivalenceCheckingManager(
            *tiny_pair, _portfolio_config()
        ).run()
        assert sequential.equivalence in POSITIVE
        assert raced.equivalence in POSITIVE
