"""The one plan and the concurrent strategy portfolio
(:mod:`repro.ec.portfolio`): the planner's stage order, offsets and
launch order, both executors reading one plan, deterministic winner
attribution, fallback selection, and the manager-level guarantees
around racing."""

import pytest

from repro.analysis import analyze_pair
from repro.bench.algorithms import ghz_state, qft
from repro.circuit.circuit import QuantumCircuit
from repro.compile import (
    compile_circuit,
    line_architecture,
    manhattan_architecture,
)
from repro.ec import Configuration, EquivalenceCheckingManager, logical_pair
from repro.ec.portfolio import (
    DEFAULT_PLAN,
    PORTFOLIO_HEAD_START,
    _select_fallback,
    loser_kill_codes,
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

        On the compiled GHZ-16 cell the pre-pass plan launches ZX at t=0
        and it proves equivalence up to global phase roughly an order of
        magnitude before any DD lane — the attribution is stable across
        runs (same seed, same plan, same margin).  Without the pre-pass
        the default plan races the alternating proof at t=0 instead."""
        original = ghz_state(16)
        compiled = compile_circuit(original, manhattan_architecture())
        manager = EquivalenceCheckingManager(
            original, compiled, _portfolio_config(static_analysis=True)
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


def _plan_for(circuit1, circuit2):
    return analyze_pair(logical_pair(circuit1, circuit2)).plan


#: One pair per preference of the planner, with the stage order, offsets
#: and launch order it plans.  H is the 0.25 s head start.
H = 0.25
PLANNED = {
    "clifford": (
        ghz_state(6),
        "stabilizer",
        [("stabilizer", 0.0), ("simulation", 0.0), ("alternating", H),
         ("zx", H), ("construction", H)],
        # Behind the head start zx and alternating launch in stage order;
        # the cost model's zx_score < dd_score used to put zx first.
        ["stabilizer", "simulation", "alternating", "zx", "construction"],
    ),
    "clifford_t_zx_favoured": (
        ghz_state(6).t(5),
        "zx",
        [("simulation", 0.0), ("alternating", H), ("zx", 0.0),
         ("construction", H)],
        ["zx", "simulation", "alternating", "construction"],
    ),
    "rotation_heavy": (
        qft(4),
        "alternating",
        [("simulation", 0.0), ("alternating", 0.0), ("zx", H),
         ("construction", H)],
        ["alternating", "simulation", "zx", "construction"],
    ),
    "dd_favoured": (
        QuantumCircuit(3).h(0).cx(0, 1).t(1).cx(1, 2).tdg(2),
        "alternating",
        [("simulation", 0.0), ("alternating", 0.0), ("zx", H),
         ("construction", H)],
        ["alternating", "simulation", "zx", "construction"],
    ),
}


class TestPlanSeeding:
    @pytest.mark.parametrize("case", sorted(PLANNED))
    def test_stage_order_offsets_and_launch_order(self, case):
        circuit, preferred, lanes, launch = PLANNED[case]
        plan = _plan_for(circuit, circuit)
        assert plan.preferred_checker == preferred
        assert list(plan.lanes) == lanes
        assert [strategy for strategy, _ in plan.launch_order()] == launch
        assert any(
            "portfolio" in line and "0.25s head start" in line
            for line in plan.rationale
        )

    def test_stabilizer_joins_only_clifford_pairs(self):
        clifford = ghz_state(6)
        strategies = [s for s, _ in _plan_for(clifford, clifford).lanes]
        assert "stabilizer" in strategies

        non_clifford = qft(4)
        plan = _plan_for(non_clifford, non_clifford)
        assert "stabilizer" not in [s for s, _ in plan.lanes]

    def test_two_zero_delay_lanes_then_head_start(self, tiny_pair):
        plan = _plan_for(*tiny_pair)
        offsets = [offset for _, offset in plan.launch_order()]
        assert PORTFOLIO_HEAD_START == 0.25
        assert offsets[:2] == [0.0, 0.0]
        assert len(offsets) > 2
        assert all(offset == PORTFOLIO_HEAD_START for offset in offsets[2:])
        assert any("0.25s head start" in line for line in plan.rationale)
        # The preferred checker races from t=0 alongside the simulation
        # falsifier.
        front = {strategy for strategy, _ in plan.launch_order()[:2]}
        assert front == {plan.preferred_checker, "simulation"}

    def test_seeder_never_drops_a_strategy(self, tiny_pair):
        strategies = [s for s, _ in _plan_for(*tiny_pair).lanes]
        assert sorted(strategies) == sorted(set(strategies))
        for required in ("alternating", "construction", "simulation", "zx"):
            assert required in strategies

    def test_default_plan_is_the_dd_favoured_layout(self):
        circuit, _, lanes, launch = PLANNED["dd_favoured"]
        assert list(DEFAULT_PLAN.lanes) == lanes
        assert [s for s, _ in DEFAULT_PLAN.launch_order()] == launch
        assert DEFAULT_PLAN.preferred_checker == "alternating"
        assert any(
            "portfolio" in line and "0.25s head start" in line
            for line in DEFAULT_PLAN.rationale
        )


class TestOnePlanTwoExecutors:
    @staticmethod
    def _run(circuit1, circuit2, **overrides):
        options = dict(strategy="combined", timeout=30.0, seed=0)
        options.update(overrides)
        return EquivalenceCheckingManager(
            circuit1, circuit2, Configuration(**options)
        ).run()

    @staticmethod
    def _raced_lanes(result):
        return [
            (lane["strategy"], lane["offset"])
            for lane in result.statistics["portfolio"]["plan"]
        ]

    def test_the_race_runs_the_reports_plan(self, tiny_pair):
        plan = _plan_for(*tiny_pair)
        raced = self._run(*tiny_pair, portfolio=True)
        assert self._raced_lanes(raced) == plan.launch_order()
        assert raced.statistics["portfolio"]["preferred_checker"] == (
            plan.preferred_checker
        )
        sequential = self._run(*tiny_pair)
        assert sequential.statistics["analysis"]["lanes"] == [
            {"strategy": s, "offset": o} for s, o in plan.lanes
        ]
        stages = [s for s, _ in plan.lanes]
        ran = sequential.statistics["combined_schedule"]
        assert ran == stages[:len(ran)]

    def test_without_the_prepass_both_run_the_default_plan(self):
        # GHZ-6 is Clifford: with the pre-pass the plan would start with
        # the stabilizer.  Without it both executors run the default.
        circuit = ghz_state(6)
        raced = self._run(
            circuit, circuit, portfolio=True, static_analysis=False
        )
        assert self._raced_lanes(raced) == DEFAULT_PLAN.launch_order()
        assert raced.statistics["portfolio"]["rationale"] == list(
            DEFAULT_PLAN.rationale
        )
        sequential = self._run(circuit, circuit, static_analysis=False)
        assert sequential.statistics["combined_schedule"] == [
            "simulation", "alternating",
        ]
        assert "analysis" not in sequential.statistics


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
    def test_run_leaves_configuration_untouched(self, tiny_pair):
        """The race never mutates the manager's configuration, so one
        manager can run it again."""
        config = _portfolio_config()
        manager = EquivalenceCheckingManager(*tiny_pair, config)
        for _ in range(2):
            raced = manager.run()
            assert raced.strategy == "portfolio"
            assert raced.equivalence in POSITIVE
            assert portfolio_winner(raced) is not None
            assert manager.configuration is config
            assert config == _portfolio_config()

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
