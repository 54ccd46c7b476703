"""The one plan and the concurrent strategy portfolio
(:mod:`repro.ec.portfolio`): the plan as a function of the Clifford
proof, both executors reading one plan, deterministic winner
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
    STAGES,
    _select_fallback,
    loser_kill_codes,
    plan,
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
    def test_the_race_answers_the_compiled_ghz_cell_as_the_schedule_does(
        self,
    ):
        """Deterministic-seed winner attribution on a fixed Table-1 pair.

        Compilation leaves compiled GHZ-16 outside the Clifford
        fragment, so the race starts ``simulation`` and ``alternating``;
        the alternating proof decides before the stimuli finish, and the
        race answers ``equivalent``, exactly as the sequential schedule
        does, rather than ZX's up-to-global-phase proof."""
        original = ghz_state(16)
        compiled = compile_circuit(original, manhattan_architecture())
        raced = EquivalenceCheckingManager(
            original, compiled, _portfolio_config(static_analysis=True)
        ).run()
        sequential = EquivalenceCheckingManager(
            original,
            compiled,
            Configuration(strategy="combined", timeout=30.0, seed=0),
        ).run()
        assert sequential.equivalence is Equivalence.EQUIVALENT
        assert raced.strategy == "portfolio"
        assert raced.equivalence is Equivalence.EQUIVALENT
        assert portfolio_winner(raced) == "alternating"
        block = raced.statistics["portfolio"]
        assert block["sound"] is True
        assert block["all_reaped"] is True
        assert block["perf"]["counters"]["portfolio.sound_wins"] == 1
        # Every loser was either killed with a recorded code or genuinely
        # completed/was never launched — nothing is unaccounted for.
        accounted = {"completed", "failed", "killed", "skipped"}
        assert {c["status"] for c in block["children"]} <= accounted
        for name, code in loser_kill_codes(raced).items():
            assert name != "alternating"
            assert code in ("loser", "budget", "deadline")

    def test_statistics_block_reports_the_plan(self, tiny_pair):
        manager = EquivalenceCheckingManager(
            *tiny_pair, _portfolio_config()
        )
        result = manager.run()
        block = result.statistics["portfolio"]
        assert block["plan"] == list(plan(clifford=False))
        assert block["winner"] in block["plan"]
        assert [child["name"] for child in block["children"]] == block["plan"]


def _lanes_for(circuit1, circuit2):
    report = analyze_pair(logical_pair(circuit1, circuit2))
    return plan(report.clifford)


#: Pairs of every fragment the gateset pass tells apart; only the
#: Clifford one gets the stabilizer lane.
FRAGMENTS = {
    "clifford": (ghz_state(6), True),
    "clifford_t": (QuantumCircuit(3).h(0).cx(0, 1).t(1).cx(1, 2).tdg(2), False),
    "rotation_heavy": (qft(4), False),
    "mixed": (QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).h(2).s(1).rz(0.3, 2), False),
}


class TestThePlan:
    def test_stage_order(self):
        assert STAGES == (
            "stabilizer", "simulation", "alternating", "zx", "construction",
        )
        assert plan(clifford=True) == STAGES
        assert plan(clifford=False) == STAGES[1:]

    @pytest.mark.parametrize("case", sorted(FRAGMENTS))
    def test_stabilizer_joins_only_clifford_pairs(self, case):
        circuit, clifford = FRAGMENTS[case]
        report = analyze_pair(logical_pair(circuit, circuit))
        assert report.to_dict()["fragments"] == [case, case]
        assert report.clifford is clifford
        assert _lanes_for(circuit, circuit) == plan(clifford)

    def test_the_plan_never_drops_a_strategy(self, tiny_pair):
        strategies = _lanes_for(*tiny_pair)
        assert sorted(strategies) == sorted(set(strategies))
        for required in ("alternating", "construction", "simulation", "zx"):
            assert required in strategies


class TestOnePlanTwoExecutors:
    @staticmethod
    def _run(circuit1, circuit2, **overrides):
        options = dict(strategy="combined", timeout=30.0, seed=0)
        options.update(overrides)
        return EquivalenceCheckingManager(
            circuit1, circuit2, Configuration(**options)
        ).run()

    def test_the_race_runs_the_reports_plan(self, tiny_pair):
        lanes = list(_lanes_for(*tiny_pair))
        raced = self._run(*tiny_pair, portfolio=True)
        assert raced.statistics["portfolio"]["plan"] == lanes
        assert raced.statistics["analysis"]["lanes"] == lanes
        sequential = self._run(*tiny_pair)
        assert sequential.statistics["analysis"]["lanes"] == lanes
        ran = sequential.statistics["combined_schedule"]
        assert ran == lanes[:len(ran)]

    def test_without_the_prepass_the_plan_has_no_stabilizer(self):
        # GHZ-6 is Clifford: with the pre-pass the plan would start with
        # the stabilizer.  Without it neither executor runs that lane.
        circuit = ghz_state(6)
        raced = self._run(
            circuit, circuit, portfolio=True, static_analysis=False
        )
        assert raced.statistics["portfolio"]["plan"] == list(
            plan(clifford=False)
        )
        sequential = self._run(circuit, circuit, static_analysis=False)
        assert sequential.statistics["combined_schedule"] == [
            "simulation", "alternating",
        ]
        assert "analysis" not in sequential.statistics


#: Seeded fuzz pairs of the two families with a Clifford fragment, at
#: widths dense truth covers (the sampled sizes stay within 5 qubits).
_FUZZ_PAIRS = [
    (family, seed) for family in ("clifford", "clifford_t") for seed in range(12)
]


def _polarity(verdict):
    if verdict in ("equivalent", "equivalent_up_to_global_phase"):
        return "equivalent"
    if verdict == "not_equivalent":
        return "not_equivalent"
    return None


class TestThePlanUsersGet:
    """The default configuration, pre-pass included, on fuzz pairs:
    both executors run the report's plan, raced Clifford pairs start
    the stabilizer lane, and every decisive verdict has dense truth's
    polarity."""

    @pytest.fixture(scope="class")
    def checks(self):
        from repro.fuzz.generator import generate_instance
        from repro.fuzz.oracle import DifferentialOracle

        oracle = DifferentialOracle()
        checks = []
        for family, seed in _FUZZ_PAIRS:
            _, pair = generate_instance(seed, family)
            truth = oracle._dense_truth(pair)
            assert truth is not None, (family, seed, pair.num_qubits)
            results = {
                portfolio: EquivalenceCheckingManager(
                    pair.circuit1,
                    pair.circuit2,
                    Configuration(timeout=30.0, seed=0, portfolio=portfolio),
                ).run()
                for portfolio in (False, True)
            }
            checks.append((family, seed, truth, results))
        return checks

    def test_decisive_verdicts_have_dense_truths_polarity(self, checks):
        decisive = 0
        for family, seed, truth, results in checks:
            for portfolio, result in results.items():
                polarity = _polarity(result.equivalence.value)
                if polarity is not None:
                    decisive += 1
                    assert polarity == _polarity(truth), (
                        family, seed, portfolio, result.equivalence, truth
                    )
        assert decisive >= len(checks)

    def test_both_executors_run_the_reports_plan(self, checks):
        raced_clifford = 0
        for family, seed, _, results in checks:
            sequential, raced = results[False], results[True]
            lanes = sequential.statistics["analysis"]["lanes"]
            assert raced.statistics["analysis"]["lanes"] == lanes
            if "combined_schedule" in sequential.statistics:
                ran = sequential.statistics["combined_schedule"]
                assert ran == lanes[:len(ran)]
            if "portfolio" not in raced.statistics:
                # The pre-pass short-circuited a sound NEQ witness.
                assert raced.statistics["analysis"]["verdict"] == (
                    "not_equivalent"
                )
                continue
            block = raced.statistics["portfolio"]
            assert block["plan"] == lanes, (family, seed)
            if raced.statistics["analysis"]["fragments"] == [
                "clifford", "clifford",
            ]:
                raced_clifford += 1
                assert lanes[0] == "stabilizer"
                first = block["children"][0]
                assert first["name"] == "stabilizer"
                assert first["launched_after"] == 0.0
            else:
                assert "stabilizer" not in lanes
        assert raced_clifford >= 6


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
