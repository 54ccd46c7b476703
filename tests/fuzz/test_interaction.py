"""Cross-feature interaction sweep (satellite of the fuzzing PR).

The bounded compute tables and the incremental ZX worklist engine are
performance features and must never change verdicts: this sweep drives
200 small labeled pairs through the DD checker with a deliberately tiny
compute table (maximum eviction pressure) and through both ZX
simplification engines, asserting verdict equality with the unbounded /
legacy baselines pair by pair.
"""

import dataclasses

import pytest

from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.fuzz.generator import FAMILIES, generate_instance
from repro.fuzz.mutators import MutationNotApplicable

NUM_PAIRS = 200


def _pairs():
    pairs = []
    seed = 0
    while len(pairs) < NUM_PAIRS:
        family = FAMILIES[seed % len(FAMILIES)]
        try:
            _, pair = generate_instance(
                seed, family, num_qubits=3, num_gates=8
            )
            pairs.append((seed, pair))
        except MutationNotApplicable:
            pass
        seed += 1
    return pairs


@pytest.fixture(scope="module")
def labeled_pairs():
    return _pairs()


def _verdict(pair, config):
    manager = EquivalenceCheckingManager(
        pair.circuit1, pair.circuit2, config
    )
    return manager.run().equivalence


class TestComputeTablePressure:
    def test_tiny_tables_keep_dd_verdicts(self, labeled_pairs):
        base = Configuration(strategy="alternating", timeout=20.0, seed=0)
        tiny = dataclasses.replace(base, compute_table_size=16)
        unbounded = dataclasses.replace(base, compute_table_size=None)
        mismatches = [
            (seed, pair.recipe)
            for seed, pair in labeled_pairs
            if _verdict(pair, tiny) is not _verdict(pair, unbounded)
        ]
        assert not mismatches, f"verdict drift under eviction: {mismatches}"


class TestIncrementalZxEquivalence:
    def test_incremental_and_legacy_zx_never_contradict(self, labeled_pairs):
        # ZX is an incomplete method: the engines may differ in *power*
        # (one reduces to a clean identity where the other gives up with
        # NO_INFORMATION; none of these 200 pairs does, but the
        # default-size pair pinned in tests/zx/test_incremental.py does),
        # yet two decisive verdicts must never contradict.
        base = Configuration(strategy="zx", timeout=20.0, seed=0)
        incremental = dataclasses.replace(base, incremental_zx=True)
        legacy = dataclasses.replace(base, incremental_zx=False)
        indecisive = {Equivalence.NO_INFORMATION, Equivalence.TIMEOUT}
        contradictions = []
        for seed, pair in labeled_pairs:
            a = _verdict(pair, incremental)
            b = _verdict(pair, legacy)
            if a in indecisive or b in indecisive:
                continue
            positive = {
                Equivalence.EQUIVALENT,
                Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
            }
            if (a in positive) != (b in positive):
                contradictions.append((seed, pair.recipe, a.value, b.value))
        assert not contradictions, f"ZX engines contradict: {contradictions}"

    def test_decisive_zx_verdicts_are_sound(self, labeled_pairs):
        # Neither engine may contradict the metamorphic label.
        from repro.fuzz.mutators import LABEL_EQUIVALENT

        base = Configuration(strategy="zx", timeout=20.0, seed=0)
        unsound = []
        for incremental in (True, False):
            config = dataclasses.replace(base, incremental_zx=incremental)
            for seed, pair in labeled_pairs:
                verdict = _verdict(pair, config)
                if (
                    verdict is Equivalence.NOT_EQUIVALENT
                    and pair.label == LABEL_EQUIVALENT
                ):
                    unsound.append((seed, pair.recipe, incremental))
                if (
                    verdict
                    in (
                        Equivalence.EQUIVALENT,
                        Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
                    )
                    and pair.label != LABEL_EQUIVALENT
                ):
                    unsound.append((seed, pair.recipe, incremental))
        assert not unsound, f"unsound ZX verdicts: {unsound}"


class TestCombinedPressure:
    def test_tiny_tables_with_each_zx_engine(self, labeled_pairs):
        # one in four pairs, both knobs stressed at once
        sample = labeled_pairs[::4]
        for incremental in (True, False):
            stressed = Configuration(
                strategy="zx",
                timeout=20.0,
                seed=0,
                compute_table_size=16,
                incremental_zx=incremental,
            )
            reference = Configuration(
                strategy="zx",
                timeout=20.0,
                seed=0,
                incremental_zx=incremental,
            )
            for seed, pair in sample:
                assert _verdict(pair, stressed) is _verdict(
                    pair, reference
                ), f"seed {seed} ({pair.recipe}), incremental={incremental}"
