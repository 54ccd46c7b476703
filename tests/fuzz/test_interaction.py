"""Cross-feature interaction sweep over 200 small labeled pairs.

The compute-table cap is a performance bound and must never change
verdicts: this sweep drives the pairs through the DD checker with the
cap monkeypatched to 0, so every gate application starts from empty
tables (maximum clear pressure), asserting verdict equality with the
default cap pair by pair.  The same pairs pin the ZX checker: its
decisive verdicts must match the labels and its reduction must reach
its own fixpoint.
"""

import pytest

from repro.dd import array_package
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
    def test_tiny_tables_keep_dd_verdicts(self, labeled_pairs, monkeypatch):
        config = Configuration(strategy="alternating", timeout=20.0, seed=0)
        default = [_verdict(pair, config) for _, pair in labeled_pairs]
        monkeypatch.setattr(array_package, "COMPUTE_TABLE_CAP", 0)
        mismatches = []
        clears = 0
        for (seed, pair), verdict in zip(labeled_pairs, default):
            result = EquivalenceCheckingManager(
                pair.circuit1, pair.circuit2, config
            ).run()
            if result.equivalence is not verdict:
                mismatches.append((seed, pair.recipe))
            perf = result.statistics.get("perf", {})
            clears += perf.get("compute_table_clears", 0)
        assert not mismatches, f"verdict drift under clears: {mismatches}"
        assert clears > len(labeled_pairs)


class TestZxOnLabeledPairs:
    def test_zx_reduction_reaches_its_fixpoint(self, labeled_pairs):
        # A second full_reduce over the reduced diagram finds a rewrite
        # only where the first one lost a match.
        from tests.zx.golden import second_pass_rewrites

        unfinished = [
            (seed, pair.recipe)
            for seed, pair in labeled_pairs
            if second_pass_rewrites(pair.circuit1, pair.circuit2)
        ]
        assert not unfinished, f"full_reduce left matches: {unfinished}"

    def test_decisive_zx_verdicts_are_sound(self, labeled_pairs):
        # ZX may not contradict the metamorphic label.
        from repro.fuzz.mutators import LABEL_EQUIVALENT

        config = Configuration(strategy="zx", timeout=20.0, seed=0)
        unsound = []
        for seed, pair in labeled_pairs:
            verdict = _verdict(pair, config)
            if (
                verdict is Equivalence.NOT_EQUIVALENT
                and pair.label == LABEL_EQUIVALENT
            ):
                unsound.append((seed, pair.recipe))
            if (
                verdict
                in (
                    Equivalence.EQUIVALENT,
                    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
                )
                and pair.label != LABEL_EQUIVALENT
            ):
                unsound.append((seed, pair.recipe))
        assert not unsound, f"unsound ZX verdicts: {unsound}"
