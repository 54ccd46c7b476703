"""QFT-6 against its noisy basis decomposition, on dense truth.

The paper's Section 6.2 noise regime (``bench_discussion_structure.py``):
rotation angles perturbed by up to 1e-13, 1e-9 or 1e-6 make the complex
table meet weights far above 1e6 in magnitude, where two distinct values
can share one tolerance bucket.  The circuit DD must still match the
dense unitary, and the checkers must keep the verdicts two DD engines
agreed on when this regime was first pinned.  Tier-1 covers 1e-13 and
1e-9 (the parent of the complex-table fix fails at 1e-9); the 1e-6 level
and the construction, alternating and combined verdicts at 1e-9 take
about half a minute and run from ``slow_checks.py``.
"""

import numpy as np
import pytest

from benchmarks.bench_discussion_structure import _perturb
from repro.bench.algorithms import qft
from repro.circuit import circuit_unitary
from repro.compile.decompose import decompose_to_basis
from repro.dd import ArrayDDPackage, edge_to_matrix
from repro.dd.gates import circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence

#: Noise levels checked in tier-1; ``slow_checks.py`` adds 1e-6.
TIER1_NOISE = (1e-13, 1e-9)

#: Verdicts per noise level and strategy.
VERDICTS = {
    1e-13: {
        "construction": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        "alternating": Equivalence.EQUIVALENT,
        "combined": Equivalence.EQUIVALENT,
    },
    1e-9: {
        "construction": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        "alternating": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        "combined": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
    },
    1e-6: {
        "construction": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        "alternating": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        "combined": Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
    },
}


def noisy_pair(noise):
    """QFT-6 and its basis decomposition with seeded angle noise."""
    original = qft(6)
    return original, _perturb(decompose_to_basis(original), noise)


def check(noise, strategy):
    """The verdict of one default-configured check of the noisy pair."""
    original, noisy = noisy_pair(noise)
    config = Configuration(strategy=strategy, seed=0)
    return EquivalenceCheckingManager(original, noisy, config).run().equivalence


def assert_dd_matches_dense_truth(noise):
    """The noisy circuit's DD: within 1e-8 of the dense unitary, and
    the clean 1365 nodes."""
    _, noisy = noisy_pair(noise)
    pkg = ArrayDDPackage()
    root = circuit_dd(pkg, noisy)
    np.testing.assert_allclose(
        edge_to_matrix(root, 6, pkg), circuit_unitary(noisy), atol=1e-8
    )
    assert pkg.matrix_dd_size(root) == 1365


@pytest.mark.parametrize("noise", TIER1_NOISE)
def test_circuit_dd_matches_dense_truth(noise):
    assert_dd_matches_dense_truth(noise)


@pytest.mark.parametrize("noise", TIER1_NOISE)
def test_simulation_finds_no_mismatch(noise):
    assert check(noise, "simulation") is Equivalence.PROBABLY_EQUIVALENT


@pytest.mark.parametrize("strategy", sorted(VERDICTS[1e-13]))
def test_verdicts_at_smallest_noise(strategy):
    assert check(1e-13, strategy) is VERDICTS[1e-13][strategy]
