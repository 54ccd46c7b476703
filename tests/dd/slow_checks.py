"""DD checks too slow for tier-1 (about a minute in total).

The file name keeps it out of default collection; run it by path, as the
CI ``smoke`` job does::

    python -m pytest tests/dd/slow_checks.py -q

It holds the golden-fixture cells of the two slow optimized Table-1
instances and the noisy-QFT checks that ``test_noisy_qft.py`` leaves
out of tier-1: dense truth and simulation at angle noise 1e-6, and the
construction, alternating and combined verdicts at 1e-9 and 1e-6.
"""

import pytest

from repro.ec.results import Equivalence
from tests.dd import golden
from tests.dd.test_noisy_qft import (
    VERDICTS,
    assert_dd_matches_dense_truth,
    check,
)


@pytest.mark.parametrize("strategy", golden.STRATEGIES)
@pytest.mark.parametrize("cell", golden.cell_ids(slow=True))
def test_table1_cell(cell, strategy):
    golden.assert_matches(
        golden.cell_record(cell, strategy),
        golden.load()["table1"][cell][strategy],
    )


@pytest.mark.parametrize("strategy", sorted(VERDICTS[1e-9]))
@pytest.mark.parametrize("noise", (1e-9, 1e-6))
def test_noisy_qft_verdicts(noise, strategy):
    assert check(noise, strategy) is VERDICTS[noise][strategy]


def test_noisy_qft_dd_matches_dense_truth_at_1e_6():
    assert_dd_matches_dense_truth(1e-6)


def test_noisy_qft_simulation_at_1e_6():
    assert check(1e-6, "simulation") is Equivalence.PROBABLY_EQUIVALENT
