"""DD checks too slow for tier-1 (about a minute in total).

The file name keeps it out of default collection; run it by path, as the
CI ``smoke`` job does::

    python -m pytest tests/dd/slow_checks.py -q

It holds the golden-fixture cells of the two slow optimized Table-1
instances, their exhaustive column checks against dense truth (with
both combined paths on their equivalent cells, as
``tests/ec/test_columns.py`` checks the other narrow cells), and the
noisy-QFT checks that ``test_noisy_qft.py`` leaves out of tier-1: dense
truth and simulation at angle noise 1e-6, and the construction,
alternating and combined verdicts at 1e-9 and 1e-6.
"""

import math

import pytest

from repro.ec import logical_pair
from repro.ec.results import Equivalence
from repro.ec.sim_checker import ColumnChecker
from tests.dd import golden
from tests.ec.test_columns import combined, dense_truth, force
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


@pytest.mark.parametrize("cell", golden.cell_ids(slow=True))
def test_table1_cell_exhaustion_matches_dense_truth(cell):
    pair = logical_pair(*golden.table1_cells()[cell])
    verdict, _ = ColumnChecker(pair).exhaust()
    assert verdict is dense_truth(pair)


@pytest.mark.parametrize(
    "cell",
    [c for c in golden.cell_ids(slow=True) if c.endswith("/equivalent")],
)
def test_table1_cell_both_paths_give_one_label(monkeypatch, cell):
    circuit1, circuit2 = golden.table1_cells()[cell]
    force(monkeypatch, 0.0)
    columns = combined(circuit1, circuit2)
    force(monkeypatch, math.inf)
    alternating = combined(circuit1, circuit2)
    assert columns.statistics["columns"]["proof"] == "columns"
    assert alternating.statistics["columns"]["proof"] == "alternating"
    assert columns.equivalence is alternating.equivalence


@pytest.mark.parametrize("strategy", sorted(VERDICTS[1e-9]))
@pytest.mark.parametrize("noise", (1e-9, 1e-6))
def test_noisy_qft_verdicts(noise, strategy):
    assert check(noise, strategy) is VERDICTS[noise][strategy]


def test_noisy_qft_dd_matches_dense_truth_at_1e_6():
    assert_dd_matches_dense_truth(1e-6)


def test_noisy_qft_simulation_at_1e_6():
    assert check(1e-6, "simulation") is Equivalence.PROBABLY_EQUIVALENT
