"""Table-1 shape claims on the two slow optimized instances (about 15 s).

The file name keeps it out of default collection; run it by path, as the
CI ``smoke`` job does::

    python -m pytest tests/bench/slow_checks.py -q

It checks claims (a)-(e) of ``test_table1_shape.py`` over the study's
rows of urf_s1_5 and hwb5_5, the instances tier-1 leaves out.
"""

import pytest

from tests.bench import test_table1_shape as shape


@pytest.fixture(scope="module")
def rows():
    return shape.table1_rows(slow=True)


def test_a_no_cell_is_wrong(rows):
    shape.no_cell_is_wrong(rows)


def test_b_every_dd_cell_decides(rows):
    shape.every_dd_cell_decides(rows)


def test_c_zx_proves_equivalence_or_says_nothing(rows):
    shape.zx_proves_equivalence_or_says_nothing(rows)


def test_d_stimuli_decide_every_non_equivalent_dd_cell(rows):
    shape.stimuli_decide_every_non_equivalent_dd_cell(rows)


def test_e_alternating_decides_every_equivalent_dd_cell(rows):
    shape.alternating_decides_every_equivalent_dd_cell(rows)
