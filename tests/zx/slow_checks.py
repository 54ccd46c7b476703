"""ZX checks too slow for tier-1 (about a minute and a half in total).

The file name keeps it out of default collection; run it by path, as the
CI ``smoke`` job does::

    python -m pytest tests/zx/slow_checks.py -q

It holds the golden-fixture cells of the two slow optimized Table-1
instances, with the fixpoint check on each and dense truth on those
with a small residue, and the sweep over seeds 0-599 of every concrete
fuzz family: ZX must decide exactly the seeds the fixture lists, with
the same verdicts.
"""

import pytest

from repro.fuzz.generator import generate_instance
from tests.zx import golden


@pytest.mark.parametrize("cell", golden.cell_ids(slow=True))
def test_table1_cell(cell):
    circuit1, circuit2 = golden.table1_cells()[cell]
    assert golden.zx_record(circuit1, circuit2) == (
        golden.load()["table1"][cell]
    )
    assert golden.second_pass_rewrites(circuit1, circuit2) == 0


@pytest.mark.parametrize("cell", golden.dense_cell_ids(slow=True))
def test_table1_residue_denotes_the_pair(cell):
    assert golden.reduction_denotes_the_pair(*golden.table1_cells()[cell])


@pytest.mark.parametrize("family", golden.FAMILIES)
def test_decided_seeds(family):
    decided = {}
    for seed in golden.SWEEP_SEEDS:
        _, pair = generate_instance(seed, family)
        verdict = golden.zx_record(pair.circuit1, pair.circuit2)["verdict"]
        if verdict not in golden.UNDECIDED:
            decided.setdefault(verdict, []).append(seed)
    assert decided == golden.load()["decided"][family]
