"""The ZX engine against its golden fixture (``golden_zx.json``).

This tier-1 module covers the compiled Table-1 block, the optimized cells
other than the two slow instances, and the concrete fuzz families; the
slow cells and the 2400-pair sweep run from ``slow_checks.py``.  Every
reduction must also be ``full_reduce``'s own fixpoint, and the reduced
diagrams of the fuzz pairs and of the optimized cells with small
residues must denote the pair (dense truth).
"""

import pytest

from tests.zx import golden


def test_fixture_covers_every_record():
    fixture = golden.load()
    assert set(fixture["table1"]) == set(golden.table1_cells())
    assert set(fixture["fuzz"]) == {
        f"{family}/{seed}" for family, seed in golden.fuzz_ids()
    }
    assert set(fixture["decided"]) == set(golden.FAMILIES)


@pytest.mark.parametrize("cell", golden.cell_ids(slow=False))
def test_table1_cell(cell):
    circuit1, circuit2 = golden.table1_cells()[cell]
    assert golden.zx_record(circuit1, circuit2) == (
        golden.load()["table1"][cell]
    )
    assert golden.second_pass_rewrites(circuit1, circuit2) == 0


@pytest.mark.parametrize("cell", golden.dense_cell_ids(slow=False))
def test_table1_residue_denotes_the_pair(cell):
    assert golden.reduction_denotes_the_pair(*golden.table1_cells()[cell])


@pytest.mark.parametrize("family,seed", list(golden.fuzz_ids()))
def test_fuzz_record(family, seed):
    circuit1, circuit2 = golden.fuzz_pair(family, seed)
    assert golden.zx_record(circuit1, circuit2) == (
        golden.load()["fuzz"][f"{family}/{seed}"]
    )


@pytest.mark.parametrize("family,seed", list(golden.fuzz_ids()))
def test_fuzz_reduction_denotes_the_pair(family, seed):
    assert golden.reduction_denotes_the_pair(*golden.fuzz_pair(family, seed))


@pytest.mark.parametrize("family", golden.FAMILIES)
def test_fuzz_reductions_reach_their_fixpoint(family):
    seeds = list(range(40))
    if (family, 127) in golden.EXTRA_FUZZ:
        seeds.append(127)
    unfinished = [
        seed for seed in seeds
        if golden.second_pass_rewrites(*golden.fuzz_pair(family, seed))
    ]
    assert not unfinished
