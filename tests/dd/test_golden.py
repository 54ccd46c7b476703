"""The DD engine against its golden fixture (``golden_dd.json``).

This tier-1 module covers the compiled Table-1 block, the optimized cells
other than the two slow instances, and every fuzz family; the slow cells
run from ``slow_checks.py``.  The fuzz diagrams' weights are checked
against dense truth, their structure against the fixture.
"""

import numpy as np
import pytest

from repro.circuit import circuit_unitary
from repro.circuit.unitary import statevector
from repro.dd import edge_to_matrix, edge_to_vector
from tests.dd import golden


def test_fixture_covers_every_table1_cell():
    assert set(golden.load()["table1"]) == set(golden.table1_cells())


@pytest.mark.parametrize("strategy", golden.STRATEGIES)
@pytest.mark.parametrize("cell", golden.cell_ids(slow=False))
def test_table1_cell(cell, strategy):
    golden.assert_matches(
        golden.cell_record(cell, strategy),
        golden.load()["table1"][cell][strategy],
    )


@pytest.mark.parametrize("family,seed", list(golden.fuzz_ids()))
def test_fuzz_family_diagrams(family, seed):
    pkg, logical, root, circuit, state = golden.fuzz_diagrams(family, seed)
    np.testing.assert_allclose(
        edge_to_matrix(root, logical.num_qubits, pkg),
        circuit_unitary(logical),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        edge_to_vector(state, circuit.num_qubits, pkg),
        statevector(circuit),
        atol=1e-9,
    )
    assert golden.diagram_record(pkg, root, state) == (
        golden.load()["fuzz"][f"{family}/{seed}"]
    )
