"""The paper's Table-1 shape claims, checked over the study's own rows.

Every instance runs once, through :func:`repro.bench.study.run_instance`
at seed 0 and a 60 s timeout, as ``repro bench`` runs it: here the
compiled block and the four fast optimized instances (about 5 s);
urf_s1_5 and hwb5_5 in ``tests/bench/slow_checks.py``, which is run by
path, as CI's ``smoke`` job does.  Each claim is one function over the
rows, and one named test in each file:

(a) no cell is wrong;
(b) every ``t_dd`` cell decides: it proves equivalence or proves
    ``NOT_EQUIVALENT``, as the label asks;
(c) every ``t_zx`` cell proves equivalence or returns ``?``: the ZX
    reduction closes every equivalent pair and never decides the others
    (Peham et al.: a stuck reduction is no information);
(d) the random stimuli alone decide every non-equivalent ``t_dd`` cell,
    within 8 stimuli (Burgholzer & Wille: a few simulations expose a
    non-equivalent pair);
(e) the alternating stage, which the schedule runs after the stimuli,
    decides every equivalent ``t_dd`` cell, by its own proof or by the
    basis columns it hands the proof to.

The claims rest on structure: verdicts, the stage that decided and the
stimulus that exposed a difference, never on a timing ratio.  A change
that moves one of them (a different stage deciding, say) edits the
assertion and says so; it does not delete it.
"""

from typing import List, Tuple

import pytest

from repro.bench.study import CellResult, TableRow, run_instance
from repro.bench.suite import compiled_benchmarks, optimized_benchmarks
from repro.ec.results import Equivalence

#: The optimized instances too slow for tier-1 (about 13 s together).
SLOW = ("urf_s1_5", "hwb5_5")

_PROOFS = (Equivalence.EQUIVALENT, Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE)


def table1_rows(slow: bool) -> List[TableRow]:
    """The study's rows of the slow instances, or of all the others."""
    instances = [
        instance
        for instance in compiled_benchmarks(scale="small", seed=0)
        + optimized_benchmarks(scale="small", seed=0)
        if (instance.name in SLOW and instance.use_case == "optimized") == slow
    ]
    # Six compiled and six optimized instances: a renamed one must not
    # drop out of both files unnoticed.
    assert len(instances) == (len(SLOW) if slow else 12 - len(SLOW))
    return [run_instance(instance, timeout=60.0, seed=0) for instance in instances]


def _cells(
    rows: List[TableRow], method: str, equivalent: bool
) -> List[Tuple[str, CellResult]]:
    """The ``method`` column's cells, equivalent or not, keyed for messages."""
    cells = []
    for row in rows:
        for key, cell in row.cells.items():
            config, cell_method = key.split("/")
            if cell_method == method and (config == "equivalent") == equivalent:
                cells.append((f"{row.use_case}:{row.name}:{key}", cell))
    # One equivalent and two non-equivalent configurations per row: a
    # claim never holds by checking nothing.
    assert len(cells) == len(rows) * (1 if equivalent else 2)
    return cells


def no_cell_is_wrong(rows: List[TableRow]) -> None:
    wrong = [
        f"{row.use_case}:{row.name}:{key}"
        for row in rows
        for key, cell in row.cells.items()
        if cell.correct is False
    ]
    assert wrong == []


def every_dd_cell_decides(rows: List[TableRow]) -> None:
    for key, cell in _cells(rows, "dd", equivalent=True):
        assert cell.verdict in _PROOFS, (key, cell.verdict)
    for key, cell in _cells(rows, "dd", equivalent=False):
        assert cell.verdict is Equivalence.NOT_EQUIVALENT, (key, cell.verdict)


def zx_proves_equivalence_or_says_nothing(rows: List[TableRow]) -> None:
    for key, cell in _cells(rows, "zx", equivalent=True):
        assert cell.verdict in _PROOFS, (key, cell.verdict)
    for key, cell in _cells(rows, "zx", equivalent=False):
        assert cell.verdict is Equivalence.NO_INFORMATION, (key, cell.verdict)


def stimuli_decide_every_non_equivalent_dd_cell(rows: List[TableRow]) -> None:
    for key, cell in _cells(rows, "dd", equivalent=False):
        assert cell.decided_by == "simulation", (key, cell.decided_by)
        assert cell.stimuli is not None and 1 <= cell.stimuli <= 8, (
            key, cell.stimuli,
        )


def alternating_decides_every_equivalent_dd_cell(rows: List[TableRow]) -> None:
    for key, cell in _cells(rows, "dd", equivalent=True):
        assert cell.decided_by in ("alternating", "columns"), (
            key, cell.decided_by,
        )


@pytest.fixture(scope="module")
def rows() -> List[TableRow]:
    return table1_rows(slow=False)


def test_a_no_cell_is_wrong(rows):
    no_cell_is_wrong(rows)


def test_b_every_dd_cell_decides(rows):
    every_dd_cell_decides(rows)


def test_c_zx_proves_equivalence_or_says_nothing(rows):
    zx_proves_equivalence_or_says_nothing(rows)


def test_d_stimuli_decide_every_non_equivalent_dd_cell(rows):
    stimuli_decide_every_non_equivalent_dd_cell(rows)


def test_e_alternating_decides_every_equivalent_dd_cell(rows):
    alternating_decides_every_equivalent_dd_cell(rows)
