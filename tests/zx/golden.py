"""Golden records of the ZX engine, checked against ``golden_zx.json``.

The fixture pins what the ZX checker (``strategy="zx"``, no static
pre-pass) reports on every Table-1 cell (``repro.bench.suite``, scale
``small``, seed 0), on each concrete fuzz family at seeds 0-2 and on
``rotations/127``: the verdict, ``initial_spiders``, ``spiders_remaining``
and ``edges_remaining``.  Rewrite counts are left out on purpose; they
are a scheduling detail.

It was generated with two ZX engines run side by side, the worklist
engine and the rescan drivers that went after it, and required to give
the same verdict on every record and to reach 0 spiders on every
equivalent one.  On ``NO_INFORMATION`` records the two engines left
residues of different sizes, so the worklist engine's residue is the one
recorded.  The fixture also lists, per concrete family and verdict, the
seeds in 0-599 whose pair ZX decides; both engines decided the same
seeds the same way.  Its ``generated_from`` field names the tree.

Twelve ``NO_INFORMATION`` Table-1 records were re-pinned later, when the
pivot-family rounds switched to endpoint-only claims: a later match of a
round then only needs its two endpoints outside the earlier matches'
neighbourhoods, so more matches land per round and the rewrite order
changes.  Only ``spiders_remaining`` and ``edges_remaining`` moved:
``edges_remaining`` on the compiled ``grover_4`` and the optimized
``grover_4``, ``plus13mod64_6`` and ``urf_s1_5`` gate-missing and
flipped-CNOT cells and on optimized ``randomwalk_3_2`` gate-missing, and
both fields on optimized ``hwb5_5`` gate-missing (1102 to 1101 spiders)
and flipped-CNOT (406 to 405) and on compiled ``randomwalk_3_2``
flipped-CNOT (52 to 35).  Every verdict, every ``initial_spiders``, the
fuzz records and the decided lists stayed as they were.  What still
guards the moved residues is that each is ``full_reduce``'s own
fixpoint, that the small ones denote their pair (dense truth, see
``test_golden.py``), and the decided sweep.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.circuit import circuit_unitary
from repro.circuit.circuit import QuantumCircuit
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.ec.permutations import to_logical_form
from repro.zx import (
    circuit_to_zx,
    diagram_to_matrix,
    diagrams_proportional,
    full_reduce,
)
from repro.zx.diagram import ZXDiagram
from tests.dd.golden import SLOW_INSTANCES, table1_cells

FIXTURE = Path(__file__).resolve().parent / "golden_zx.json"

#: Checker statistics recorded per check (besides the verdict).
FIELDS = ("initial_spiders", "spiders_remaining", "edges_remaining")

#: The fuzz families whose pairs are concrete circuits.
FAMILIES = ("clifford", "clifford_t", "rotations", "ancilla")

#: Fuzz seeds recorded per family, plus the pair that used to stop the
#: worklist engine at 6 spiders (a lost gadget fusion).
FUZZ_SEEDS = range(3)
EXTRA_FUZZ = (("rotations", 127),)

#: Seeds per family whose decided verdicts the fixture lists.
SWEEP_SEEDS = range(600)

#: Verdicts that do not decide a pair.
UNDECIDED = (Equivalence.NO_INFORMATION.value, Equivalence.TIMEOUT.value)

#: Largest residue contracted densely (grover_4's 110-spider residue
#: asked the greedy contraction for 64 GiB).
DENSE_SPIDERS = 32


def zx_record(
    circuit1: QuantumCircuit, circuit2: QuantumCircuit
) -> Dict[str, object]:
    """Run the ZX checker on one pair and keep the pinned fields."""
    config = Configuration(strategy="zx", static_analysis=False)
    result = EquivalenceCheckingManager(circuit1, circuit2, config).run()
    record: Dict[str, object] = {"verdict": result.equivalence.value}
    for key in FIELDS:
        record[key] = result.statistics[key]
    return record


def cell_ids(slow: bool) -> List[str]:
    """Table-1 cell ids of the slow instances, or of all the others."""
    return [
        cell for cell in table1_cells()
        if (cell.rsplit("/", 1)[0] in SLOW_INSTANCES) == slow
    ]


def dense_cell_ids(slow: bool) -> List[str]:
    """Optimized Table-1 cells whose pinned residue is small enough to
    check against dense truth (the compiled cells span 65 qubits)."""
    table1 = load()["table1"]
    return [
        cell for cell in cell_ids(slow)
        if cell.startswith("optimized/")
        and table1[cell]["spiders_remaining"] <= DENSE_SPIDERS
    ]


def fuzz_ids() -> Iterator[Tuple[str, int]]:
    """Every recorded ``(family, seed)`` pair."""
    for family in FAMILIES:
        for seed in FUZZ_SEEDS:
            yield family, seed
    yield from EXTRA_FUZZ


@functools.lru_cache(maxsize=None)
def fuzz_pair(family: str, seed: int) -> Tuple[QuantumCircuit, QuantumCircuit]:
    from repro.fuzz.generator import generate_instance

    _, pair = generate_instance(seed, family)
    return pair.circuit1, pair.circuit2


def logical_pair(
    circuit1: QuantumCircuit, circuit2: QuantumCircuit
) -> Tuple[QuantumCircuit, QuantumCircuit]:
    """Both circuits in the logical form the checker composes."""
    width = max(circuit1.num_qubits, circuit2.num_qubits)
    return (
        to_logical_form(circuit1, width)[0],
        to_logical_form(circuit2, width)[0],
    )


def composed(circuit1: QuantumCircuit, circuit2: QuantumCircuit) -> ZXDiagram:
    """The checker's ``G'·G†`` diagram of a pair, unreduced."""
    logical1, logical2 = logical_pair(circuit1, circuit2)
    return circuit_to_zx(logical1).adjoint().compose(circuit_to_zx(logical2))


def reduction_denotes_the_pair(
    circuit1: QuantumCircuit, circuit2: QuantumCircuit
) -> bool:
    """The reduced ``G'·G†`` diagram is proportional to the dense
    ``G'·G†`` of the logical pair."""
    logical1, logical2 = logical_pair(circuit1, circuit2)
    truth = circuit_unitary(logical2) @ circuit_unitary(logical1).conj().T
    diagram = composed(circuit1, circuit2)
    full_reduce(diagram)
    assert diagram.num_spiders <= DENSE_SPIDERS, "too large to contract"
    return diagrams_proportional(diagram_to_matrix(diagram), truth)


def second_pass_rewrites(
    circuit1: QuantumCircuit, circuit2: QuantumCircuit
) -> int:
    """Rewrites a second ``full_reduce`` finds on the reduced diagram.

    ``full_reduce`` runs every rule to its fixpoint, so a second pass
    over its own output must find nothing; a rewrite it finds is a match
    the first pass lost.
    """
    diagram = composed(circuit1, circuit2)
    full_reduce(diagram)
    return full_reduce(diagram)


@functools.lru_cache(maxsize=None)
def load() -> Dict[str, object]:
    """The checked-in fixture."""
    return json.loads(FIXTURE.read_text())
