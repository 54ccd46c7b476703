"""Golden records of the DD engine, checked against ``golden_dd.json``.

The fixture pins what the DD checkers report on every Table-1 cell
(``repro.bench.suite``, scale ``small``, seed 0) and what the circuit
and state diagrams of the fuzz families look like.  It was generated
with two DD engines run side by side and required to agree on every
record, so it stands in for the cross-engine agreement tests that went
with the second engine.  Its ``generated_from`` field names the tree.

* **Table-1 cells** record, per strategy, the verdict and the checker
  statistics that describe the diagrams: node counts, the active width,
  the Hilbert-Schmidt fidelity (compared to 1e-9) and the simulation's
  stimulus digest, run count and first mismatch.  The DD strategies run
  without the static pre-pass so every cell reaches the DD engine;
  ``combined`` runs with the default configuration.
* **Fuzz families** record node counts and a structure digest of the
  circuit DD and of the simulated state.  The digest covers levels and
  child topology, not weights, so it does not depend on last-ulp float
  output; the tests check the weights against dense truth instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.dd import ArrayDDPackage
from repro.dd.array_package import EDGE_SHIFT, WEIGHT_MASK
from repro.dd.array_store import NodeStore
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.permutations import to_logical_form

FIXTURE = Path(__file__).resolve().parent / "golden_dd.json"

#: Strategies recorded per Table-1 cell.
STRATEGIES = ("construction", "alternating", "simulation", "combined")

#: Checker statistics recorded per strategy (besides the verdict).
_STATISTICS = {
    "construction": ("dd_size_1", "dd_size_2", "unique_nodes", "active_qubits"),
    "alternating": (
        "max_dd_size", "final_dd_size", "unique_nodes", "active_qubits",
        "hilbert_schmidt_fidelity",
    ),
    "simulation": (
        "simulations_run", "first_mismatch", "stimuli_digest", "active_qubits",
    ),
    "combined": (),
}

#: Float statistics compare to this absolute tolerance, everything else
#: compares exactly.
FIDELITY_TOLERANCE = 1e-9

#: Fuzz seeds recorded per family.
FUZZ_SEEDS = range(3)

#: The two optimized instances that dominate the Table-1 time; their
#: cells run outside tier-1 (see ``slow_checks.py``).
SLOW_INSTANCES = ("optimized/urf_s1_5", "optimized/hwb5_5")


@functools.lru_cache(maxsize=None)
def table1_cells() -> Dict[str, Tuple[QuantumCircuit, QuantumCircuit]]:
    """Every Table-1 cell as ``"block/instance/variant" -> (G, G')``."""
    from repro.bench.suite import (
        CONFIGURATIONS,
        compiled_benchmarks,
        optimized_benchmarks,
    )

    cells = {}
    for block, build in (
        ("compiled", compiled_benchmarks),
        ("optimized", optimized_benchmarks),
    ):
        for instance in build(scale="small", seed=0):
            for variant in CONFIGURATIONS:
                cells[f"{block}/{instance.name}/{variant}"] = (
                    instance.original,
                    instance.variants[variant],
                )
    return cells


def cell_ids(slow: bool) -> List[str]:
    """Fixture cell ids of the slow instances, or of all the others."""
    return [
        cell for cell in load()["table1"]
        if (cell.rsplit("/", 1)[0] in SLOW_INSTANCES) == slow
    ]


def cell_record(cell: str, strategy: str) -> Dict[str, object]:
    """Run one strategy on one Table-1 cell and keep the pinned fields."""
    circuit1, circuit2 = table1_cells()[cell]
    config = Configuration(
        strategy=strategy, seed=0, static_analysis=strategy == "combined"
    )
    result = EquivalenceCheckingManager(circuit1, circuit2, config).run()
    record: Dict[str, object] = {"verdict": result.equivalence.value}
    for key in _STATISTICS[strategy]:
        if key in result.statistics:
            record[key] = result.statistics[key]
    return record


def family_circuit(family: str, seed: int) -> QuantumCircuit:
    """The fuzz family's 4-qubit, 24-gate circuit for one seed.

    DDs build dense gate matrices, so the parameterized family is taken
    at a seeded concrete valuation.
    """
    from repro.fuzz.generator import random_family_circuit

    rng = random.Random(seed)
    circuit = random_family_circuit(family, rng, num_qubits=4, num_gates=24)
    if is_symbolic_circuit(circuit):
        valuation = {
            name: rng.uniform(-math.pi, math.pi)
            for name in circuit_parameters(circuit)
        }
        circuit = instantiate_circuit(circuit, valuation)
    return circuit


def structure_digest(store: NodeStore, edge: int) -> str:
    """sha256 over the levels and child topology below ``edge``.

    Nodes are numbered in depth-first preorder; a child is ``z`` (zero
    edge), ``t`` (terminal) or the number of its node.  Weights are left
    out on purpose.
    """
    numbers: Dict[int, int] = {}
    lines: List[str] = []

    def token(child: int) -> str:
        if child & WEIGHT_MASK == 0:
            return "z"
        handle = child >> EDGE_SHIFT
        if handle == 0:
            return "t"
        if handle not in numbers:
            numbers[handle] = len(lines)
            lines.append("")
            base = handle * store.arity
            children = ",".join(
                token(
                    (store.children[base + k] << EDGE_SHIFT)
                    | store.weights[base + k]
                )
                for k in range(store.arity)
            )
            lines[numbers[handle]] = f"{store.levels[handle]}:{children}"
        return str(numbers[handle])

    root = token(edge)
    text = root + "|" + ";".join(lines)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def fuzz_diagrams(family: str, seed: int):
    """``(pkg, logical circuit, its DD, circuit, simulated state)``."""
    circuit = family_circuit(family, seed)
    logical, _ = to_logical_form(circuit, circuit.num_qubits)
    pkg = ArrayDDPackage()
    root = circuit_dd(pkg, logical)
    state = simulate_circuit_dd(pkg, circuit)
    return pkg, logical, root, circuit, state


def diagram_record(
    pkg: ArrayDDPackage, root: int, state: int
) -> Dict[str, object]:
    """Node counts and structure digests of a circuit DD and a state."""
    return {
        "matrix_nodes": pkg.matrix_dd_size(root),
        "matrix_structure": structure_digest(pkg.mat, root),
        "vector_nodes": pkg.vector_dd_size(state),
        "vector_structure": structure_digest(pkg.vec, state),
    }


def fuzz_ids() -> Iterator[Tuple[str, int]]:
    """Every recorded ``(family, seed)`` pair."""
    from repro.fuzz.generator import FAMILIES

    for family in FAMILIES:
        for seed in FUZZ_SEEDS:
            yield family, seed


@functools.lru_cache(maxsize=None)
def load() -> Dict[str, object]:
    """The checked-in fixture."""
    return json.loads(FIXTURE.read_text())


def assert_matches(actual: Dict[str, object], expected: Dict[str, object]):
    """Exact match, except floats to :data:`FIDELITY_TOLERANCE`."""
    assert set(actual) == set(expected), (actual, expected)
    for key, value in expected.items():
        if isinstance(value, float):
            assert abs(actual[key] - value) <= FIDELITY_TOLERANCE, key
        else:
            assert actual[key] == value, (key, actual[key], value)

