"""Interaction-graph fingerprinting and fragment isolation (static pass 2).

Two sub-analyses over the two-qubit connectivity structure:

* **Fingerprinting** — the multigraph of multi-qubit interactions
  (a multiset of sorted wire tuples, one per multi-qubit operation) is
  hashed per circuit.  Matching fingerprints are *evidence* of a
  structurally faithful transformation (relabeling, gate rebasing) and
  feed the report; a mismatch proves nothing — optimization
  legitimately rewrites connectivity — so it never yields a verdict.
* **Fragment isolation** — connected components of the *union*
  interaction graph (edges of either circuit) isolate wire sets that
  neither circuit couples to the rest.  On such a component ``C`` both
  unitaries factorize as ``U_C ⊗ U_rest``, so the dense ``2^|C|``
  sub-unitaries can be compared exactly when ``|C|`` is small.  A
  non-proportional pair of factors is a sound non-equivalence witness;
  if *every* active component is small and all factors match, the pair
  is provably equivalent up to global phase.

As with every pass, inputs must be in logical form so declared layout
permutations are already folded in (the fingerprint comparison "up to
the declared permutation" of compiled circuits falls out of that).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.unitary import circuit_unitary

ComplexMatrix = NDArray[np.complex128]

#: Largest fragment (in wires) compared densely: 2^4 = 16×16 matrices.
MAX_FRAGMENT_QUBITS = 4

#: Proportionality defect above which a fragment mismatch is claimed
#: (``|tr(U†V)| = 2^k`` exactly iff the factors are proportional).
_NEQ_MARGIN = 1e-6

#: Defect below which a fragment match is treated as an exact proof.
_EQ_MARGIN = 1e-9


def interaction_multigraph(
    circuit: QuantumCircuit,
) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The multiset of sorted multi-qubit wire tuples, as sorted pairs."""
    counts: Dict[Tuple[int, ...], int] = {}
    for op in circuit:
        if op.num_qubits >= 2:
            key = tuple(sorted(op.qubits))
            counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def interaction_fingerprint(circuit: QuantumCircuit) -> str:
    """Stable digest of the interaction multigraph."""
    digest = hashlib.sha256()
    for key, count in interaction_multigraph(circuit):
        digest.update(repr((key, count)).encode("ascii"))
    return digest.hexdigest()[:16]


class _UnionFind:
    """Minimal union-find over wire indices."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_components(
    circuits: Sequence[QuantumCircuit], num_qubits: int
) -> List[Tuple[int, ...]]:
    """Connected components of the union interaction graph.

    Only *active* wires (touched by at least one operation in either
    circuit) appear; each component is a sorted wire tuple.
    """
    uf = _UnionFind(num_qubits)
    active = [False] * num_qubits
    for circuit in circuits:
        for op in circuit:
            qubits = op.qubits
            for q in qubits:
                active[q] = True
            for q in qubits[1:]:
                uf.union(qubits[0], q)
    groups: Dict[int, List[int]] = {}
    for wire in range(num_qubits):
        if active[wire]:
            groups.setdefault(uf.find(wire), []).append(wire)
    return sorted(tuple(sorted(group)) for group in groups.values())


def _fragment_unitary(
    circuit: QuantumCircuit, component: Tuple[int, ...]
) -> ComplexMatrix:
    """Dense unitary of the sub-circuit living on ``component``.

    Every operation touching a component wire lies entirely inside the
    component (that is what makes it a connected component of the union
    graph), so the restriction is exact, not an approximation.
    """
    index = {wire: i for i, wire in enumerate(component)}
    members = frozenset(component)
    sub = QuantumCircuit(len(component), name=f"fragment_{component[0]}")
    for op in circuit:
        if members.intersection(op.qubits):
            sub.append(op.remapped(index))
    return np.asarray(circuit_unitary(sub), dtype=np.complex128)


def fragment_isolation_check(
    logical1: QuantumCircuit,
    logical2: QuantumCircuit,
    num_qubits: int,
    max_fragment_qubits: int = MAX_FRAGMENT_QUBITS,
) -> Tuple[Optional[Dict[str, object]], Optional[str], Dict[str, object]]:
    """Compare isolated interaction fragments of a logical pair.

    Returns ``(witness, proof, summary)``:

    * ``witness`` — a sound non-equivalence witness when some small
      isolated fragment carries provably different unitaries;
    * ``proof`` — ``"equivalent_up_to_global_phase"`` when the pair
      splits into two or more fragments that are *all* small and *all*
      proportional (the tensor factors multiply back to a global-phase
      relation); ``None`` otherwise;
    * ``summary`` — component structure for the report.

    A single fully-connected component is the common case for real
    circuits; the pass then returns no verdict at all — deciding it
    would amount to dense simulation, which is the checkers' job.
    """
    components = union_components((logical1, logical2), num_qubits)
    summary: Dict[str, object] = {
        "components": [list(c) for c in components],
        "fragments_compared": 0,
    }
    if len(components) < 2:
        return None, None, summary
    compared = 0
    all_small = True
    all_proportional = True
    witness: Optional[Dict[str, object]] = None
    for component in components:
        if len(component) > max_fragment_qubits:
            all_small = False
            continue
        u = _fragment_unitary(logical1, component)
        v = _fragment_unitary(logical2, component)
        dim = u.shape[0]
        overlap = abs(complex(np.trace(u.conj().T @ v)))
        defect = float(dim) - overlap
        compared += 1
        if defect > _NEQ_MARGIN:
            all_proportional = False
            if witness is None:
                witness = {
                    "pass": "interaction",
                    "kind": "fragment_mismatch",
                    "fragment": list(component),
                    "trace_defect": round(defect, 9),
                }
        elif defect > _EQ_MARGIN:
            all_proportional = False
    summary["fragments_compared"] = compared
    proof: Optional[str] = None
    if witness is None and all_small and all_proportional:
        proof = "equivalent_up_to_global_phase"
    return witness, proof, summary
