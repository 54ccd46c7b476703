"""Qubit-support and idle-wire analysis (static pass 1).

The pass computes, per wire, how many operations touch it and — when a
wire is touched by *single-qubit uncontrolled gates only* — the exact
2×2 unitary the circuit applies to it.  On such a wire the full circuit
unitary factorizes as ``U_wire ⊗ U_rest``, so two circuits can only be
equivalent (even up to global phase) if their per-wire factors are
proportional.  A non-proportional pair of factors is therefore a *sound*
non-equivalence witness, obtained without building any DD or ZX diagram.

Soundness notes:

* A bare support mismatch is **not** a witness: a wire touched by
  ``x; x`` carries the identity despite a non-empty support.  The pass
  only ever rules on wires whose exact local unitary is known on *both*
  sides (an untouched wire carries the identity).
* Any multi-qubit operation touching a wire disqualifies it — the wire
  may be entangled and no local statement is sound.  The interaction
  pass (:mod:`repro.analysis.interaction`) generalizes to small isolated
  fragments instead.

Inputs must already be in *logical form*, so that physically-permuted
wires are compared correctly: :func:`repro.analysis.analyze_pair` passes
the two circuits of the manager's
:class:`~repro.ec.permutations.LogicalPair`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.circuit.circuit import QuantumCircuit

#: Claim non-equivalence only when the proportionality defect clearly
#: exceeds accumulated float error (|tr(U†V)| is 2 exactly iff U ∝ V).
_NEQ_MARGIN = 1e-6

ComplexMatrix = NDArray[np.complex128]


@dataclass(frozen=True)
class WireProfile:
    """Static facts about a single wire of one circuit.

    Attributes:
        wire: The wire index (logical, post-layout).
        gate_count: Operations touching the wire.
        multi_qubit_gates: Of those, operations touching other wires too.
        local_unitary: The exact 2×2 unitary carried by the wire when it
            is touched by single-qubit gates only (identity for an idle
            wire); ``None`` when a multi-qubit gate makes the local
            action unknowable statically.
    """

    wire: int
    gate_count: int
    multi_qubit_gates: int
    local_unitary: Optional[ComplexMatrix]

    @property
    def idle(self) -> bool:
        return self.gate_count == 0


def wire_profiles(
    circuit: QuantumCircuit, num_qubits: Optional[int] = None
) -> List[WireProfile]:
    """Per-wire gate reachability plus exact local unitaries.

    ``num_qubits`` pads the profile list (wires beyond the circuit's
    width are idle) so differently-sized circuits compare uniformly.
    """
    width = num_qubits if num_qubits is not None else circuit.num_qubits
    gate_count = [0] * width
    multi = [0] * width
    local: List[Optional[ComplexMatrix]] = [
        np.eye(2, dtype=np.complex128) for _ in range(width)
    ]
    for op in circuit:
        qubits = op.qubits
        for q in qubits:
            gate_count[q] += 1
        if len(qubits) == 1:
            q = qubits[0]
            if local[q] is not None:
                matrix = np.asarray(op.matrix(), dtype=np.complex128)
                local[q] = matrix @ local[q]
        else:
            for q in qubits:
                multi[q] += 1
                local[q] = None
    return [
        WireProfile(w, gate_count[w], multi[w], local[w])
        for w in range(width)
    ]


def local_unitaries_proportional(
    u: ComplexMatrix, v: ComplexMatrix
) -> Tuple[bool, float]:
    """Decide ``U ∝ V`` for 2×2 unitaries via ``|tr(U†V)| = 2``.

    Returns ``(proportional, defect)`` where ``defect = 2 - |tr(U†V)|``
    is 0 exactly for proportional unitaries and grows towards 2 (or 4
    for anti-proportional traces) as they diverge.
    """
    overlap = abs(complex(np.trace(u.conj().T @ v)))
    defect = 2.0 - overlap
    return defect <= _NEQ_MARGIN, defect


def support_check(
    logical1: QuantumCircuit,
    logical2: QuantumCircuit,
    num_qubits: int,
) -> Tuple[Optional[Dict[str, object]], Dict[str, object]]:
    """Compare per-wire supports and local factors of a logical pair.

    Returns ``(witness, summary)``.  ``witness`` is ``None`` unless a
    wire carries provably different local unitaries on the two sides —
    a sound non-equivalence witness.  ``summary`` always reports the
    support statistics feeding the CLI report.
    """
    profiles1 = wire_profiles(logical1, num_qubits)
    profiles2 = wire_profiles(logical2, num_qubits)
    idle_both = 0
    compared = 0
    witness: Optional[Dict[str, object]] = None
    worst_defect = 0.0
    for p1, p2 in zip(profiles1, profiles2):
        if p1.idle and p2.idle:
            idle_both += 1
            continue
        if p1.local_unitary is None or p2.local_unitary is None:
            continue
        compared += 1
        proportional, defect = local_unitaries_proportional(
            p1.local_unitary, p2.local_unitary
        )
        worst_defect = max(worst_defect, defect)
        if not proportional and witness is None:
            kind = (
                "idle_wire_mismatch"
                if p1.idle or p2.idle
                else "local_wire_mismatch"
            )
            witness = {
                "pass": "support",
                "kind": kind,
                "wire": p1.wire,
                "trace_defect": round(defect, 9),
                "gates": [p1.gate_count, p2.gate_count],
            }
    summary: Dict[str, object] = {
        "idle_wires_both": idle_both,
        "local_wires_compared": compared,
        "worst_trace_defect": round(worst_defect, 9),
        "support": [
            sorted(p.wire for p in profiles1 if not p.idle),
            sorted(p.wire for p in profiles2 if not p.idle),
        ],
    }
    return witness, summary
