"""Strategy cost model and planner (static pass 5).

Estimates the relative effort of the DD and ZX pipelines from statically
cheap features — width, depth, T-count, rotation count, and two-qubit
structure — and turns the estimate plus the fragment profiles into the
pair's :class:`~repro.ec.portfolio.Plan`, which both executors of the
``combined`` strategy run: the sequential schedule walks its lanes in
order until a proof, the portfolio race launches each lane at its offset.

The paper's case study (Sections 4-5) motivates the heuristics:

* Clifford circuits are polynomially decidable — the stabilizer checker
  dominates everything and should run *first*.
* ``full_reduce`` excels on Clifford+T with moderate T-count but gets
  stuck on rotation-heavy circuits, where the alternating DD scheme with
  a good application ordering stays tractable.
* DD sizes blow up with entangling depth; ZX cost tracks the spider
  count (≈ gates) and the non-Clifford phase count.

The planner is deliberately conservative: it only picks the preferred
checker (which races from t=0) and adds ``stabilizer`` in front on
Clifford pairs; it never drops a stage, so the combined flow keeps its
worst-case behaviour and the plan can never cost correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.gateset import (
    FRAGMENT_CLIFFORD,
    FRAGMENT_ROTATION_HEAVY,
    GateSetProfile,
)
from repro.circuit.circuit import QuantumCircuit
# The plan is defined beside its executors, so that a check without the
# pre-pass can run the default plan without importing repro.analysis.
from repro.ec.portfolio import Plan


@dataclass(frozen=True)
class CostEstimate:
    """Relative effort scores for one circuit pair.

    Scores are unitless and only meaningful relative to each other; the
    planner compares ``dd_score`` against ``zx_score`` and inspects the
    feature fields to justify its ordering.
    """

    num_qubits: int
    total_gates: int
    depth: int
    t_count: int
    rotation_count: int
    two_qubit_count: int
    dd_score: float
    zx_score: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_qubits": self.num_qubits,
            "total_gates": self.total_gates,
            "depth": self.depth,
            "t_count": self.t_count,
            "rotation_count": self.rotation_count,
            "two_qubit_count": self.two_qubit_count,
            "dd_score": round(self.dd_score, 3),
            "zx_score": round(self.zx_score, 3),
        }


def estimate_cost(
    circuits: Tuple[QuantumCircuit, QuantumCircuit],
    profiles: Tuple[GateSetProfile, GateSetProfile],
) -> CostEstimate:
    """Combine both circuits' static features into one pair estimate."""
    num_qubits = max(c.num_qubits for c in circuits)
    depth = max(c.depth() for c in circuits)
    total_gates = sum(p.num_gates for p in profiles)
    t_count = sum(p.t_like_gates for p in profiles)
    rotations = sum(p.rotation_gates for p in profiles)
    two_qubit = sum(p.two_qubit_gates for p in profiles)
    # DD effort grows with the entangling structure the diagram must
    # represent: two-qubit depth drives node counts, width caps them.
    # Coefficients re-tuned for the array-native kernels (struct-of-arrays
    # node store + batched stimuli cut per-gate DD cost by ~2.5-3x on the
    # Table-1 cells, see BENCH_dd_kernels.json), which narrows the gap to
    # ZX on entangling-heavy pairs.
    dd_score = (
        float(total_gates)
        + 3.0 * two_qubit
        + 0.4 * depth * num_qubits
    )
    # ZX effort tracks the spider count plus the phases full_reduce
    # cannot fuse away; generic rotations are the dominant obstruction.
    zx_score = (
        float(total_gates)
        + 6.0 * t_count
        + 40.0 * rotations
    )
    return CostEstimate(
        num_qubits=num_qubits,
        total_gates=total_gates,
        depth=depth,
        t_count=t_count,
        rotation_count=rotations,
        two_qubit_count=two_qubit,
        dd_score=dd_score,
        zx_score=zx_score,
    )


def plan_checks(
    profiles: Tuple[GateSetProfile, GateSetProfile],
    estimate: CostEstimate,
) -> Plan:
    """Derive the pair's plan from the static evidence.

    The preferred checker and ``simulation`` (the paper's cheap
    falsifier) start at t=0, every other lane after the head start
    (:meth:`~repro.ec.portfolio.Plan.staged`); ``stabilizer`` joins only
    when the gateset pass proves both circuits Clifford.
    """
    rationale: List[str] = []
    clifford = all(p.fragment == FRAGMENT_CLIFFORD for p in profiles)
    if clifford:
        # Polynomial decision procedure applies — run it before anything
        # exponential; the downstream stages remain as a safety net.
        preferred = "stabilizer"
        rationale.append(
            "both circuits are Clifford-only: the stabilizer tableau "
            "decides equivalence in polynomial time"
        )
    elif all(p.is_clifford_t for p in profiles) and (
        estimate.zx_score < estimate.dd_score
    ):
        preferred = "zx"
        rationale.append(
            "Clifford+T pair with low rewrite obstruction: full_reduce "
            f"is favoured (zx_score {estimate.zx_score:.0f} < dd_score "
            f"{estimate.dd_score:.0f})"
        )
    elif any(p.fragment == FRAGMENT_ROTATION_HEAVY for p in profiles):
        preferred = "alternating"
        rationale.append(
            "rotation-heavy fragment: ZX reduction is likely to get "
            "stuck, alternating DD check preferred"
        )
    elif estimate.zx_score < estimate.dd_score:
        preferred = "zx"
        rationale.append(
            f"cost model favours ZX (zx_score {estimate.zx_score:.0f} "
            f"< dd_score {estimate.dd_score:.0f})"
        )
    else:
        preferred = "alternating"
        rationale.append(
            f"cost model favours DD (dd_score {estimate.dd_score:.0f} "
            f"<= zx_score {estimate.zx_score:.0f})"
        )
    return Plan.staged(preferred, clifford, tuple(rationale))
