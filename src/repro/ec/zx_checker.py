"""ZX-calculus based equivalence checking (paper Section 5.1).

The pair's two logical forms (layouts and output permutations already
folded in) are converted to ZX-diagrams, composed as ``G' ∘ G†`` and
simplified with ``full_reduce``.  If the result is a bare-wire identity
diagram the circuits are equivalent (up to global phase — the scalar is
not tracked); a bare-wire *permutation* that does not match the expected
one, impossible here because logical form already folds the expected
permutation in, would mean non-equivalence.  If spiders remain, the method
yields ``NO_INFORMATION``: as the paper stresses, a stuck reduction is "a
strong indication" but *not* a proof of non-equivalence.
"""

from __future__ import annotations

import time
from typing import Optional

# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.perf import PerfCounters
from repro.zx.circuit_conv import circuit_to_zx
from repro.zx.simplify import contract_unitary_chains
from repro.zx.worklist import full_reduce

#: Distance from the identity below which a single-qubit chain left by
#: ``full_reduce`` is contracted away (:func:`contract_unitary_chains`).
CHAIN_TOLERANCE = 1e-6


def zx_check(
    pair: LogicalPair, deadline: Optional[float] = None
) -> EquivalenceCheckingResult:
    """Check equivalence by reducing the composed ZX-diagram ``G' G†``."""
    start = time.monotonic()
    perf = PerfCounters()
    with perf.phase("compose"):
        diagram = circuit_to_zx(pair.circuit1).adjoint().compose(
            circuit_to_zx(pair.circuit2)
        )
    initial_spiders = diagram.num_spiders
    with perf.phase("simplify"):
        rewrites = full_reduce(diagram, deadline=deadline, counters=perf)
    # Reproduction extension: circuits decomposed with different Euler
    # conventions leave numerically-identity single-qubit chains the
    # symbolic rules cannot see; contract them and re-reduce.
    with perf.phase("chain_contraction"):
        while contract_unitary_chains(
            diagram, CHAIN_TOLERANCE, deadline=deadline
        ):
            rewrites += full_reduce(diagram, deadline=deadline, counters=perf)
    statistics = {
        "initial_spiders": initial_spiders,
        "spiders_remaining": diagram.num_spiders,
        "edges_remaining": diagram.num_edges,
        "zx_rewrites": rewrites,
        "perf": perf.as_dict(),
    }
    permutation = diagram.wire_permutation()
    if permutation is not None:
        identity = all(src == dst for src, dst in permutation.items())
        verdict = (
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            if identity
            else Equivalence.NOT_EQUIVALENT
        )
        if not identity:
            statistics["residual_permutation"] = permutation
    else:
        verdict = Equivalence.NO_INFORMATION
    return EquivalenceCheckingResult(
        verdict, "zx", time.monotonic() - start, statistics
    )
