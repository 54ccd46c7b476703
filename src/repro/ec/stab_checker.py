"""Stabilizer-tableau equivalence checking (reproduction extension).

Equivalence checking is QMA-complete in general (paper Section 3), but on
the *Clifford fragment* it is polynomial: two Clifford circuits are
equivalent up to global phase iff they conjugate every Pauli generator
identically, i.e. iff their tableaus coincide.  This checker decides that
in ``O(n^2 m)`` time and yields ``NO_INFORMATION`` as soon as either
circuit leaves the Clifford group — a cheap pre-check that complements the
two general paradigms of the case study (and a third, independent engine
the test suite cross-validates DD and ZX against).
"""

from __future__ import annotations

import time
from typing import Optional

# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import check_deadline
from repro.stab.tableau import CliffordTableau, NonCliffordGateError


def stabilizer_check(
    pair: LogicalPair, deadline: Optional[float] = None
) -> EquivalenceCheckingResult:
    """Exact Clifford equivalence via tableau comparison.

    Returns ``EQUIVALENT_UP_TO_GLOBAL_PHASE`` / ``NOT_EQUIVALENT`` for
    Clifford pairs and ``NO_INFORMATION`` when a non-Clifford gate occurs
    (the method simply does not apply — mirroring how the ZX checker
    reports an unfinished reduction).
    """
    start = time.monotonic()
    check_deadline(deadline)
    try:
        tableau1 = CliffordTableau.from_circuit(pair.circuit1)
        check_deadline(deadline)
        tableau2 = CliffordTableau.from_circuit(pair.circuit2)
        check_deadline(deadline)
    except NonCliffordGateError as reason:
        return EquivalenceCheckingResult(
            Equivalence.NO_INFORMATION,
            "stabilizer",
            time.monotonic() - start,
            {"reason": str(reason)},
        )
    verdict = (
        Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
        if tableau1 == tableau2
        else Equivalence.NOT_EQUIVALENT
    )
    return EquivalenceCheckingResult(
        verdict,
        "stabilizer",
        time.monotonic() - start,
        {"same_output_state": tableau1.same_state(tableau2)},
    )
