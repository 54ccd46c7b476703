"""Static circuit analysis: sound pre-checks and the Clifford fact.

The subsystem runs four static passes over a circuit pair *without
executing anything* — no decision diagram, no ZX graph, no simulation:

1. :mod:`repro.analysis.support` — qubit-support / idle-wire analysis
   with exact local 1q factors (sound NEQ witnesses on product wires);
2. :mod:`repro.analysis.interaction` — interaction-graph fingerprints
   and dense comparison of small isolated fragments;
3. :mod:`repro.analysis.gateset` — Clifford / Clifford+T /
   rotation-heavy fragment profiling; its proof that both circuits are
   Clifford is the one fact the check's plan depends on
   (:func:`repro.ec.portfolio.plan` puts ``stabilizer`` first);
4. :mod:`repro.analysis.phasepoly` — canonical phase-polynomial
   fingerprints for the {CNOT, X, Rz} fragment, decided exactly.

Every entry point takes the :class:`~repro.ec.permutations.LogicalPair`
the manager derived for the check, so the passes see exactly the logical
wires the checkers see.  Entry points:

* :func:`analyze_pair` — run all passes, return a
  :class:`~repro.analysis.report.StaticAnalysisReport`;
* :func:`run_prepass` — the manager's pre-pass: returns a short-circuit
  :class:`~repro.ec.results.EquivalenceCheckingResult` for sound NEQ
  verdicts, plus the report (its Clifford fact and its statistics
  block);
* :func:`analysis_check` — the standalone ``analysis`` strategy (also
  the fuzz oracle's seventh participant): sound verdicts map to
  ``NOT_EQUIVALENT`` / ``EQUIVALENT_UP_TO_GLOBAL_PHASE``, anything else
  degrades to ``NO_INFORMATION`` — never a guess.

Everything in this package must stay *sound*: a verdict is only emitted
when backed by an exact argument (local factor mismatch, isolated
fragment trace defect, affine-map or achievable-phase mismatch).  The
differential fuzz oracle cross-checks this against dense ground truth.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.analysis.gateset import (
    GateSetProfile,
    is_phase_poly_operation,
    profile_gate_set,
)
from repro.analysis.interaction import (
    MAX_FRAGMENT_QUBITS,
    fragment_isolation_check,
    interaction_fingerprint,
    union_components,
)
from repro.analysis.phasepoly import (
    PhasePolynomial,
    compare_phase_polynomials,
    extract_phase_polynomial,
    phase_polynomial_check,
)
from repro.analysis.report import (
    StaticAnalysisReport,
    VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE,
    VERDICT_NOT_EQUIVALENT,
    VERDICT_UNDECIDED,
    format_report,
)
from repro.analysis.support import support_check, wire_profiles
from repro.ec.configuration import Configuration
# to_logical_form is imported for benchmarks/e2e/spans.py, which wraps it here.
from repro.ec.permutations import LogicalPair, to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import CheckTimeout, check_deadline
from repro.perf.counters import PerfCounters

__all__ = [
    "GateSetProfile",
    "MAX_FRAGMENT_QUBITS",
    "PhasePolynomial",
    "StaticAnalysisReport",
    "VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE",
    "VERDICT_NOT_EQUIVALENT",
    "VERDICT_UNDECIDED",
    "analysis_check",
    "analyze_pair",
    "compare_phase_polynomials",
    "extract_phase_polynomial",
    "format_report",
    "fragment_isolation_check",
    "interaction_fingerprint",
    "is_phase_poly_operation",
    "phase_polynomial_check",
    "profile_gate_set",
    "run_prepass",
    "support_check",
    "to_logical_form",
    "union_components",
    "wire_profiles",
]


def analyze_pair(
    pair: LogicalPair,
    deadline: Optional[float] = None,
    counters: Optional[PerfCounters] = None,
) -> StaticAnalysisReport:
    """Run all four static passes over a pair's logical forms.

    Respects the cooperative ``deadline`` between passes, charges wall
    time to ``analysis.*`` phases of ``counters`` when given, and never
    constructs a DD or ZX diagram (isolated-fragment comparison builds
    dense matrices of at most ``2^MAX_FRAGMENT_QUBITS``).
    """
    counters = counters if counters is not None else PerfCounters()
    started = time.perf_counter()
    logical1, logical2 = pair.circuit1, pair.circuit2
    num_qubits = pair.num_qubits
    passes_run = []

    # The support and fragment passes multiply out gate matrices, which
    # symbolic parameters cannot do; the remaining passes (gate-set
    # profile, symbolic phase polynomial) stay sound for every
    # valuation, so a symbolic pair skips just the dense passes.
    from repro.circuit.symbolic import is_symbolic_circuit

    symbolic = is_symbolic_circuit(logical1) or is_symbolic_circuit(
        logical2
    )

    check_deadline(deadline)
    with counters.phase("analysis.gateset"):
        profiles = (profile_gate_set(logical1), profile_gate_set(logical2))
        passes_run.append("gateset")

    witness: Optional[Dict[str, object]] = None
    proof_details: Optional[Dict[str, object]] = None

    check_deadline(deadline)
    support_summary: Dict[str, object] = {"kind": "skipped_symbolic"}
    if not symbolic:
        with counters.phase("analysis.support"):
            support_witness, support_summary = support_check(
                logical1, logical2, num_qubits
            )
            passes_run.append("support")
        if support_witness is not None:
            witness = support_witness
            counters.count("analysis.support_witnesses")

    check_deadline(deadline)
    interaction_summary: Dict[str, object] = {
        "fingerprints": [
            interaction_fingerprint(logical1),
            interaction_fingerprint(logical2),
        ]
    }
    if not symbolic:
        with counters.phase("analysis.interaction"):
            fragment_witness, fragment_proof, fragment_summary = (
                fragment_isolation_check(logical1, logical2, num_qubits)
            )
            interaction_summary.update(fragment_summary)
            passes_run.append("interaction")
        if witness is None and fragment_witness is not None:
            witness = fragment_witness
            counters.count("analysis.fragment_witnesses")
        if fragment_proof is not None:
            proof_details = {"pass": "interaction", "kind": "fragment_factors"}

    check_deadline(deadline)
    phase_summary: Dict[str, object] = {"kind": "not_applicable"}
    if all(p.phase_poly_compatible for p in profiles):
        with counters.phase("analysis.phase_polynomial"):
            phase_verdict, phase_summary = phase_polynomial_check(
                logical1, logical2
            )
            passes_run.append("phase_polynomial")
        if witness is None and phase_verdict == VERDICT_NOT_EQUIVALENT:
            witness = dict(phase_summary)
            counters.count("analysis.phase_poly_witnesses")
        if (
            phase_verdict == VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE
            and proof_details is None
        ):
            proof_details = {
                "pass": "phase_polynomial",
                "kind": str(phase_summary.get("kind", "")),
            }

    if witness is not None:
        verdict = VERDICT_NOT_EQUIVALENT
    elif proof_details is not None:
        verdict = VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE
        witness = proof_details
    else:
        verdict = VERDICT_UNDECIDED
    counters.count("analysis.runs")
    return StaticAnalysisReport(
        verdict=verdict,
        witness=witness,
        profiles=profiles,
        support=support_summary,
        interaction=interaction_summary,
        phase_polynomial=phase_summary,
        passes_run=tuple(passes_run),
        time=time.perf_counter() - started,
    )


def analysis_check(
    pair: LogicalPair, deadline: Optional[float] = None
) -> EquivalenceCheckingResult:
    """The standalone ``analysis`` strategy: static passes only.

    Sound verdicts map onto the usual result vocabulary; an undecided
    report degrades to ``NO_INFORMATION`` — the analyzer never guesses.
    """
    started = time.perf_counter()
    counters = PerfCounters()
    report = analyze_pair(pair, deadline, counters)
    if report.is_sound_neq:
        equivalence = Equivalence.NOT_EQUIVALENT
    elif report.is_sound_eq:
        equivalence = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    else:
        equivalence = Equivalence.NO_INFORMATION
    return EquivalenceCheckingResult(
        equivalence,
        "analysis",
        time.perf_counter() - started,
        {
            "analysis": report.to_dict(),
            "perf": counters.as_dict(),
        },
    )


def run_prepass(
    pair: LogicalPair,
    configuration: Configuration,
    start: float,
    deadline: Optional[float] = None,
) -> Tuple[Optional[EquivalenceCheckingResult], Optional[StaticAnalysisReport]]:
    """The manager's static pre-pass.

    Returns ``(short_circuit, report)``.  ``short_circuit`` is a
    finished ``NOT_EQUIVALENT`` result when the analyzer holds a sound
    NEQ witness (the spec'd short-circuit; positive proofs do *not*
    short-circuit the configured checker).  ``report``, whose Clifford
    fact lays out the ``combined`` strategy's plan, is ``None`` only if
    the pre-pass itself failed and was swallowed (the pre-pass must
    never break a check).
    """
    counters = PerfCounters()
    try:
        report = analyze_pair(pair, deadline, counters)
    except CheckTimeout:
        raise
    except Exception:
        # A pre-pass bug must degrade to "no pre-pass", not take the
        # actual check down with it; timeouts propagate normally above.
        return None, None
    if report.is_sound_neq:
        counters.count("analysis.short_circuits")
        result = EquivalenceCheckingResult(
            Equivalence.NOT_EQUIVALENT,
            configuration.strategy,
            time.monotonic() - start,
            {
                "analysis": report.to_dict(),
                "perf": counters.as_dict(),
            },
        )
        return result, report
    return None, report
