"""The cross-paradigm differential oracle.

One labeled pair is pushed through every applicable strategy — the DD
schemes (alternating, the sequential ``combined`` schedule whose proof
may be the basis columns, reference construction), ZX simplification, the
stabilizer tableau when the pair is Clifford, and the random-stimuli
simulation — plus the dense-unitary ground truth for widths up to
``dense_limit``.  Symbolic pairs (the ``parameterized`` family) swap the
whole concrete matrix for the two ``parameterized``-strategy modes and a
valuation-sampled ground truth.  The oracle then classifies the verdict
matrix:

* a *proven* positive (``EQUIVALENT`` / up-to-global-phase) next to a
  ``NOT_EQUIVALENT`` from another checker is always a disagreement —
  both claim proof, one is wrong;
* a checker contradicting the ground truth (dense unitary where
  available, the metamorphic label otherwise) is a disagreement;
* the dense unitary contradicting the *label* flags a mutator bug;
* ``PROBABLY_EQUIVALENT`` on a non-equivalent pair is **not** a
  disagreement — random stimuli are evidence, not proof (Section 6.2 of
  the paper); it is recorded as ``missed_by_simulation`` instead.
* ``NO_INFORMATION`` / ``TIMEOUT`` / degraded failures are recorded but
  never count as disagreements: an incomplete method saying "I don't
  know" is exactly the behaviour the paper describes.

Checker failures never abort the campaign: each check runs through
:meth:`EquivalenceCheckingManager.run`, or with ``isolate=True`` through
:func:`repro.harness.run_check` in a sandboxed subprocess with a hard
SIGKILL budget that also contains hangs and crashes, so a failing
strategy degrades into a structured failure record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.unitary import (
    circuit_unitary,
    hilbert_schmidt_fidelity,
)
from repro.ec.configuration import Configuration
from repro.ec.permutations import to_logical_form
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.fuzz.generator import LabeledPair
from repro.fuzz.mutators import LABEL_EQUIVALENT, LABEL_NOT_EQUIVALENT

#: The strategies of the differential matrix: name → configuration
#: overrides applied on top of the oracle's base configuration.  The six
#: checker participants run with ``static_analysis=False`` so their
#: verdicts stay independent of the analyzer.  ``dd_combined`` is the
#: only path to the basis-columns proof, so whichever proof decides it is
#: checked against dense truth.  The seventh participant IS
#: the static analyzer, so a sound-but-wrong static witness shows up as
#: an ordinary ``false_positive``-style disagreement against dense
#: ground truth and gets shrunk and persisted like any checker bug.
STRATEGY_MATRIX: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("dd_alternating", {"strategy": "alternating", "static_analysis": False}),
    ("dd_combined", {"strategy": "combined", "static_analysis": False}),
    ("dd_reference", {"strategy": "construction", "static_analysis": False}),
    ("zx", {"strategy": "zx", "static_analysis": False}),
    ("stabilizer", {"strategy": "stabilizer", "static_analysis": False}),
    ("simulation", {"strategy": "simulation", "static_analysis": False}),
    ("static_analysis", {"strategy": "analysis"}),
)

#: The matrix for *symbolic* pairs: every concrete participant above
#: would refuse symbolic parameters (``InvalidInput``), so the oracle
#: differentials the two ``parameterized`` modes against each other and
#: against the valuation-sampled dense ground truth — symbolic-first
#: versus instantiate-only, mirroring the BENCH_parameterized split.
PARAMETERIZED_MATRIX: Tuple[Tuple[str, Dict[str, object]], ...] = (
    (
        "param_symbolic",
        {
            "strategy": "parameterized",
            "parameterized_symbolic": True,
            "static_analysis": False,
        },
    ),
    (
        "param_instantiate",
        {
            "strategy": "parameterized",
            "parameterized_symbolic": False,
            "static_analysis": False,
        },
    ),
)

#: The optional eighth participant: the concurrent strategy portfolio.
#: It races the same checkers as sandboxed children, so cross-checking
#: its verdict against the sequential matrix exercises the whole race
#: machinery (launch, kill, reap, verdict selection) per fuzzed pair.
PORTFOLIO_PARTICIPANT: Tuple[str, Dict[str, object]] = (
    "portfolio",
    {"strategy": "combined", "portfolio": True, "static_analysis": False},
)

#: Verdicts that constitute a *proof* of equivalence.
_PROVEN_POSITIVE = {
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
}

#: A hook rewriting one checker's result before classification — the
#: chaos-style seam the shrinking tests use to plant a buggy checker.
VerdictHook = Callable[
    [str, LabeledPair, EquivalenceCheckingResult], EquivalenceCheckingResult
]


@dataclass
class OracleReport:
    """The verdict matrix of one pair plus its classification."""

    label: str
    results: Dict[str, EquivalenceCheckingResult] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    truth: Optional[str] = None
    disagreements: List[Dict[str, object]] = field(default_factory=list)
    missed_by_simulation: bool = False

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def verdicts(self) -> Dict[str, str]:
        return {
            name: result.equivalence.value
            for name, result in self.results.items()
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "truth": self.truth,
            "verdicts": self.verdicts(),
            "skipped": dict(self.skipped),
            "disagreements": list(self.disagreements),
            "missed_by_simulation": self.missed_by_simulation,
        }


def _is_clifford_pair(pair: LabeledPair) -> bool:
    return all(
        op.is_clifford()
        for circuit in (pair.circuit1, pair.circuit2)
        for op in circuit
    )


class DifferentialOracle:
    """Runs the strategy matrix on labeled pairs and flags disagreements.

    Args:
        configuration: Base configuration; per-strategy overrides from
            :data:`STRATEGY_MATRIX` are applied on top.  Its ``timeout``
            bounds each individual check.
        isolate: Run every check in a sandboxed subprocess (hard
            wall-clock kill, optional memory ceiling) via
            :func:`repro.harness.run_check`.
        dense_limit: Maximum width for which the dense-unitary ground
            truth is computed (``2^n`` scaling; 8 ⇒ 256×256 matrices).
        verdict_hook: Optional rewrite of each checker result before
            classification (deterministic fault injection for tests).
        portfolio: Add the concurrent strategy portfolio
            (:data:`PORTFOLIO_PARTICIPANT`) to the matrix, so its raced
            verdict is cross-checked against every sequential checker
            and the ground truth on every pair.
    """

    def __init__(
        self,
        configuration: Optional[Configuration] = None,
        isolate: bool = False,
        dense_limit: int = 8,
        verdict_hook: Optional[VerdictHook] = None,
        portfolio: bool = False,
    ) -> None:
        self.configuration = configuration or Configuration(
            timeout=10.0, seed=0
        )
        self.isolate = isolate
        self.dense_limit = dense_limit
        self.verdict_hook = verdict_hook
        self.portfolio = portfolio

    # ------------------------------------------------------------------
    def _run_strategy(
        self, pair: LabeledPair, overrides: Dict[str, object]
    ) -> EquivalenceCheckingResult:
        config = dataclasses.replace(self.configuration, **overrides)
        if self.isolate:
            from repro.harness import run_check

            return run_check(
                pair.circuit1, pair.circuit2, config, isolate=True
            )
        from repro.ec.manager import EquivalenceCheckingManager

        return EquivalenceCheckingManager(
            pair.circuit1, pair.circuit2, config
        ).run()

    def _dense_verdict(self, circuit1, circuit2, n: int) -> str:
        """Dense-unitary comparison of two *concrete* circuits.

        It is the reference for every checker, so it folds the layouts
        itself rather than through
        :func:`~repro.ec.permutations.logical_pair`.
        """
        u1 = circuit_unitary(to_logical_form(circuit1, n)[0])
        u2 = circuit_unitary(to_logical_form(circuit2, n)[0])
        if np.allclose(u1, u2, atol=1e-8):
            return Equivalence.EQUIVALENT.value
        if abs(hilbert_schmidt_fidelity(u1, u2) - 1.0) < 1e-8:
            return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE.value
        return Equivalence.NOT_EQUIVALENT.value

    def _dense_truth(self, pair: LabeledPair) -> Optional[str]:
        """Ground-truth verdict from explicit unitaries, or None if too wide."""
        n = pair.num_qubits
        if n > self.dense_limit:
            return None
        from repro.circuit.symbolic import is_symbolic_circuit

        if is_symbolic_circuit(pair.circuit1) or is_symbolic_circuit(
            pair.circuit2
        ):
            return self._dense_truth_symbolic(pair, n)
        return self._dense_verdict(pair.circuit1, pair.circuit2, n)

    def _dense_truth_symbolic(
        self, pair: LabeledPair, n: int
    ) -> Optional[str]:
        """Valuation-sampled ground truth for a symbolic pair.

        The planted witness valuation (when the mutator recorded one) is
        checked *first* — a breaking mutator's defect can be invisible at
        random valuations (e.g. a coefficient nudge vanishes wherever the
        nudged parameter is 0), so the witness must anchor the sample.
        ``NOT_EQUIVALENT`` at any valuation decides the pair; agreement
        everywhere is reported as the strongest verdict seen.
        """
        from repro.circuit.symbolic import (
            circuit_parameters,
            instantiate_circuit,
        )
        from repro.ec.param_checker import draw_valuations

        variables = tuple(
            sorted(
                set(circuit_parameters(pair.circuit1))
                | set(circuit_parameters(pair.circuit2))
            )
        )
        valuations: List[Dict[str, float]] = []
        witness = pair.witness.get("valuation")
        if isinstance(witness, dict):
            valuations.append(
                {name: float(witness.get(name, 0.0)) for name in variables}
            )
        valuations.extend(
            draw_valuations(variables, 8, self.configuration.seed)
        )
        exact = True
        for valuation in valuations:
            verdict = self._dense_verdict(
                instantiate_circuit(pair.circuit1, valuation),
                instantiate_circuit(pair.circuit2, valuation),
                n,
            )
            if verdict == Equivalence.NOT_EQUIVALENT.value:
                return verdict
            if verdict != Equivalence.EQUIVALENT.value:
                exact = False
        if exact:
            return Equivalence.EQUIVALENT.value
        return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE.value

    # ------------------------------------------------------------------
    def check(self, pair: LabeledPair) -> OracleReport:
        """Run the full matrix on one pair and classify the verdicts."""
        report = OracleReport(label=pair.label)
        from repro.circuit.symbolic import is_symbolic_circuit

        symbolic = is_symbolic_circuit(pair.circuit1) or is_symbolic_circuit(
            pair.circuit2
        )
        if symbolic:
            # Concrete checkers refuse symbolic parameters outright;
            # record the skips so campaign journals stay self-describing.
            matrix = PARAMETERIZED_MATRIX
            for name, _ in STRATEGY_MATRIX:
                report.skipped[name] = "symbolic pair"
            if self.portfolio:
                report.skipped[PORTFOLIO_PARTICIPANT[0]] = "symbolic pair"
        else:
            matrix = STRATEGY_MATRIX
            if self.portfolio:
                matrix = matrix + (PORTFOLIO_PARTICIPANT,)
        clifford = not symbolic and _is_clifford_pair(pair)
        for name, overrides in matrix:
            if name == "stabilizer" and not clifford:
                report.skipped[name] = "non-Clifford pair"
                continue
            result = self._run_strategy(pair, overrides)
            if self.verdict_hook is not None:
                result = self.verdict_hook(name, pair, result)
            report.results[name] = result
        report.truth = self._dense_truth(pair)
        self._classify(report)
        return report

    # ------------------------------------------------------------------
    def _classify(self, report: OracleReport) -> None:
        proven_pos = [
            name
            for name, result in report.results.items()
            if result.equivalence in _PROVEN_POSITIVE
        ]
        negative = [
            name
            for name, result in report.results.items()
            if result.equivalence is Equivalence.NOT_EQUIVALENT
        ]
        for pos in proven_pos:
            for neg in negative:
                report.disagreements.append(
                    {
                        "kind": "cross_checker",
                        "positive": pos,
                        "negative": neg,
                    }
                )
        # Ground truth: the dense unitary where computable, the
        # metamorphic label otherwise.
        truth_positive = (
            report.truth != Equivalence.NOT_EQUIVALENT.value
            if report.truth is not None
            else report.label == LABEL_EQUIVALENT
        )
        basis = "dense_unitary" if report.truth is not None else "label"
        if truth_positive:
            for name in negative:
                report.disagreements.append(
                    {"kind": "false_negative", "checker": name, "basis": basis}
                )
        else:
            for name in proven_pos:
                report.disagreements.append(
                    {"kind": "false_positive", "checker": name, "basis": basis}
                )
            sim = report.results.get("simulation")
            if (
                sim is not None
                and sim.equivalence is Equivalence.PROBABLY_EQUIVALENT
            ):
                report.missed_by_simulation = True
        if report.truth is not None:
            label_positive = report.label == LABEL_EQUIVALENT
            if label_positive != truth_positive:
                report.disagreements.append(
                    {
                        "kind": "label_vs_truth",
                        "label": report.label,
                        "truth": report.truth,
                    }
                )
