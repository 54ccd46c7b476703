"""Analyzer soundness against dense ground truth, across fuzz families.

The acceptance property: on every generated pair (all five families,
widths ≤ 8; symbolic pairs sampled at the planted witness plus seeded
valuations), a static verdict must never contradict the dense-unitary
ground truth — no NEQ witness on an equivalent pair, no equivalence
proof on a non-equivalent pair — and equivalent-*labeled* mutator pairs
must never be flagged even when the dense truth is skipped.
"""

import numpy as np
import pytest

from repro.analysis import analyze_pair
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.circuit.unitary import circuit_unitary, hilbert_schmidt_fidelity
from repro.ec.configuration import Configuration
from repro.ec.param_checker import draw_valuations
from repro.ec.permutations import logical_pair, to_logical_form
from repro.fuzz.generator import FAMILIES, generate_instance
from repro.fuzz.mutators import LABEL_EQUIVALENT

_PAIRS_PER_FAMILY = 30
_DENSE_LIMIT = 8


def _unitaries_match(logical1, logical2) -> bool:
    u1 = circuit_unitary(logical1)
    u2 = circuit_unitary(logical2)
    return abs(hilbert_schmidt_fidelity(u1, u2) - 1.0) < 1e-8


def _dense_verdict(pair) -> str:
    n = pair.num_qubits
    config = Configuration()
    logical1, _ = to_logical_form(pair.circuit1, n)
    logical2, _ = to_logical_form(pair.circuit2, n)
    if is_symbolic_circuit(logical1) or is_symbolic_circuit(logical2):
        # Symbolic pair: ground truth is sampled — the planted witness
        # valuation first (the one place a breaking mutator must show),
        # then seeded draws.  NEQ at any valuation decides.
        variables = sorted(
            set(circuit_parameters(logical1))
            | set(circuit_parameters(logical2))
        )
        valuations = []
        planted = (pair.witness or {}).get("valuation")
        if isinstance(planted, dict):
            valuations.append(
                {v: float(planted.get(v, 0.0)) for v in variables}
            )
        valuations.extend(draw_valuations(tuple(variables), 8, 1234))
        for valuation in valuations:
            inst1 = instantiate_circuit(logical1, valuation)
            inst2 = instantiate_circuit(logical2, valuation)
            if not _unitaries_match(inst1, inst2):
                return "not_equivalent"
        return "equivalent"
    if _unitaries_match(logical1, logical2):
        return "equivalent"
    return "not_equivalent"


def _iter_pairs(family):
    produced = 0
    seed = 0
    while produced < _PAIRS_PER_FAMILY:
        seed += 1
        try:
            _, pair = generate_instance(seed, family)
        except Exception:  # non-applicable recipe draws
            continue
        if pair.num_qubits > _DENSE_LIMIT:
            continue
        produced += 1
        yield seed, pair


@pytest.mark.parametrize("family", FAMILIES)
def test_static_verdicts_never_contradict_dense_truth(family):
    checked = 0
    decided = 0
    for seed, pair in _iter_pairs(family):
        report = analyze_pair(logical_pair(pair.circuit1, pair.circuit2))
        truth = _dense_verdict(pair)
        checked += 1
        if report.verdict == "not_equivalent":
            decided += 1
            assert truth == "not_equivalent", (
                f"UNSOUND static NEQ: family={family} seed={seed} "
                f"witness={report.witness}"
            )
        elif report.verdict == "equivalent_up_to_global_phase":
            decided += 1
            assert truth == "equivalent", (
                f"UNSOUND static EQ proof: family={family} seed={seed} "
                f"witness={report.witness}"
            )
    assert checked == _PAIRS_PER_FAMILY


@pytest.mark.parametrize("family", FAMILIES)
def test_equivalent_labeled_pairs_are_never_flagged(family):
    for seed, pair in _iter_pairs(family):
        if pair.label != LABEL_EQUIVALENT:
            continue
        report = analyze_pair(logical_pair(pair.circuit1, pair.circuit2))
        assert report.verdict != "not_equivalent", (
            f"static NEQ on an equivalent-labeled pair: family={family} "
            f"seed={seed} recipe={pair.recipe} witness={report.witness}"
        )


def test_analyzer_is_deterministic():
    _, pair = generate_instance(7, "clifford_t")
    first = analyze_pair(logical_pair(pair.circuit1, pair.circuit2))
    second = analyze_pair(logical_pair(pair.circuit1, pair.circuit2))
    assert first.verdict == second.verdict
    assert first.witness == second.witness
    assert first.to_dict()["lanes"] == second.to_dict()["lanes"]
