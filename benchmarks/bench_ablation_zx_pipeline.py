"""Ablation A2: stages of the ZX simplification pipeline.

The full pipeline (paper Section 5.1) stacks spider fusion, identity
removal, local complementation, pivoting (interior / boundary / gadget)
and phase-gadget fusion.  This ablation measures how far each prefix of
the pipeline gets on an equivalence-checking instance — in remaining
spiders (the completeness axis) and time (the cost axis).
"""

import pytest

from repro.bench import algorithms
from repro.compile import compile_circuit, line_architecture
from repro.ec.permutations import to_logical_form
from repro.zx import circuit_to_zx
from repro.zx.worklist import (
    _run_rule,
    _with_tracker,
    clifford_simp,
    full_reduce,
    interior_clifford_simp,
)


def _fusion_only(diagram):
    """Graph-like fusion plus the worklist ``id`` rule alone."""
    _with_tracker(
        diagram,
        None,
        lambda tracker: _run_rule(diagram, tracker, "id", None, None),
    )


def _interior_clifford(diagram):
    interior_clifford_simp(diagram)


def _with_boundary(diagram):
    clifford_simp(diagram)


def _full(diagram):
    full_reduce(diagram)


PIPELINES = {
    "fusion_id": _fusion_only,
    "interior_clifford": _interior_clifford,
    "clifford_boundary": _with_boundary,
    "full_reduce": _full,
}


@pytest.fixture(scope="module")
def instances():
    out = {}
    for original in (
        algorithms.grover(4),
        algorithms.qft(6),
        algorithms.quantum_random_walk(3, steps=2),
    ):
        compiled = compile_circuit(
            original, line_architecture(original.num_qubits + 2)
        )
        width = max(original.num_qubits, compiled.num_qubits)
        logical1, _ = to_logical_form(original, width)
        logical2, _ = to_logical_form(compiled, width)
        out[original.name] = (logical1, logical2)
    return out


@pytest.mark.parametrize("name", ["grover_4", "qft_6", "randomwalk_3_2"])
@pytest.mark.parametrize("stage", list(PIPELINES))
def test_pipeline_stage(benchmark, instances, name, stage):
    logical1, logical2 = instances[name]

    def run():
        diagram = (
            circuit_to_zx(logical1).adjoint().compose(circuit_to_zx(logical2))
        )
        PIPELINES[stage](diagram)
        return diagram.num_spiders

    remaining = benchmark.pedantic(run, rounds=1)
    assert remaining >= 0


@pytest.mark.parametrize("name", ["grover_4", "qft_6"])
def test_stages_monotonically_reduce(instances, name):
    """Each richer pipeline prefix leaves at most as many spiders."""
    logical1, logical2 = instances[name]
    remaining = []
    for stage in PIPELINES.values():
        diagram = (
            circuit_to_zx(logical1).adjoint().compose(circuit_to_zx(logical2))
        )
        stage(diagram)
        remaining.append(diagram.num_spiders)
    assert remaining == sorted(remaining, reverse=True)
    assert remaining[-1] == 0  # full_reduce finishes the job here
