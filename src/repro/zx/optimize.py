"""ZX-calculus based circuit optimization.

The round trip *circuit -> graph-like diagram -> full_reduce ->
extraction* is the optimization pipeline of Kissinger & van de Wetering
("Reducing T-count with the ZX-calculus", reference [29] of the paper) and
Duncan et al. [28].  Within this reproduction it serves as a second,
independent producer of "optimized circuits" for the case study's second
use-case — optimized by a *different paradigm* than the peephole passes of
:mod:`repro.compile.optimize`, which makes the equivalence checkers work
harder (the ZX-optimized circuit is structurally unrelated to the input).

Extraction is limited to gadget-free diagrams (see
:mod:`repro.zx.extract`), which always covers Clifford circuits;
:func:`zx_optimize` falls back to the input circuit when extraction is not
possible.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.compile.optimize import optimize_circuit
from repro.zx.circuit_conv import circuit_to_zx
from repro.zx.extract import ExtractionError, extract_circuit
from repro.zx.worklist import full_reduce


def zx_optimize(
    circuit: QuantumCircuit, cleanup: bool = True
) -> Tuple[QuantumCircuit, bool]:
    """Optimize a circuit through the ZX round trip.

    Returns ``(circuit, extracted)`` — the optimized circuit and whether
    the ZX round trip succeeded (``False`` means the diagram was not
    gadget-free and the input is returned, optionally peephole-cleaned).
    """
    diagram = circuit_to_zx(circuit)
    full_reduce(diagram)
    try:
        extracted = extract_circuit(diagram)
    except ExtractionError:
        fallback = optimize_circuit(circuit) if cleanup else circuit.copy()
        fallback.name = f"{circuit.name}_zxopt_fallback"
        return fallback, False
    if cleanup:
        extracted = optimize_circuit(extracted)
    extracted.name = f"{circuit.name}_zxopt"
    return extracted, True
