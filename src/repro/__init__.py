"""Reproduction of *Equivalence Checking Paradigms in Quantum Circuit
Design: A Case Study* (Peham, Burgholzer, Wille — DAC 2022).

The package re-implements, from scratch, both equivalence-checking
paradigms the paper compares — decision diagrams (:mod:`repro.dd`) and the
ZX-calculus (:mod:`repro.zx`) — on a shared circuit IR
(:mod:`repro.circuit`), together with the compilation and optimization
substrate that produces the paper's two verification use-cases
(:mod:`repro.compile`), the equivalence-checking strategies and manager
(:mod:`repro.ec`), and the benchmark generators plus the case-study harness
regenerating Table 1 (:mod:`repro.bench`).

Quickstart::

    from repro import QuantumCircuit, verify

    ghz = QuantumCircuit(3)
    ghz.h(0).cx(0, 1).cx(0, 2)

    from repro.compile import compile_circuit, line_architecture
    compiled = compile_circuit(ghz, line_architecture(5))

    result = verify(ghz, compiled)
    assert result.considered_equivalent
"""

from repro.circuit import QuantumCircuit, Operation, circuit_from_qasm, circuit_to_qasm

__version__ = "0.1.0"

__all__ = [
    "QuantumCircuit",
    "Operation",
    "circuit_from_qasm",
    "circuit_to_qasm",
    "verify",
    "__version__",
]


def verify(circuit1, circuit2, configuration=None):
    """Check two circuits for equivalence with the combined DD strategy.

    Thin convenience wrapper over
    :class:`repro.ec.EquivalenceCheckingManager`; see :mod:`repro.ec` for
    the full API (strategy selection, timeouts, stimuli).
    """
    from repro.ec import EquivalenceCheckingManager

    manager = EquivalenceCheckingManager(circuit1, circuit2, configuration)
    return manager.run()
