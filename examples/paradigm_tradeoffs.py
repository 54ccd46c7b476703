"""Exploring the two paradigms' complementary strengths (paper Section 6.2).

Demonstrates the discussion points of the case study on small instances:

1. *Structure*: reversible/Clifford+T circuits keep decision diagrams tiny,
   while the same DD representation of an arbitrary-angle circuit grows —
   and under injected numerical noise the node merging breaks down (the
   "blow-up" of Section 6.2).
2. *Robustness*: the ZX spider count never increases during reduction, for
   either circuit class.
3. *Falsification*: random-stimuli simulation finds injected errors within
   a few runs; the ZX reduction merely gets stuck ("a strong indication,
   but not a proof").

Run:  python examples/paradigm_tradeoffs.py
"""

import math
import random

from repro.bench import algorithms, reversible
from repro.bench.errors import remove_random_gate
from repro.circuit import QuantumCircuit
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd
from repro.ec import Configuration, logical_pair, simulation_check, zx_check
from repro.zx import circuit_to_zx, full_reduce


def perturbed(circuit: QuantumCircuit, magnitude: float, seed: int = 0):
    """Copy of the circuit with tiny random errors on every angle."""
    rng = random.Random(seed)
    noisy = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_noisy")
    for op in circuit:
        params = tuple(
            p + rng.uniform(-magnitude, magnitude) for p in op.params
        )
        noisy.add(op.name, op.targets, op.controls, params)
    return noisy


def dd_size_of(circuit) -> int:
    pkg = ArrayDDPackage()
    return pkg.matrix_dd_size(circuit_dd(pkg, circuit))


def main() -> None:
    print("1) structure: DD size of the full system matrix")
    adder = reversible.plus_constant_adder_circuit(6, 13)
    qft = algorithms.qft(6)
    print(f"   {adder.name:24} ({adder.num_gates:4} gates): "
          f"{dd_size_of(adder):5} DD nodes")
    print(f"   {qft.name:24} ({qft.num_gates:4} gates): "
          f"{dd_size_of(qft):5} DD nodes")

    print("\n2) numerical noise: DD node merging degrades, ZX does not")
    from repro.compile.decompose import decompose_to_basis

    base = decompose_to_basis(algorithms.qft(6))
    for magnitude in (0.0, 1e-13, 1e-9, 1e-6):
        noisy = perturbed(base, magnitude)
        size = dd_size_of(noisy)
        diagram = circuit_to_zx(noisy)
        spiders_before = diagram.num_spiders
        full_reduce(diagram)
        print(f"   angle noise {magnitude:8.0e}: DD {size:6} nodes | "
              f"ZX {spiders_before:4} -> {diagram.num_spiders:4} spiders")

    print("\n3) falsification: simulations vs. stuck ZX reduction")
    grover = algorithms.grover(4)
    lowered = decompose_to_basis(grover)
    broken = remove_random_gate(lowered, seed=4)
    pair = logical_pair(grover, broken)
    sim = simulation_check(pair, Configuration(seed=0))
    zx = zx_check(pair, Configuration())
    print(f"   simulation: {sim.equivalence.value} after "
          f"{sim.statistics['simulations_run']} run(s)")
    print(f"   zx        : {zx.equivalence.value} with "
          f"{zx.statistics['spiders_remaining']} spiders left")


if __name__ == "__main__":
    main()
