"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import errno
import math
import multiprocessing
import os
import random

import numpy as np
import pytest

from repro.circuit import QuantumCircuit


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    gate_set: str = "mixed",
) -> QuantumCircuit:
    """Deterministic random circuit factory.

    ``gate_set`` picks the flavour:
      * ``"clifford_t"`` — H/S/T/X/Z/CX/CZ (exact dyadic phases),
      * ``"rotations"`` — H/RX/RZ/CX with arbitrary float angles,
      * ``"mixed"`` — everything incl. Toffolis, SWAPs, controlled phases.
    """
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random_{gate_set}_{seed}")
    if gate_set == "clifford_t":
        choices = ["h", "s", "t", "x", "z", "sdg", "tdg", "cx", "cz"]
    elif gate_set == "rotations":
        choices = ["h", "rx", "rz", "cx"]
    else:
        choices = [
            "h", "s", "t", "x", "y", "z", "rx", "ry", "rz", "p",
            "cx", "cz", "swap", "ccx", "cp", "u3",
        ]
    for _ in range(num_gates):
        name = rng.choice(choices)
        if name in ("cx", "cz", "swap") and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            getattr(circuit, name)(a, b)
        elif name == "ccx" and num_qubits >= 3:
            a, b, c = rng.sample(range(num_qubits), 3)
            circuit.ccx(a, b, c)
        elif name == "cp" and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.cp(rng.uniform(0, 2 * math.pi), a, b)
        elif name in ("rx", "ry", "rz", "p"):
            q = rng.randrange(num_qubits)
            getattr(circuit, name)(rng.uniform(0, 2 * math.pi), q)
        elif name == "u3":
            q = rng.randrange(num_qubits)
            circuit.u3(
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
                q,
            )
        elif name in ("h", "s", "t", "x", "y", "z", "sdg", "tdg"):
            circuit.add(name, [rng.randrange(num_qubits)])
    return circuit


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def failing_fork(monkeypatch):
    """``failing_fork(n)`` makes the n-th next fork fail once with EAGAIN.

    Patches ``Process.start`` of the fork context, which every
    supervisor forks from; all other starts fork as usual.
    """
    process_class = multiprocessing.get_context("fork").Process
    real_start = process_class.start
    countdown = []

    def start(process):
        if countdown:
            countdown[0] -= 1
            if countdown[0] == 0:
                countdown.clear()
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_start(process)

    monkeypatch.setattr(process_class, "start", start)

    def arm(nth=1):
        countdown[:] = [nth]

    return arm


def assert_allclose(actual, expected, atol: float = 1e-9) -> None:
    np.testing.assert_allclose(actual, expected, atol=atol, rtol=0)
