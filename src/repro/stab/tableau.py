"""Clifford tableau: symplectic representation of Clifford unitaries.

A Clifford unitary is determined (up to an unobservable global phase) by
its conjugation action on the Pauli generators ``X_i`` and ``Z_i``.  The
tableau stores that action as ``2n`` rows of ``(x | z | r)`` bits following
Aaronson & Gottesman's CHP conventions: row ``i`` is the image of ``X_i``,
row ``n + i`` the image of ``Z_i``, and ``r`` the sign bit.

Gates update rows in ``O(n)``:

* ``CNOT a->b``: ``r ^= x_a z_b (x_b ^ z_a ^ 1)``, ``x_b ^= x_a``,
  ``z_a ^= z_b``
* ``H a``: ``r ^= x_a z_a``, swap ``x_a`` / ``z_a``
* ``S a``: ``r ^= x_a z_a``, ``z_a ^= x_a``

Everything else Clifford is a composition of those three.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation

_HALF_PI = math.pi / 2.0
_SNAP = 1e-9


class NonCliffordGateError(ValueError):
    """Raised when a gate outside the Clifford group is applied."""


def _half_pi_multiple(angle: float) -> int:
    """The integer k with angle ~ k*pi/2 (mod 2pi), or raise."""
    k = round(angle / _HALF_PI)
    if abs(angle - k * _HALF_PI) > _SNAP:
        raise NonCliffordGateError(
            f"rotation angle {angle} is not a multiple of pi/2"
        )
    return k % 4


#: Parameter-free single-qubit gates as (h/s composition) strings.
_SINGLE_QUBIT_SEQUENCES = {
    "id": "",
    "h": "h",
    "s": "s",
    "sdg": "sss",
    "z": "ss",
    "x": "hssh",
    "y": "hsshss",  # conjugation by Y == conjugation by Z X
    "sx": "hsh",
    "sxdg": "hsssh",
}


class CliffordTableau:
    """The conjugation action of a Clifford circuit on Pauli generators."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        n = num_qubits
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        for i in range(n):
            self.x[i, i] = True  # row i:      X_i
            self.z[n + i, i] = True  # row n+i: Z_i

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "CliffordTableau":
        """Build the tableau of a whole circuit.

        Raises:
            NonCliffordGateError: on any non-Clifford operation.
        """
        tableau = cls(circuit.num_qubits)
        for op in circuit:
            tableau.apply_operation(op)
        return tableau

    def copy(self) -> "CliffordTableau":
        out = CliffordTableau(self.num_qubits)
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        return out

    # ------------------------------------------------------------------
    # primitive gates
    # ------------------------------------------------------------------
    def apply_h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = (
            self.z[:, a].copy(),
            self.x[:, a].copy(),
        )

    def apply_s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def apply_cx(self, a: int, b: int) -> None:
        self.r ^= (
            self.x[:, a]
            & self.z[:, b]
            & (self.x[:, b] ^ self.z[:, a] ^ True)
        )
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    # ------------------------------------------------------------------
    # general operations
    # ------------------------------------------------------------------
    def _apply_sequence(self, sequence: str, qubit: int) -> None:
        for gate in sequence:
            if gate == "h":
                self.apply_h(qubit)
            else:
                self.apply_s(qubit)

    def apply_operation(self, op: Operation) -> None:
        """Apply one circuit operation; raises on non-Clifford gates."""
        name = op.name
        if not op.controls:
            if len(op.targets) == 1:
                (target,) = op.targets
                if name in _SINGLE_QUBIT_SEQUENCES:
                    self._apply_sequence(
                        _SINGLE_QUBIT_SEQUENCES[name], target
                    )
                    return
                if name in ("t", "tdg"):
                    raise NonCliffordGateError(f"{name} is not Clifford")
                if name in ("rz", "p"):
                    self._apply_sequence(
                        "s" * _half_pi_multiple(op.params[0]), target
                    )
                    return
                if name == "rx":
                    k = _half_pi_multiple(op.params[0])
                    self._apply_sequence("h" + "s" * k + "h", target)
                    return
                if name == "ry":
                    # RY(k pi/2) = S . RX(k pi/2) . Sdg (up to phase)
                    k = _half_pi_multiple(op.params[0])
                    self._apply_sequence(
                        "sss" + "h" + "s" * k + "h" + "s", target
                    )
                    return
                if name in ("u2", "u3"):
                    raise NonCliffordGateError(
                        f"{name} gates are not resolved to Clifford form"
                    )
            elif name == "swap":
                a, b = op.targets
                self.apply_cx(a, b)
                self.apply_cx(b, a)
                self.apply_cx(a, b)
                return
            elif name == "iswap":
                a, b = op.targets
                # iSWAP = (S (x) S) . CZ . SWAP
                self.apply_operation(Operation("swap", (a, b)))
                self.apply_operation(Operation("z", (b,), (a,)))
                self.apply_s(a)
                self.apply_s(b)
                return
            elif name == "rzz":
                k = _half_pi_multiple(op.params[0])
                a, b = op.targets
                self.apply_cx(a, b)
                self._apply_sequence("s" * k, b)
                self.apply_cx(a, b)
                return
        elif len(op.controls) == 1:
            control = op.controls[0]
            (target,) = op.targets
            if name == "x":
                self.apply_cx(control, target)
                return
            if name == "z":
                self.apply_h(target)
                self.apply_cx(control, target)
                self.apply_h(target)
                return
            if name == "y":
                self._apply_sequence("sss", target)
                self.apply_cx(control, target)
                self.apply_s(target)
                return
        raise NonCliffordGateError(f"operation {op} is not Clifford")

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.r, other.r)
        )

    def __hash__(self) -> int:  # tableaus are mutable; identity hash
        return id(self)

    def is_identity(self) -> bool:
        """True if the tableau is the identity map (phases included)."""
        return self == CliffordTableau(self.num_qubits)

    # ------------------------------------------------------------------
    # stabilizer states
    # ------------------------------------------------------------------
    def canonical_stabilizer_generators(self) -> Tuple[str, ...]:
        """Gaussian-eliminated stabilizer generators (state fingerprint).

        Two Clifford circuits produce the same state from ``|0...0>`` iff
        these canonical generator sets coincide (global phase excluded by
        construction — stabilizers carry only signs).
        """
        n = self.num_qubits
        x = self.x[n:].copy()
        z = self.z[n:].copy()
        r = self.r[n:].copy()

        def rowsum(target: int, source: int) -> None:
            """target *= source with exact sign tracking (CHP g-function)."""
            phase = 2 * int(r[target]) + 2 * int(r[source])
            for q in range(n):
                phase += _g(
                    int(x[source, q]), int(z[source, q]),
                    int(x[target, q]), int(z[target, q]),
                )
            phase %= 4
            r[target] = bool(phase // 2)
            x[target] ^= x[source]
            z[target] ^= z[source]

        def swap_rows(a: int, b: int) -> None:
            x[[a, b]] = x[[b, a]]
            z[[a, b]] = z[[b, a]]
            r[[a, b]] = r[[b, a]]

        # Standard canonicalization: eliminate the X block column by
        # column, then the Z block on the remaining rows.
        pivot_row = 0
        for block in (x, z):
            for column in range(n):
                pivot = next(
                    (
                        row
                        for row in range(pivot_row, n)
                        if block[row, column]
                    ),
                    None,
                )
                if pivot is None:
                    continue
                if pivot != pivot_row:
                    swap_rows(pivot, pivot_row)
                for row in range(n):
                    if row != pivot_row and block[row, column]:
                        rowsum(row, pivot_row)
                pivot_row += 1
        generators = []
        for i in range(n):
            sign = "-" if r[i] else "+"
            letters = []
            for q in range(n):
                xq, zq = x[i, q], z[i, q]
                letters.append(
                    "Y" if xq and zq else "X" if xq else "Z" if zq else "I"
                )
            generators.append(sign + "".join(letters))
        return tuple(sorted(generators))

    def same_state(self, other: "CliffordTableau") -> bool:
        """Do both circuits map ``|0...0>`` to the same state?"""
        return (
            self.canonical_stabilizer_generators()
            == other.canonical_stabilizer_generators()
        )


def _g(x1: int, z1: int, x2: int, z2: int) -> int:
    """CHP's g-function: the exponent of i when multiplying Paulis."""
    if not x1 and not z1:
        return 0
    if x1 and z1:  # Y
        return z2 - x2
    if x1:  # X
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)  # Z
