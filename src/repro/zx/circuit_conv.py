"""Converting circuits to ZX-diagrams.

Every gate of the circuit IR becomes a small gadget of spiders appended to
the growing diagram (paper Fig. 6 shows the result for the GHZ circuits):

* Z-axis rotations (``z``/``s``/``t``/``rz``/``p``) — one Z spider,
* X-axis rotations (``x``/``sx``/``rx``) — one X spider,
* ``h`` — a pending Hadamard on the wire (realized as the edge type of the
  next connection, keeping the diagram small),
* ``cx`` — Z spider on the control joined to an X spider on the target,
* ``cz`` — two Z spiders joined by a Hadamard edge,
* everything else — decomposed first via
  :func:`repro.compile.decompose.decompose_for_zx` (mirroring the paper's
  observation that pyzx needs circuits compiled to a supported gate set).

Global scalars/phases are not tracked; all downstream equivalence checks
are up to global phase anyway (and the test suite compares tensors with
:func:`repro.zx.tensor.diagrams_proportional`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation
# Imported with the module, not on first use: the service's pool workers
# fork from a process that imported repro.zx, and would each pay the
# import of repro.compile (about 0.12 s, mostly networkx) again.
from repro.compile.decompose import (
    decompose_for_zx,
    decompose_to_cx_and_singles,
)
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.phase import radians_to_phase

_PI = math.pi

#: Constant spider phases (pi units), exact and already normalized to
#: ``[0, 2)``, so the diagram stores them without snapping: -pi/2 is 3/2.
_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_MINUS_HALF = Fraction(3, 2)
_ONE = Fraction(1)

#: Single-qubit gates translated to one Z spider with the given phase.
_Z_PHASES = {
    "z": _ONE,
    "s": _HALF,
    "sdg": _MINUS_HALF,
    "t": Fraction(1, 4),
    "tdg": Fraction(7, 4),
}
#: Single-qubit gates translated to one X spider with the given phase.
_X_PHASES = {
    "x": _ONE,
    "sx": _HALF,
    "sxdg": _MINUS_HALF,
}


class _Builder:
    """Tracks the open end of each wire while gates are appended."""

    def __init__(self, num_qubits: int) -> None:
        self.diagram = ZXDiagram()
        self.ends: List[int] = []
        self.pending_hadamard: List[bool] = [False] * num_qubits
        for _ in range(num_qubits):
            vertex = self.diagram.add_vertex(VertexType.BOUNDARY)
            self.diagram.inputs.append(vertex)
            self.ends.append(vertex)

    def _edge_type(self, qubit: int) -> EdgeType:
        if self.pending_hadamard[qubit]:
            self.pending_hadamard[qubit] = False
            return EdgeType.HADAMARD
        return EdgeType.SIMPLE

    def spider(self, qubit: int, vertex_type: VertexType, phase) -> int:
        """Append a spider on a wire and return its vertex id."""
        vertex = self.diagram.add_vertex(vertex_type, phase)
        self.diagram.connect(self.ends[qubit], vertex, self._edge_type(qubit))
        self.ends[qubit] = vertex
        return vertex

    def hadamard(self, qubit: int) -> None:
        self.pending_hadamard[qubit] = not self.pending_hadamard[qubit]

    def finish(self) -> ZXDiagram:
        for qubit, end in enumerate(self.ends):
            boundary = self.diagram.add_vertex(VertexType.BOUNDARY)
            self.diagram.connect(end, boundary, self._edge_type(qubit))
            self.diagram.outputs.append(boundary)
        return self.diagram


def _convert_operation(builder: _Builder, op: Operation) -> None:
    name = op.name
    if not op.controls:
        if len(op.targets) == 1:
            (q,) = op.targets
            if name == "id":
                return
            if name == "h":
                builder.hadamard(q)
                return
            if name in _Z_PHASES:
                builder.spider(q, VertexType.Z, _Z_PHASES[name])
                return
            if name in _X_PHASES:
                builder.spider(q, VertexType.X, _X_PHASES[name])
                return
            if name in ("rz", "p"):
                builder.spider(q, VertexType.Z, radians_to_phase(op.params[0]))
                return
            if name == "rx":
                builder.spider(q, VertexType.X, radians_to_phase(op.params[0]))
                return
            if name == "y":
                # Y = i X Z — spiders in circuit order Z then X.
                builder.spider(q, VertexType.Z, _ONE)
                builder.spider(q, VertexType.X, _ONE)
                return
            if name == "ry":
                # RY(t) = S X(t) S† up to phase: sdg, rx, s in circuit order.
                builder.spider(q, VertexType.Z, _MINUS_HALF)
                builder.spider(q, VertexType.X, radians_to_phase(op.params[0]))
                builder.spider(q, VertexType.Z, _HALF)
                return
            if name == "u2":
                phi, lam = op.params
                _convert_u3(builder, q, _PI / 2, phi, lam)
                return
            if name == "u3":
                _convert_u3(builder, q, *op.params)
                return
        elif name == "swap":
            a, b = op.targets
            builder.ends[a], builder.ends[b] = builder.ends[b], builder.ends[a]
            builder.pending_hadamard[a], builder.pending_hadamard[b] = (
                builder.pending_hadamard[b],
                builder.pending_hadamard[a],
            )
            return
        elif name == "rzz":
            a, b = op.targets
            (theta,) = op.params
            # Phase gadget: an X spider linking both wires to a phase-leaf.
            hub_a = builder.spider(a, VertexType.Z, _ZERO)
            hub_b = builder.spider(b, VertexType.Z, _ZERO)
            axis = builder.diagram.add_vertex(VertexType.X)
            leaf = builder.diagram.add_vertex(
                VertexType.Z, radians_to_phase(theta)
            )
            builder.diagram.connect(hub_a, axis)
            builder.diagram.connect(hub_b, axis)
            builder.diagram.connect(axis, leaf)
            return
    elif len(op.controls) == 1:
        control = op.controls[0]
        if name == "x":
            (target,) = op.targets
            z_spider = builder.spider(control, VertexType.Z, _ZERO)
            x_spider = builder.spider(target, VertexType.X, _ZERO)
            builder.diagram.connect(z_spider, x_spider, EdgeType.SIMPLE)
            return
        if name == "z":
            (target,) = op.targets
            z1 = builder.spider(control, VertexType.Z, _ZERO)
            z2 = builder.spider(target, VertexType.Z, _ZERO)
            builder.diagram.connect(z1, z2, EdgeType.HADAMARD)
            return
    raise ValueError(f"operation {op} is not ZX-native; decompose first")


def _convert_u3(builder: _Builder, q: int, theta, phi, lam) -> None:
    """u3 as the Euler sequence RZ(lam) . RY(theta) . RZ(phi) (circuit order
    rz(lam), ry(theta), rz(phi)), with RY expanded around an X spider."""
    builder.spider(q, VertexType.Z, radians_to_phase(lam))
    builder.spider(q, VertexType.Z, _MINUS_HALF)
    builder.spider(q, VertexType.X, radians_to_phase(theta))
    builder.spider(q, VertexType.Z, _HALF)
    builder.spider(q, VertexType.Z, radians_to_phase(phi))


def circuit_to_zx(circuit: QuantumCircuit, decompose: bool = True) -> ZXDiagram:
    """Convert a circuit to a ZX-diagram.

    With ``decompose=True`` (default), gates outside the native set are
    first lowered via :func:`repro.compile.decompose.decompose_for_zx`.
    """
    if decompose:
        circuit = decompose_for_zx(circuit)
    builder = _Builder(circuit.num_qubits)
    for op in circuit:
        try:
            _convert_operation(builder, op)
        except ValueError:
            if not decompose:
                raise
            single = QuantumCircuit(circuit.num_qubits, operations=[op])
            for lowered in decompose_to_cx_and_singles(single):
                _convert_operation(builder, lowered)
    return builder.finish()
