"""Exporting decision diagrams to dense arrays and Graphviz.

Dense export is exponential and exists for testing and for the small
illustrative figures (paper Fig. 1b / Fig. 3); the "size of the decision
diagram" metric of the Section 6.2 experiments is
:meth:`~repro.dd.array_package.ArrayDDPackage.matrix_dd_size`.

Packed integer edges carry no back-pointer to their node store, so every
exporter takes the owning :class:`~repro.dd.array_package.ArrayDDPackage`
as ``pkg``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.dd.array_package import ArrayDDPackage, EDGE_SHIFT, WEIGHT_MASK


def edge_to_vector(
    edge: int, num_qubits: int, pkg: ArrayDDPackage
) -> np.ndarray:
    """Expand a vector diagram into a dense ``2^n`` numpy array."""
    out = np.zeros(2**num_qubits, dtype=complex)
    _fill_vector(pkg, edge, 0, 1 + 0j, out)
    return out


def _fill_vector(
    pkg: ArrayDDPackage, edge: int, offset: int, factor: complex, out: np.ndarray
) -> None:
    wid = edge & WEIGHT_MASK
    if wid == 0:
        return
    factor = factor * pkg.weight_value(wid)
    handle = edge >> EDGE_SHIFT
    if handle == 0:
        out[offset] += factor
        return
    store = pkg.vec
    half = 1 << store.levels[handle]
    base = handle * 2
    _fill_vector(
        pkg,
        (store.children[base] << EDGE_SHIFT) | store.weights[base],
        offset, factor, out,
    )
    _fill_vector(
        pkg,
        (store.children[base + 1] << EDGE_SHIFT) | store.weights[base + 1],
        offset + half, factor, out,
    )


def edge_to_matrix(
    edge: int, num_qubits: int, pkg: ArrayDDPackage
) -> np.ndarray:
    """Expand a matrix diagram into a dense ``2^n x 2^n`` numpy array."""
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    _fill_matrix(pkg, edge, 0, 0, 1 + 0j, out)
    return out


def _fill_matrix(
    pkg: ArrayDDPackage,
    edge: int,
    row: int,
    col: int,
    factor: complex,
    out: np.ndarray,
) -> None:
    wid = edge & WEIGHT_MASK
    if wid == 0:
        return
    factor = factor * pkg.weight_value(wid)
    handle = edge >> EDGE_SHIFT
    if handle == 0:
        out[row, col] += factor
        return
    store = pkg.mat
    half = 1 << store.levels[handle]
    base = handle * 4
    for k, (dr, dc) in enumerate(((0, 0), (0, half), (half, 0), (half, half))):
        _fill_matrix(
            pkg,
            (store.children[base + k] << EDGE_SHIFT) | store.weights[base + k],
            row + dr, col + dc, factor, out,
        )


# ----------------------------------------------------------------------
# Graphviz rendering
# ----------------------------------------------------------------------
def matrix_dd_to_dot(edge: int, pkg: ArrayDDPackage, name: str = "dd") -> str:
    """Graphviz DOT rendering of a matrix decision diagram.

    Follows the visualization style of Wille et al., "Visualizing decision
    diagrams for quantum computing" (reference [37] of the paper): edge
    labels carry the complex weights, node labels the decided qubit level,
    and the four outgoing edges are ordered ``(00, 01, 10, 11)``.
    """
    store = pkg.mat

    def children_of(handle: int) -> Iterator[Tuple[int, int, complex]]:
        base = handle * 4
        for k in range(4):
            wid = store.weights[base + k]
            if wid != 0:
                yield k, store.children[base + k], pkg.weight_value(wid)

    lines = [f"digraph {name} {{", "  rankdir=TB;", '  root [shape=point];']
    ids: Dict[int, str] = {}

    def node_id(handle: int) -> str:
        if handle == 0:
            return "terminal"
        if handle not in ids:
            ids[handle] = f"n{len(ids)}"
        return ids[handle]

    def weight_label(weight: complex) -> str:
        return f"{weight.real:.4g}{weight.imag:+.4g}i"

    visited = set()

    def walk(handle: int) -> None:
        if handle == 0 or handle in visited:
            return
        visited.add(handle)
        lines.append(
            f'  {node_id(handle)} [label="q{store.levels[handle]}", '
            "shape=circle];"
        )
        for index, child, weight in children_of(handle):
            label = f"{index >> 1}{index & 1}"
            lines.append(
                f"  {node_id(handle)} -> {node_id(child)} "
                f'[label="{label}: {weight_label(weight)}"];'
            )
            walk(child)

    lines.append('  terminal [label="1", shape=box];')
    if edge & WEIGHT_MASK != 0:
        root = edge >> EDGE_SHIFT
        lines.append(
            f"  root -> {node_id(root)} "
            f'[label="{weight_label(pkg.weight_value(edge & WEIGHT_MASK))}"];'
        )
        walk(root)
    lines.append("}")
    return "\n".join(lines)
