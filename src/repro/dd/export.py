"""Exporting decision diagrams to dense arrays.

Dense export is exponential and exists for testing and for the small
illustrative figures (paper Fig. 1b / Fig. 3); the "size of the decision
diagram" metric of the Section 6.2 experiments is
:meth:`~repro.dd.array_package.ArrayDDPackage.matrix_dd_size`.

Packed integer edges carry no back-pointer to their node store, so every
exporter takes the owning :class:`~repro.dd.array_package.ArrayDDPackage`
as ``pkg``.
"""

from __future__ import annotations

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
    level, n0, w0, n1, w1 = pkg.vec.nodes[handle]
    _fill_vector(pkg, (n0 << EDGE_SHIFT) | w0, offset, factor, out)
    _fill_vector(
        pkg, (n1 << EDGE_SHIFT) | w1, offset + (1 << level), factor, out
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
    level, n0, w0, n1, w1, n2, w2, n3, w3 = pkg.mat.nodes[handle]
    half = 1 << level
    _fill_matrix(pkg, (n0 << EDGE_SHIFT) | w0, row, col, factor, out)
    _fill_matrix(pkg, (n1 << EDGE_SHIFT) | w1, row, col + half, factor, out)
    _fill_matrix(pkg, (n2 << EDGE_SHIFT) | w2, row + half, col, factor, out)
    _fill_matrix(
        pkg, (n3 << EDGE_SHIFT) | w3, row + half, col + half, factor, out
    )
