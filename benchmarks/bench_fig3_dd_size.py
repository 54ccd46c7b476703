"""Figure 3: decision-diagram compactness (experiment F3 in DESIGN.md).

The paper's Fig. 3 contrasts the compact DD of the GHZ system matrix
(Fig. 3a) with the linear-size identity DD (Fig. 3b).  These benchmarks
measure construction time and assert the size relations: the GHZ DD stays
polynomially small while the dense matrix grows as ``4^n``, and the
identity DD is exactly ``n`` nodes.
"""

import pytest

from repro.bench import algorithms
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd

SIZES = [4, 8, 16, 32, 65]


@pytest.mark.parametrize("n", SIZES)
def test_identity_dd_linear(benchmark, n):
    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(pkg.identity(n))

    size = benchmark(build)
    assert size == n  # Fig. 3b: linear in the number of qubits


def _circuit_dd_size(circuit) -> int:
    pkg = ArrayDDPackage()
    return pkg.matrix_dd_size(circuit_dd(pkg, circuit))


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_ghz_unitary_dd_compact(benchmark, n):
    size = benchmark(lambda: _circuit_dd_size(algorithms.ghz_state(n)))
    # Fig. 3a: the GHZ system matrix DD grows linearly, not as 4^n.
    assert size <= 3 * n
    assert size == 2 * n - 1


@pytest.mark.parametrize("n,nodes", [(2, 5), (4, 85), (6, 1365)])
def test_qft_unitary_dd(benchmark, n, nodes):
    """QFT matrices have structure too, but less sharing than GHZ."""
    size = benchmark(lambda: _circuit_dd_size(algorithms.qft(n)))
    assert size >= n  # sanity: at least one node per level
    # (4^n - 1) / 3: no sharing at all below the root.
    assert size == nodes
