"""Equivalence checking of quantum circuits — the paper's core subject.

Strategies (Sections 4-5 of the paper):

* ``construction`` — build both circuits' full system-matrix DDs and
  compare canonical root pointers (the naive baseline of Section 4.1),
* ``alternating`` — build the DD of ``G' G†`` from the middle outwards,
  choosing sides with an *oracle* so the intermediate diagram stays close
  to the identity, with qubit-permutation tracking and SWAP reconstruction,
* ``simulation`` — random-stimuli DD simulation runs whose overlaps
  prove non-equivalence after a few shots (a fidelity drop or a phase
  that differs between stimuli),
* ``state`` — the same column checker on the one column ``|0...0>``:
  state-preparation equivalence,
* ``zx`` — compose one circuit with the other's adjoint as a ZX-diagram
  and ``full_reduce`` towards a bare-wire permutation,
* ``combined`` — QCEC's default: simulations for fast falsification plus
  the alternating scheme for proof (the configuration the case study runs),
  which hands a narrow register to all ``2^w`` basis columns when those
  are measured to cost less.

The manager brings the two circuits onto logical wires once per check
(:func:`logical_pair`: SWAP reconstruction, layouts and output
permutations folded in) and hands the resulting :class:`LogicalPair` to
the static pre-pass and to every checker; each checker takes that pair.

Entry point::

    from repro.ec import EquivalenceCheckingManager, Configuration

    result = EquivalenceCheckingManager(circuit1, circuit2).run()
    result.considered_equivalent  # bool
"""

from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.ec.permutations import (
    LogicalPair,
    logical_pair,
    reconstruct_swaps,
    to_logical_form,
)
from repro.ec.dd_checker import (
    AlternatingChecker,
    ConstructionChecker,
    alternating_dd_check,
    construction_dd_check,
)
from repro.ec.sim_checker import simulation_check, state_check
from repro.ec.stab_checker import stabilizer_check
from repro.ec.zx_checker import zx_check
from repro.ec.manager import EquivalenceCheckingManager

__all__ = [
    "AlternatingChecker",
    "Configuration",
    "ConstructionChecker",
    "Equivalence",
    "EquivalenceCheckingManager",
    "EquivalenceCheckingResult",
    "LogicalPair",
    "alternating_dd_check",
    "construction_dd_check",
    "logical_pair",
    "reconstruct_swaps",
    "simulation_check",
    "stabilizer_check",
    "state_check",
    "to_logical_form",
    "zx_check",
]
