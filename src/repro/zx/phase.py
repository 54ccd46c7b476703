"""Spider phases, stored in units of pi.

Phases are kept *exact* whenever possible: a phase is either a
:class:`fractions.Fraction` (``Fraction(1, 2)`` means pi/2) or, for truly
arbitrary angles, a float (also in units of pi).  Floats that are within
``SNAP_TOLERANCE`` of a small-denominator fraction are snapped to the exact
fraction on insertion.

This mirrors the behaviour the paper attributes to the ZX paradigm in
Section 6.2: phases merely *add* during rewriting, so numerical error does
not compound structurally — and dyadic phases (Clifford+T circuits, QFT
angles) stay exact throughout.

Parameterized circuits add a third phase kind: :class:`SymbolicPhase`, a
linear form over named parameters (each interpreted as *its radian value
divided by pi*) with exact rational coefficients plus a concrete
:data:`Phase` offset.  Symbolic phases ride through fusion and the other
phase-uniform rewrites (which only ever *add* phases), while the
Clifford-specific rules (pivot, local complementation) skip them because
their ``type(phase) is Fraction`` gates exclude symbolic spiders — which
is exactly what keeps symbolic simplification sound for *every*
valuation of the parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from repro.circuit.symbolic import ParamExpr

Phase = Union[Fraction, float]

#: Maximum denominator considered when snapping float phases to fractions.
SNAP_MAX_DENOMINATOR = 1 << 12
#: Absolute snapping tolerance, in units of pi.
SNAP_TOLERANCE = 1e-9

_PI = 3.141592653589793


@dataclass(frozen=True)
class SymbolicPhase:
    """A symbolic spider phase: linear form over parameters plus offset.

    ``terms`` maps parameter names to exact rational coefficients; each
    parameter stands for *its radian value divided by pi*, so the phase
    (in units of pi) under a valuation ``v`` is
    ``const + sum_i c_i * v[name_i] / pi``.  ``terms`` is canonical
    (sorted, nonzero) and ``const`` is a normalized :data:`Phase`; build
    instances through :func:`symbolic_phase` or the phase arithmetic
    helpers, which auto-collapse to a plain :data:`Phase` when the last
    symbolic term cancels.
    """

    terms: Tuple[Tuple[str, Fraction], ...]
    const: Phase

    def evaluate(self, valuation: Mapping[str, float]) -> Phase:
        """The concrete phase (units of pi) under ``valuation``."""
        total = float(self.const)
        for name, coeff in self.terms:
            if name not in valuation:
                raise ValueError(f"valuation is missing parameter {name!r}")
            total += float(coeff) * float(valuation[name]) / _PI
        return normalize_phase(total)

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            if coeff == 1:
                rendered = f"{name}/π"
            elif coeff == -1:
                rendered = f"-{name}/π"
            else:
                rendered = f"({coeff})*{name}/π"
            if parts and not rendered.startswith("-"):
                parts.append(f"+{rendered}")
            else:
                parts.append(rendered)
        if self.const != 0:
            rendered = str(self.const)
            if not rendered.startswith("-"):
                rendered = f"+{rendered}"
            parts.append(rendered)
        return "".join(parts)


def symbolic_phase(
    terms: Mapping[str, Fraction], const: Phase
) -> Union[SymbolicPhase, Phase]:
    """Canonical symbolic phase; collapses to :data:`Phase` when concrete."""
    kept = tuple(
        (name, coeff) for name, coeff in sorted(terms.items()) if coeff != 0
    )
    normalized = normalize_phase(const)
    if not kept:
        return normalized
    return SymbolicPhase(kept, normalized)


def normalize_phase(phase):
    """Reduce a phase to the half-open interval ``[0, 2)`` (units of pi).

    Float phases close to a dyadic fraction are converted to the exact
    :class:`Fraction`; everything else stays a float.  For symbolic
    phases only the constant offset is normalized — the coefficients of
    the free parameters must stay untouched (the parameters range over
    all reals, so there is nothing to reduce them modulo).

    A :class:`Fraction` already in ``[0, 2)`` — every stored phase — is
    returned as it is; the range test reads the integer numerator and
    denominator instead of reducing with ``%``.
    """
    if (
        type(phase) is Fraction
        and 0 <= phase.numerator < 2 * phase.denominator
    ):
        return phase
    if isinstance(phase, SymbolicPhase):
        return SymbolicPhase(phase.terms, normalize_phase(phase.const))
    if isinstance(phase, Fraction):
        return phase % 2
    if isinstance(phase, int):
        return Fraction(phase) % 2
    value = float(phase) % 2.0
    snapped = Fraction(value).limit_denominator(SNAP_MAX_DENOMINATOR)
    if abs(float(snapped) - value) <= SNAP_TOLERANCE:
        return snapped % 2
    return value


def add_phases(a, b):
    """Sum of two phases, normalized."""
    if isinstance(a, SymbolicPhase) or isinstance(b, SymbolicPhase):
        terms: Dict[str, Fraction] = {}
        const = 0
        for operand in (a, b):
            if isinstance(operand, SymbolicPhase):
                for name, coeff in operand.terms:
                    terms[name] = terms.get(name, Fraction(0)) + coeff
                const = const + operand.const
            else:
                const = const + operand
        return symbolic_phase(terms, const)
    return normalize_phase(a + b)


def negate_phase(a):
    """Additive inverse of a phase, normalized."""
    if isinstance(a, SymbolicPhase):
        return symbolic_phase(
            {name: -coeff for name, coeff in a.terms}, -a.const
        )
    return normalize_phase(-a)


def phase_to_radians(phase: Phase) -> float:
    """Convert a phase in units of pi to radians."""
    if isinstance(phase, SymbolicPhase):
        raise TypeError(
            "cannot convert a symbolic phase to radians; instantiate the "
            "parameters first"
        )
    return float(phase) * _PI


def radians_to_phase(angle):
    """Convert an angle in radians to a normalized phase in units of pi.

    Symbolic angles (:class:`~repro.circuit.symbolic.ParamExpr`) map to
    :class:`SymbolicPhase` with identical coefficients: a term ``c * v``
    in radians is ``c * (v/pi)`` in units of pi.
    """
    if isinstance(angle, ParamExpr):
        return symbolic_phase(dict(angle.terms), angle.const / _PI)
    return _float_radians_to_phase(float(angle))


@functools.lru_cache(maxsize=1024)
def _float_radians_to_phase(angle: float) -> Phase:
    """:func:`radians_to_phase` of a float angle, memoized.

    A circuit repeats few distinct angles many times, and snapping each
    occurrence through ``Fraction.limit_denominator`` dominated circuit
    conversion.  The mapping is pure and its results are immutable.
    """
    return normalize_phase(angle / _PI)


def is_pauli_phase(phase: Phase) -> bool:
    """True for phases 0 or pi (the *Pauli* spiders pivoting acts on)."""
    p = normalize_phase(phase)
    return p == 0 or p == 1


def is_proper_clifford_phase(phase: Phase) -> bool:
    """True for phases ±pi/2 (the spiders local complementation acts on)."""
    p = normalize_phase(phase)
    return p == Fraction(1, 2) or p == Fraction(3, 2)


def is_clifford_phase(phase: Phase) -> bool:
    """True for any multiple of pi/2."""
    p = normalize_phase(phase)
    return isinstance(p, Fraction) and (2 * p).denominator == 1
