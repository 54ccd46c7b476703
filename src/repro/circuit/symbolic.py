"""Linear symbolic phase expressions for parameterized circuits.

A :class:`ParamExpr` is the one symbolic object the gate IR carries: a
linear combination ``sum_i c_i * v_i + const`` over named real-valued
variables ``v_i`` with exact :class:`~fractions.Fraction` coefficients
``c_i`` and a concrete ``const`` offset in radians.  Linearity is all
the variational workloads in scope need (VQE ansatz angles enter gates
as rational multiples of shared parameters), and it is what keeps the
downstream algebra *exact*: adding ``theta`` and ``-theta`` cancels to
a plain ``0.0`` float instead of accumulating rounding error, which is
what lets the phase-polynomial and ZX paths decide symbolic equivalence
soundly for *all* valuations.

Expressions are immutable and auto-collapse: any arithmetic that drops
the last variable term returns a plain ``float``, so fully-concrete
values never masquerade as symbolic ones and the rest of the code base
can keep testing ``isinstance(p, (int, float))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

__all__ = [
    "ParamExpr",
    "ParamValue",
    "circuit_parameters",
    "instantiate_circuit",
    "is_symbolic_param",
    "is_symbolic_circuit",
    "symbol",
]

#: What a gate parameter may be once symbolic circuits are in play.
ParamValue = Union[float, "ParamExpr"]

#: Variable names must be valid QASM identifiers so the ``repro:params``
#: pragma and gate arguments round-trip through the parser unchanged.
_RESERVED_NAMES = frozenset(
    {"pi", "sin", "cos", "tan", "exp", "ln", "sqrt", "acos", "asin", "atan"}
)


def _validate_name(name: str) -> str:
    if not name or not name[0].isalpha() and name[0] != "_":
        raise ValueError(f"invalid parameter name {name!r}")
    if not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"invalid parameter name {name!r}")
    if name in _RESERVED_NAMES:
        raise ValueError(f"parameter name {name!r} shadows a QASM builtin")
    return name


#: Concrete offsets a ParamExpr adds and subtracts: the symbolic QASM
#: reader's integer literals are exact Fractions.
_OFFSETS = (int, float, Fraction)


def _coerce_scalar(value: object) -> Fraction:
    """An exact rational view of a scalar multiplier."""
    if isinstance(value, bool):
        raise TypeError("cannot scale a ParamExpr by a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Exact: every float is a dyadic rational.
        return Fraction(value)
    raise TypeError(f"cannot scale a ParamExpr by {type(value).__name__}")


@dataclass(frozen=True)
class ParamExpr:
    """A linear expression ``sum_i c_i * v_i + const`` (radians).

    ``terms`` is canonical: sorted by variable name, every coefficient a
    nonzero :class:`Fraction`.  Use :func:`symbol` or the arithmetic
    operators rather than the constructor.
    """

    terms: Tuple[Tuple[str, Fraction], ...]
    const: float = 0.0

    # -- construction ---------------------------------------------------
    @staticmethod
    def _make(terms: Mapping[str, Fraction], const: float) -> ParamValue:
        kept = tuple(
            (name, coeff)
            for name, coeff in sorted(terms.items())
            if coeff != 0
        )
        if not kept:
            return float(const)
        return ParamExpr(kept, float(const))

    @property
    def variables(self) -> Tuple[str, ...]:
        """Sorted names of the variables this expression mentions."""
        return tuple(name for name, _coeff in self.terms)

    # -- arithmetic -----------------------------------------------------
    def __neg__(self) -> ParamValue:
        return ParamExpr._make(
            {name: -coeff for name, coeff in self.terms}, -self.const
        )

    def __add__(self, other: object) -> ParamValue:
        if isinstance(other, ParamExpr):
            merged: Dict[str, Fraction] = dict(self.terms)
            for name, coeff in other.terms:
                merged[name] = merged.get(name, Fraction(0)) + coeff
            return ParamExpr._make(merged, self.const + other.const)
        if isinstance(other, _OFFSETS) and not isinstance(other, bool):
            return ParamExpr._make(dict(self.terms), self.const + other)
        return NotImplemented

    def __radd__(self, other: object) -> ParamValue:
        return self.__add__(other)

    def __sub__(self, other: object) -> ParamValue:
        if isinstance(other, ParamExpr):
            return self.__add__(other.__neg__())
        if isinstance(other, _OFFSETS) and not isinstance(other, bool):
            return ParamExpr._make(dict(self.terms), self.const - other)
        return NotImplemented

    def __rsub__(self, other: object) -> ParamValue:
        negated = self.__neg__()
        if isinstance(negated, float):
            if isinstance(other, _OFFSETS) and not isinstance(other, bool):
                return other + negated
            return NotImplemented
        return negated.__add__(other)

    def __mul__(self, other: object) -> ParamValue:
        if isinstance(other, ParamExpr):
            raise TypeError(
                "nonlinear parameter expression: cannot multiply two "
                "symbolic expressions"
            )
        scale = _coerce_scalar(other)
        return ParamExpr._make(
            {name: coeff * scale for name, coeff in self.terms},
            self.const * float(scale),
        )

    def __rmul__(self, other: object) -> ParamValue:
        return self.__mul__(other)

    def __truediv__(self, other: object) -> ParamValue:
        if isinstance(other, ParamExpr):
            raise TypeError(
                "nonlinear parameter expression: cannot divide by a "
                "symbolic expression"
            )
        scale = _coerce_scalar(other)
        if scale == 0:
            raise ZeroDivisionError("division of a ParamExpr by zero")
        return self.__mul__(Fraction(1) / scale)

    # -- evaluation -----------------------------------------------------
    def evaluate(self, valuation: Mapping[str, float]) -> float:
        """The concrete value (radians) under ``valuation``."""
        total = self.const
        for name, coeff in self.terms:
            if name not in valuation:
                raise ValueError(
                    f"valuation is missing parameter {name!r}"
                )
            total += float(coeff) * float(valuation[name])
        return total

    # -- rendering ------------------------------------------------------
    @staticmethod
    def _format_term(name: str, coeff: Fraction) -> str:
        if coeff == 1:
            return name
        if coeff == -1:
            return f"-{name}"
        if coeff.denominator == 1:
            return f"{coeff.numerator}*{name}"
        return f"({coeff.numerator}/{coeff.denominator})*{name}"

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            rendered = self._format_term(name, coeff)
            if parts and not rendered.startswith("-"):
                parts.append(f"+{rendered}")
            else:
                parts.append(rendered)
        if self.const != 0.0:
            rendered = repr(self.const)
            if not rendered.startswith("-"):
                rendered = f"+{rendered}"
            parts.append(rendered)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParamExpr({self})"


def symbol(name: str) -> ParamExpr:
    """The expression consisting of the single variable ``name``."""
    return ParamExpr(((_validate_name(name), Fraction(1)),), 0.0)


def is_symbolic_param(param: object) -> bool:
    """True when ``param`` is a (non-degenerate) symbolic expression."""
    return isinstance(param, ParamExpr) and bool(param.terms)


def circuit_parameters(circuit) -> Tuple[str, ...]:
    """Sorted names of the free parameters appearing in ``circuit``."""
    names = set()
    for op in circuit:
        for param in op.params:
            if isinstance(param, ParamExpr):
                names.update(param.variables)
    return tuple(sorted(names))


def is_symbolic_circuit(circuit) -> bool:
    """True when any gate parameter of ``circuit`` is symbolic."""
    for op in circuit:
        for param in op.params:
            if isinstance(param, ParamExpr):
                return True
    return False


def instantiate_circuit(circuit, valuation: Mapping[str, float]):
    """A concrete copy of ``circuit`` with every parameter evaluated.

    The valuation must cover every free parameter; the result carries no
    :class:`ParamExpr` and is safe for every concrete checker.
    """
    from repro.circuit.circuit import QuantumCircuit
    from repro.circuit.gate import Operation

    out = QuantumCircuit(
        circuit.num_qubits,
        circuit.name,
        initial_layout=dict(circuit.initial_layout),
        output_permutation=dict(circuit.output_permutation),
    )
    for op in circuit:
        if any(isinstance(p, ParamExpr) for p in op.params):
            params = tuple(
                p.evaluate(valuation) if isinstance(p, ParamExpr) else p
                for p in op.params
            )
            out.append(Operation(op.name, op.targets, op.controls, params))
        else:
            out.append(op)
    return out
