"""Unit tests for ZX phase arithmetic (`repro.zx.phase`)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.zx import circuit_conv
from repro.zx.phase import (
    add_phases,
    is_clifford_phase,
    is_pauli_phase,
    is_proper_clifford_phase,
    negate_phase,
    normalize_phase,
    phase_to_radians,
    radians_to_phase,
)


class TestNormalization:
    def test_fraction_mod_two(self):
        assert normalize_phase(Fraction(5, 2)) == Fraction(1, 2)
        assert normalize_phase(Fraction(-1, 4)) == Fraction(7, 4)

    def test_int_becomes_fraction(self):
        assert normalize_phase(3) == Fraction(1)

    def test_float_snaps_to_dyadic(self):
        assert normalize_phase(0.25) == Fraction(1, 4)
        assert normalize_phase(0.5 + 1e-12) == Fraction(1, 2)

    def test_irrational_float_stays_float(self):
        value = 0.1234567891234
        normalized = normalize_phase(value)
        assert isinstance(normalized, float)
        assert normalized == pytest.approx(value)

    def test_radians_roundtrip(self):
        assert phase_to_radians(Fraction(1, 2)) == pytest.approx(math.pi / 2)
        assert radians_to_phase(math.pi / 4) == Fraction(1, 4)


class TestPredicates:
    def test_pauli(self):
        assert is_pauli_phase(Fraction(0))
        assert is_pauli_phase(Fraction(1))
        assert is_pauli_phase(Fraction(3))  # normalizes to 1
        assert not is_pauli_phase(Fraction(1, 2))

    def test_proper_clifford(self):
        assert is_proper_clifford_phase(Fraction(1, 2))
        assert is_proper_clifford_phase(Fraction(-1, 2))
        assert not is_proper_clifford_phase(Fraction(1))
        assert not is_proper_clifford_phase(Fraction(1, 4))

    def test_clifford(self):
        for k in range(4):
            assert is_clifford_phase(Fraction(k, 2))
        assert not is_clifford_phase(Fraction(1, 4))
        assert not is_clifford_phase(0.123)


class TestArithmeticProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=64),
        st.fractions(min_value=-4, max_value=4, max_denominator=64),
    )
    def test_addition_commutative(self, a, b):
        assert add_phases(a, b) == add_phases(b, a)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-4, max_value=4, max_denominator=64))
    def test_negation_is_inverse(self, a):
        assert add_phases(a, negate_phase(a)) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-20.0, 20.0))
    def test_float_normalization_in_range(self, value):
        normalized = normalize_phase(value)
        assert 0 <= float(normalized) < 2


class TestFastPaths:
    """The shortcuts return exactly what the general arithmetic returns."""

    @pytest.mark.parametrize("denominator", range(1, 9))
    @pytest.mark.parametrize("numerator", range(-9, 10))
    def test_normalize_fraction_is_mod_two(self, numerator, denominator):
        phase = Fraction(numerator, denominator)
        normalized = normalize_phase(phase)
        assert normalized == phase % 2
        assert type(normalized) is Fraction
        if 0 <= phase < 2:
            assert normalized is phase

    @pytest.mark.parametrize("constant,replaced", [
        (circuit_conv._Z_PHASES["z"], 1.0),
        (circuit_conv._Z_PHASES["s"], 0.5),
        (circuit_conv._Z_PHASES["sdg"], -0.5),
        (circuit_conv._Z_PHASES["t"], 0.25),
        (circuit_conv._Z_PHASES["tdg"], -0.25),
        (circuit_conv._X_PHASES["x"], 1.0),
        (circuit_conv._X_PHASES["sx"], 0.5),
        (circuit_conv._X_PHASES["sxdg"], -0.5),
        (circuit_conv._ONE, 1.0),
        (circuit_conv._HALF, 0.5),
        (circuit_conv._MINUS_HALF, -0.5),
        (circuit_conv._ZERO, 0),
    ])
    def test_conversion_constant_is_the_normalized_value(
        self, constant, replaced
    ):
        expected = normalize_phase(replaced)
        assert constant == expected
        assert type(constant) is type(expected)
        assert normalize_phase(constant) is constant

    @pytest.mark.parametrize("phase,kind", [
        (0.25, Fraction),          # dyadic
        (0.5 + 1e-12, Fraction),   # snapped to 1/2
        (0.1234567891234, float),  # non-dyadic: stays a float
    ])
    def test_memoized_angle_equals_direct(self, phase, kind):
        angle = phase * math.pi
        direct = normalize_phase(angle / math.pi)
        assert type(direct) is kind
        for _ in range(2):  # the first call may miss the memo, the second hits
            memoized = radians_to_phase(angle)
            assert memoized == direct
            assert type(memoized) is kind
