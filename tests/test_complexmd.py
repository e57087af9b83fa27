"""Tests for complex multiple doubles."""

from __future__ import annotations

import math

import pytest

from repro.md import ComplexMD, MultiDouble


class TestComplexMDScalar:
    def test_construction_from_floats(self):
        z = ComplexMD(1.5, -2.0, precision=4)
        assert z.real.to_float() == 1.5
        assert z.imag.to_float() == -2.0
        assert z.precision.limbs == 4

    def test_from_complex_and_back(self):
        z = ComplexMD.from_complex(3 - 4j, 3)
        assert z.to_complex() == 3 - 4j

    def test_zero_one(self):
        assert ComplexMD.zero(2).is_zero()
        assert ComplexMD.one(2).to_complex() == 1 + 0j

    def test_unit_circle(self):
        z = ComplexMD.unit_circle(math.pi / 3, 4)
        assert abs(z.to_complex() - complex(math.cos(math.pi / 3), math.sin(math.pi / 3))) < 1e-15
        assert abs(z.norm_squared().to_float() - 1.0) < 1e-15

    def test_arithmetic_matches_python_complex(self, rng):
        for _ in range(25):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            A = ComplexMD.from_complex(a, 4)
            B = ComplexMD.from_complex(b, 4)
            assert abs((A + B).to_complex() - (a + b)) < 1e-14
            assert abs((A - B).to_complex() - (a - b)) < 1e-14
            assert abs((A * B).to_complex() - (a * b)) < 1e-14
            if abs(b) > 1e-3:
                assert abs((A / B).to_complex() - (a / b)) < 1e-12

    def test_conjugate_and_abs(self):
        z = ComplexMD(3.0, 4.0, precision=4)
        assert z.conjugate().to_complex() == 3 - 4j
        assert abs(z.abs().to_float() - 5.0) < 1e-14

    def test_mixed_operands(self):
        z = ComplexMD(1.0, 1.0, precision=2)
        assert (z + 1).to_complex() == 2 + 1j
        assert (2 * z).to_complex() == 2 + 2j
        assert (z * MultiDouble.from_float(3.0, 2)).to_complex() == 3 + 3j
        assert (z + (0 + 1j)).to_complex() == 1 + 2j

    def test_equality_and_hash(self):
        a = ComplexMD(1.0, 2.0, precision=2)
        b = ComplexMD(1.0, 2.0, precision=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ComplexMD(1.0, 2.5, precision=2)

    def test_precision_change(self):
        z = ComplexMD(1.0, 1.0, precision=2).to_precision(8)
        assert z.precision.limbs == 8

    def test_invalid_operand(self):
        with pytest.raises(TypeError):
            ComplexMD.one(2) + [1, 2]  # type: ignore[operand]

    def test_exact_inputs_construct_exactly(self):
        from fractions import Fraction

        z = ComplexMD(3, Fraction(1, 4), precision=2)
        assert z.real.to_fraction() == 3
        assert z.imag.to_fraction() == Fraction(1, 4)
        # Exact values that fit the precision pass through ints in arithmetic
        # coercions too.
        assert (z * 2).to_complex() == 6 + 0.5j

    def test_lossy_exact_inputs_rejected(self):
        from fractions import Fraction

        # Three bit-chunks spread over 120 bits exceed what two independent
        # double limbs can carry; silently rounding an exact int would drop
        # the "+ 1".
        lossy = 2**120 + 2**60 + 1
        with pytest.raises(ValueError):
            ComplexMD(lossy, 0.0, precision=2)
        with pytest.raises(ValueError):
            ComplexMD(0.0, Fraction(1, 3), precision=2)
        # The same values are fine once rounded explicitly ...
        assert ComplexMD(float(lossy), 0.0, precision=2).imag.is_zero()
        # ... or when the precision actually carries them.
        wide = ComplexMD(lossy, 0.0, precision=4)
        assert wide.real.to_fraction() == lossy

    def test_unsupported_component_type_rejected(self):
        with pytest.raises(TypeError):
            ComplexMD([1.0], 0.0, precision=2)

    def test_high_precision_multiplication_accuracy(self, rng):
        a = ComplexMD(MultiDouble.random(10, rng), MultiDouble.random(10, rng))
        b = ComplexMD(MultiDouble.random(10, rng), MultiDouble.random(10, rng))
        product = a * b
        # |z1*z2| == |z1| * |z2| to working precision.
        lhs = product.norm_squared().to_fraction()
        rhs = (a.norm_squared() * b.norm_squared()).to_fraction()
        scale = max(abs(rhs), 1)
        assert abs(lhs - rhs) / scale < 2 ** (-52 * 10 + 16)
