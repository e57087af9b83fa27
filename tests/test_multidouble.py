"""Unit tests for the scalar MultiDouble type (oracle: exact Fractions)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries

PRECISIONS = (1, 2, 3, 4, 5, 8, 10)


def ulp(limbs: int) -> Fraction:
    return Fraction(2) ** (-52 * limbs + 4)


def relative_error(value: MultiDouble, exact: Fraction) -> Fraction:
    diff = abs(value.to_fraction() - exact)
    scale = abs(exact) if exact != 0 else Fraction(1)
    return diff / scale


class TestConstruction:
    def test_from_float_is_exact(self):
        x = MultiDouble.from_float(0.1, 4)
        assert x.to_fraction() == Fraction(0.1)
        assert x.precision.limbs == 4

    def test_from_fraction_rounds_correctly(self):
        third = MultiDouble.from_fraction(Fraction(1, 3), 4)
        assert relative_error(third, Fraction(1, 3)) < ulp(4)

    def test_from_string(self):
        x = MultiDouble.from_string("1.25", 2)
        assert x.to_fraction() == Fraction(5, 4)
        y = MultiDouble.from_string("1/7", 3)
        assert relative_error(y, Fraction(1, 7)) < ulp(3)

    def test_zero_and_one(self):
        assert MultiDouble.zero(5).is_zero()
        assert MultiDouble.one(5).to_fraction() == 1
        assert not MultiDouble.one(5).is_zero()

    def test_limbs_are_canonicalised(self):
        x = MultiDouble([1.0, 1.0, 1.0], 3)
        assert x.to_fraction() == 3
        assert abs(x.limbs[1]) <= abs(x.limbs[0]) or x.limbs[1] == 0.0

    def test_empty_limbs_rejected(self):
        with pytest.raises(ValueError):
            MultiDouble([])

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            MultiDouble.one(2) + "text"  # type: ignore[operand]

    @pytest.mark.parametrize("limbs", PRECISIONS)
    def test_random_fills_all_limbs(self, limbs, rng):
        x = MultiDouble.random(limbs, rng)
        assert x.precision.limbs == limbs
        assert -1.0 <= x.to_float() <= 1.0
        if limbs >= 2:
            # with overwhelming probability the tail is non-zero
            assert any(limb != 0.0 for limb in x.limbs[1:])


class TestArithmetic:
    @pytest.mark.parametrize("limbs", PRECISIONS)
    def test_addition_accuracy(self, limbs, rng):
        for _ in range(10):
            a = MultiDouble.random(limbs, rng)
            b = MultiDouble.random(limbs, rng)
            assert relative_error(a + b, a.to_fraction() + b.to_fraction()) < ulp(limbs)

    @pytest.mark.parametrize("limbs", PRECISIONS)
    def test_multiplication_accuracy(self, limbs, rng):
        for _ in range(10):
            a = MultiDouble.random(limbs, rng)
            b = MultiDouble.random(limbs, rng)
            assert relative_error(a * b, a.to_fraction() * b.to_fraction()) < ulp(limbs)

    @pytest.mark.parametrize("limbs", (2, 4, 10))
    def test_division_accuracy(self, limbs, rng):
        for _ in range(10):
            a = MultiDouble.random(limbs, rng)
            b = MultiDouble.random(limbs, rng)
            if b.is_zero():
                continue
            assert relative_error(a / b, a.to_fraction() / b.to_fraction()) < ulp(limbs)

    def test_subtraction_cancellation(self):
        a = MultiDouble.from_fraction(Fraction(1, 3), 4)
        b = MultiDouble.from_fraction(Fraction(1, 3) - Fraction(1, 10**40), 4)
        diff = a - b
        assert relative_error(diff, Fraction(1, 10**40)) < Fraction(1, 10**10)

    def test_mixed_operands(self):
        a = MultiDouble.from_float(2.0, 3)
        assert (a + 1).to_fraction() == 3
        assert (1 + a).to_fraction() == 3
        assert (a - 1).to_fraction() == 1
        assert (1 - a).to_fraction() == -1
        assert (a * 2).to_fraction() == 4
        assert (2 * a).to_fraction() == 4
        assert (a / 2).to_fraction() == 1
        assert (8 / a).to_fraction() == 4
        assert (a + Fraction(1, 2)).to_fraction() == Fraction(5, 2)

    def test_mixed_precision_promotes(self):
        a = MultiDouble.from_float(1.0, 2)
        b = MultiDouble.from_fraction(Fraction(1, 3), 8)
        assert (a + b).precision.limbs == 8

    def test_negation_and_abs(self):
        a = MultiDouble.from_float(-2.5, 3)
        assert (-a).to_fraction() == Fraction(5, 2)
        assert abs(a).to_fraction() == Fraction(5, 2)
        assert abs(-a).to_fraction() == Fraction(5, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            MultiDouble.one(3) / MultiDouble.zero(3)

    def test_integer_powers(self):
        a = MultiDouble.from_fraction(Fraction(3, 7), 4)
        assert relative_error(a**5, Fraction(3, 7) ** 5) < ulp(4)
        assert (a**0).to_fraction() == 1
        assert relative_error(a**-2, Fraction(7, 3) ** 2) < ulp(4) * 4

    def test_exactness_of_double_double_sums(self):
        # 1 + 2^-100 is representable exactly in double double.
        a = MultiDouble.one(2) + MultiDouble.from_float(2.0**-100, 2)
        assert a.to_fraction() == Fraction(1) + Fraction(2) ** -100


class TestSqrt:
    @pytest.mark.parametrize("limbs", (2, 4, 8, 10))
    def test_sqrt_squares_back(self, limbs):
        two = MultiDouble.from_float(2.0, limbs)
        root = two.sqrt()
        assert relative_error(root * root, Fraction(2)) < ulp(limbs) * 8

    def test_sqrt_of_zero_and_negative(self):
        assert MultiDouble.zero(4).sqrt().is_zero()
        with pytest.raises(ValueError):
            MultiDouble.from_float(-1.0, 4).sqrt()


class TestComparisons:
    def test_equality_across_precisions(self):
        assert MultiDouble.one(2) == MultiDouble.one(10)
        assert MultiDouble.one(2) == 1
        assert MultiDouble.one(2) != 2

    def test_ordering(self):
        small = MultiDouble.from_fraction(Fraction(1, 3), 4)
        large = small + MultiDouble.from_float(2.0**-150, 4)
        assert small < large
        assert large > small
        assert small <= small
        assert large >= small

    def test_tiny_differences_are_detected(self):
        a = MultiDouble.one(10)
        b = a + MultiDouble.from_float(2.0**-500, 10)
        assert a != b
        assert a < b

    def test_hash_consistent_with_equality(self):
        a = MultiDouble.from_float(1.5, 2)
        b = MultiDouble.from_float(1.5, 4)
        assert a == b
        assert hash(a) == hash(b)

    def test_nan_difference_is_unordered(self):
        """A NaN difference compares like an IEEE NaN, so a NaN pivot is not
        mistaken for a zero one; ``from_float(inf)`` has limbs (inf, nan)
        and used to compare equal to 0 as well."""
        nan = MultiDouble.from_float(float("nan"), 2)
        inf = MultiDouble.from_float(float("inf"), 2)
        one = MultiDouble.one(2)
        for x, other in [(nan, 0), (nan, one), (nan, nan), (one, nan), (inf, 0)]:
            assert not x == other
            assert x != other
            assert not (x < other or x <= other or x > other or x >= other)

    def test_bool_and_float(self):
        assert bool(MultiDouble.one(3))
        assert not bool(MultiDouble.zero(3))
        assert float(MultiDouble.from_float(2.25, 3)) == 2.25


class TestFormatting:
    def test_decimal_string_roundtrip(self):
        x = MultiDouble.from_fraction(Fraction(1, 3), 4)
        text = x.to_decimal_string(30)
        assert text.startswith("3.333333333333333333333333333")

    def test_zero_string(self):
        assert "0.0" in MultiDouble.zero(2).to_decimal_string(5)

    def test_repr_contains_limbs(self):
        x = MultiDouble.from_float(1.0, 2)
        assert "MultiDouble" in repr(x)

    def test_to_precision(self):
        x = MultiDouble.from_fraction(Fraction(1, 3), 10)
        y = x.to_precision(2)
        assert y.precision.limbs == 2
        assert relative_error(y, Fraction(1, 3)) < ulp(2)
        z = y.to_precision(10)
        assert z.precision.limbs == 10


class TestNonFinite:
    """Diverged lanes hold NaN and infinite limbs; such values still print
    (as Python prints floats) and hash (by their limbs)."""

    CASES = [
        ((math.nan, 0.0), "nan"),
        ((math.inf, 0.0), "inf"),
        ((-math.inf, 0.0), "-inf"),
        ((1.0, math.nan), "nan"),
    ]

    @pytest.mark.parametrize("limbs, text", CASES)
    def test_prints_like_a_float(self, limbs, text):
        value = MultiDouble(limbs, 2)
        assert str(value) == text
        assert f"{value}" == text
        assert value.to_decimal_string(20) == text

    @pytest.mark.parametrize("limbs, text", CASES)
    def test_hashes(self, limbs, text):
        value = MultiDouble(limbs, 2)
        assert hash(value) == hash(MultiDouble(limbs, 2))
        hash(ComplexMD.from_parts(value, MultiDouble.zero(2)))
        hash(ComplexMD(1.0, value))
        hash(PowerSeries([MultiDouble.one(2), value]))

    def test_finite_values_keep_their_value_hash(self):
        assert hash(MultiDouble.from_float(0.5, 2)) == hash(0.5)
        assert MultiDouble.from_float(0.5, 2).is_finite()
        assert not MultiDouble((math.inf, 0.0), 2).is_finite()
