"""Scalar multiple-double arithmetic.

:class:`MultiDouble` represents a real number as an unevaluated sum of ``k``
IEEE doubles ("limbs") of decreasing magnitude, exactly like the double
double / quad double numbers of the QD library and the generic ``k``-fold
doubles generated by CAMPARY that the paper runs on the GPU.  The value of
the number is the exact real sum of its limbs; the working precision is
roughly ``52*k`` bits.

Quad doubles (4 limbs) add, subtract and multiply through the fixed,
branch-free sequences of :mod:`repro.md.qd`, the same code the row kernels of
:mod:`repro.md.vecops` and the resident Newton state of
:mod:`repro.md.replica` run, so the three stacks agree limb for limb.  A
4-limb operand of a 4-limb operation is taken as it is, not renormalised
first, and a 4-limb product no longer skips zero factors: ``inf * 0`` is NaN
at 4 limbs in every stack.  Every other precision is *simple and robust*
rather than fast: each operation produces the exact (or nearly exact) result
as a list of doubles and then renormalises it back to ``k`` limbs with
:func:`repro.md.renorm.renormalize`.  This scalar class is the reference
implementation the vectorised code and all oracles are tested against.

Examples
--------
>>> from repro.md import MultiDouble
>>> a = MultiDouble.from_float(1.0, 4) / 3
>>> (a * 3 - 1).to_float()
0.0
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .eft import two_prod
from .precision import Precision, get_precision
from .qd import qd_add, qd_mul
from .renorm import renormalize

__all__ = ["MultiDouble"]


def _coerce_limbs(value, limbs: int) -> tuple[float, ...]:
    """Convert an int, float or Fraction into a canonical limb tuple of
    length ``limbs``."""
    if isinstance(value, float):
        return renormalize((value,), limbs)
    if isinstance(value, int):
        # Large integers may not be representable by a single double;
        # peel off limbs one by one so the conversion stays exact as long
        # as the integer fits in 52*limbs bits.
        return _limbs_from_fraction(Fraction(value), limbs)
    if isinstance(value, Fraction):
        return _limbs_from_fraction(value, limbs)
    raise TypeError(f"cannot convert {type(value).__name__} to MultiDouble")


def _limbs_from_fraction(value: Fraction, limbs: int) -> tuple[float, ...]:
    """Extract ``limbs`` doubles from an exact rational value."""
    out: list[float] = []
    remainder = value
    for _ in range(limbs):
        limb = float(remainder)
        if math.isinf(limb):
            raise OverflowError("value too large for a multiple double")
        out.append(limb)
        remainder = remainder - Fraction(limb)
    return renormalize(out, limbs)


def _fraction_from_string(text: str) -> Fraction:
    """Parse a decimal or rational literal into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError as exc:  # pragma: no cover - defensive
        raise ValueError(f"cannot parse {text!r} as a number") from exc


class MultiDouble:
    """A real number stored as ``k`` non-overlapping doubles.

    Instances are immutable.  Binary operations accept Python ints, floats,
    :class:`fractions.Fraction` and other :class:`MultiDouble` values; when
    two multiple doubles of different precision meet, the result carries the
    larger precision.
    """

    __slots__ = ("_limbs", "_precision")

    def __init__(self, limbs: Iterable[float], precision=None):
        limb_tuple = tuple(float(x) for x in limbs)
        if not limb_tuple:
            raise ValueError("a MultiDouble needs at least one limb")
        if precision is None:
            precision = len(limb_tuple)
        prec = get_precision(precision)
        if len(limb_tuple) != prec.limbs:
            limb_tuple = renormalize(limb_tuple, prec.limbs)
        self._limbs = limb_tuple
        self._precision = prec

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_float(cls, value: float, precision=2) -> "MultiDouble":
        """Exact conversion from a double (remaining limbs are zero).

        An infinity or a NaN keeps its IEEE value in the leading limb with
        zero tails, so ``float()`` of it gives it back and it compares in
        IEEE order.
        """
        prec = get_precision(precision)
        value = float(value)
        if not math.isfinite(value):
            return cls((value,) + (0.0,) * (prec.limbs - 1), prec)
        return cls(renormalize((value,), prec.limbs), prec)

    @classmethod
    def from_fraction(cls, value: Fraction, precision=2) -> "MultiDouble":
        """Round an exact rational to the requested precision."""
        prec = get_precision(precision)
        return cls(_limbs_from_fraction(Fraction(value), prec.limbs), prec)

    @classmethod
    def from_string(cls, text: str, precision=2) -> "MultiDouble":
        """Parse a decimal literal, correctly rounded to the precision."""
        prec = get_precision(precision)
        return cls(_limbs_from_fraction(_fraction_from_string(text), prec.limbs), prec)

    @classmethod
    def zero(cls, precision=2) -> "MultiDouble":
        """The additive identity."""
        prec = get_precision(precision)
        return cls((0.0,) * prec.limbs, prec)

    @classmethod
    def one(cls, precision=2) -> "MultiDouble":
        """The multiplicative identity."""
        prec = get_precision(precision)
        return cls((1.0,) + (0.0,) * (prec.limbs - 1), prec)

    @classmethod
    def random(cls, precision=2, rng=None, low: float = -1.0, high: float = 1.0) -> "MultiDouble":
        """A random value uniform in ``[low, high)`` with full-precision noise.

        Every limb position receives independent random bits so the value
        genuinely exercises all ``52*k`` bits of the format.
        """
        import random as _random

        prec = get_precision(precision)
        rng = rng if rng is not None else _random
        terms = []
        scale = high - low
        lead = low + scale * rng.random()
        terms.append(lead)
        for i in range(1, prec.limbs):
            terms.append((rng.random() - 0.5) * scale * 2.0 ** (-52 * i))
        return cls(renormalize(terms, prec.limbs), prec)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def limbs(self) -> tuple[float, ...]:
        """The limb tuple, largest magnitude first."""
        return self._limbs

    @property
    def precision(self) -> Precision:
        """The :class:`repro.md.Precision` of this value."""
        return self._precision

    @property
    def hi(self) -> float:
        """The leading (most significant) limb."""
        return self._limbs[0]

    def to_float(self) -> float:
        """Round to a single double."""
        total = 0.0
        for limb in reversed(self._limbs):
            total += limb
        return total

    def to_fraction(self) -> Fraction:
        """Exact rational value (every finite double is rational)."""
        total = Fraction(0)
        for limb in self._limbs:
            total += Fraction(limb)
        return total

    def is_zero(self) -> bool:
        """True when every limb is zero."""
        return all(limb == 0.0 for limb in self._limbs)

    def is_finite(self) -> bool:
        """True when every limb is finite (no NaN, no infinity)."""
        return all(math.isfinite(limb) for limb in self._limbs)

    def to_precision(self, precision) -> "MultiDouble":
        """Return this value rounded (or padded) to another precision.

        A quad double stays as it is at 4 limbs (see :meth:`_limbs_at`)."""
        prec = get_precision(precision)
        return MultiDouble(self._limbs_at(prec.limbs), prec)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _limbs_at(self, limbs: int) -> tuple[float, ...]:
        """The limbs renormalised to ``limbs``, except a quad double's at 4:
        the fixed sequences take those as they are, and renormalising can
        move the lower limbs of a sequence's result."""
        if limbs == 4 and self._precision.limbs == 4:
            return self._limbs
        return renormalize(self._limbs, limbs)

    def _binary_operands(self, other):
        """Coerce ``other`` and pick the result precision for a binary op."""
        if isinstance(other, MultiDouble):
            limbs = max(self._precision.limbs, other._precision.limbs)
            return self._limbs_at(limbs), other._limbs_at(limbs), get_precision(limbs)
        if isinstance(other, (int, float, Fraction)):
            limbs = self._precision.limbs
            return self._limbs, _coerce_limbs(other, limbs), self._precision
        return None

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        return MultiDouble(_sum(a, b, prec.limbs), prec)

    __radd__ = __add__

    def __neg__(self):
        return MultiDouble(tuple(-x for x in self._limbs), self._precision)

    def __sub__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        return MultiDouble(_sum(a, tuple(-x for x in b), prec.limbs), prec)

    def __rsub__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        return MultiDouble(_sum(b, tuple(-x for x in a), prec.limbs), prec)

    def __mul__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        k = prec.limbs
        if k == 4:
            return MultiDouble(qd_mul(a, b, two_prod), prec)
        terms: list[float] = []
        # Exact partial products for the significant diagonals (i + j <= k);
        # deeper diagonals fall below the ulp of the last limb.
        for i, ai in enumerate(a):
            if ai == 0.0:
                continue
            for j, bj in enumerate(b):
                if bj == 0.0:
                    continue
                if i + j < k:
                    p, e = two_prod(ai, bj)
                    terms.append(p)
                    if e != 0.0:
                        terms.append(e)
                elif i + j == k:
                    terms.append(ai * bj)
        return MultiDouble(renormalize(terms, k), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        return _divide(MultiDouble(a, prec), MultiDouble(b, prec))

    def __rtruediv__(self, other):
        operands = self._binary_operands(other)
        if operands is None:
            return NotImplemented
        a, b, prec = operands
        return _divide(MultiDouble(b, prec), MultiDouble(a, prec))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return MultiDouble.one(self._precision) / self.__pow__(-exponent)
        result = MultiDouble.one(self._precision)
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __abs__(self):
        return -self if self.hi < 0.0 else self

    def sqrt(self) -> "MultiDouble":
        """Square root via Newton iteration on the full precision.

        Raises :class:`ValueError` for negative inputs.
        """
        if self.is_zero():
            return MultiDouble.zero(self._precision)
        if self.hi < 0.0:
            raise ValueError("square root of a negative multiple double")
        prec = self._precision
        x = MultiDouble.from_float(math.sqrt(self.hi), prec)
        # Each Newton step doubles the number of correct bits; starting from
        # 53 bits, ceil(log2(k)) + 1 steps reach 53*k bits comfortably.
        steps = max(1, math.ceil(math.log2(prec.limbs)) + 1) if prec.limbs > 1 else 1
        half = MultiDouble.from_float(0.5, prec)
        for _ in range(steps + 1):
            x = half * (x + self / x)
        return x

    # ------------------------------------------------------------------ #
    # comparisons
    # ------------------------------------------------------------------ #
    def _compare(self, other) -> float:
        """Sign of ``self - other`` (-1, 0 or 1), or NaN for a NaN difference:
        unordered like an IEEE NaN, so only ``!=`` reads True."""
        operands = self._binary_operands(other)
        if operands is None:
            raise TypeError(f"cannot compare MultiDouble with {type(other).__name__}")
        a, b, prec = operands
        diff = renormalize(a + tuple(-x for x in b), prec.limbs)
        lead = diff[0]
        if lead > 0.0:
            return 1
        if lead < 0.0:
            return -1
        return 0 if lead == 0.0 else math.nan

    def __eq__(self, other):
        try:
            return self._compare(other) == 0
        except TypeError:
            return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __hash__(self):
        if not self.is_finite():
            return hash(self._limbs)
        return hash(self.to_fraction())

    def __bool__(self):
        return not self.is_zero()

    def __float__(self):
        return self.to_float()

    # ------------------------------------------------------------------ #
    # formatting
    # ------------------------------------------------------------------ #
    def to_decimal_string(self, digits: int | None = None) -> str:
        """Decimal representation with ``digits`` significant digits.

        Defaults to the number of digits the precision can carry.  A value
        with a non-finite limb has no decimal expansion; it reads as Python
        writes its :meth:`to_float`: ``nan``, ``inf`` or ``-inf``.
        """
        if not self.is_finite():
            return str(self.to_float())
        if digits is None:
            digits = max(self._precision.decimal_digits, 17)
        value = self.to_fraction()
        if value == 0:
            return "0." + "0" * (digits - 1) + "e+00"
        sign = "-" if value < 0 else ""
        value = abs(value)
        exponent = 0
        while value >= 10:
            value /= 10
            exponent += 1
        while value < 1:
            value *= 10
            exponent -= 1
        scaled = value * Fraction(10) ** (digits - 1)
        mantissa = int(scaled + Fraction(1, 2))
        if mantissa >= 10**digits:
            mantissa //= 10
            exponent += 1
        text = str(mantissa)
        return f"{sign}{text[0]}.{text[1:]}e{exponent:+03d}"

    def __repr__(self):
        return f"MultiDouble({list(self._limbs)!r})"

    def __str__(self):
        return self.to_decimal_string(min(self._precision.decimal_digits, 36))


def _sum(a: tuple[float, ...], b: tuple[float, ...], limbs: int) -> tuple[float, ...]:
    """The ``limbs``-limb sum of two limb tuples of that precision."""
    if limbs == 4:
        return qd_add(a, b)
    return renormalize(a + b, limbs)


def _divide(numerator: MultiDouble, denominator: MultiDouble) -> MultiDouble:
    """Long-division style quotient of two multiple doubles.

    The division stops after a quotient limb that is zero or not finite; a
    non-finite one is kept, so an overflowing or NaN quotient is not finite.
    At one limb the quotient is the IEEE one, ``a / b``, as in the row
    kernels: a one-limb remainder is not exact, so a second step would move
    it.
    """
    prec = numerator.precision
    if denominator.is_zero():
        raise ZeroDivisionError("division by a zero multiple double")
    k = prec.limbs
    if k == 1:
        return MultiDouble((numerator.hi / denominator.hi,), prec)
    quotient_limbs: list[float] = []
    remainder = numerator
    for _ in range(k + 1):
        q = remainder.hi / denominator.hi
        quotient_limbs.append(q)
        if q == 0.0 or not math.isfinite(q):
            break
        remainder = remainder - denominator * MultiDouble.from_float(q, prec)
    return MultiDouble(renormalize(quotient_limbs, k), prec)
