"""Complex numbers with multiple-double real and imaginary parts.

Polynomial homotopy continuation works over the complex numbers, so the
paper's kernels exist in complex variants that keep the real and imaginary
parts in *separate* arrays (again to preserve coalesced memory access).  This
module provides the scalar :class:`ComplexMD`, a complex value whose real
and imaginary parts are :class:`repro.md.MultiDouble`.  The split array
layout is the tensor backend's: a complex tensor is a pair of real and
imaginary limb planes (:mod:`repro.md.cvecops`, :mod:`repro.core.tensor`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .multidouble import MultiDouble
from .precision import get_precision

__all__ = ["ComplexMD"]


def _component(value, prec, name: str) -> MultiDouble:
    """Coerce one real/imaginary component to a ``prec``-limb MultiDouble.

    Floats round into the precision like every floating input does, but
    *exact* inputs (ints and Fractions) are only accepted when the target
    precision represents them exactly — silently rounding an exact value
    would defeat its purpose.  The tensor backend enforces the same rule for
    its limb planes: :func:`repro.core.tensor.infer_ring` routes rings with
    oversized exact ints to the staged fallback, and the packing helpers
    refuse them outright.
    """
    if isinstance(value, MultiDouble):
        return value.to_precision(prec)
    if isinstance(value, (float, np.floating)):
        return MultiDouble.from_float(float(value), prec)
    if isinstance(value, (int, np.integer, Fraction)):
        exact = Fraction(value)
        coerced = MultiDouble.from_fraction(exact, prec)
        if coerced.to_fraction() != exact:
            raise ValueError(
                f"{name} component {value!r} is not exactly representable in "
                f"{prec.limbs}-limb precision; convert it to float explicitly "
                "to round"
            )
        return coerced
    if isinstance(value, str):
        # Decimal literals are rounded like floats (that is what parsing a
        # string at a finite precision means).
        return MultiDouble.from_string(value, prec)
    raise TypeError(f"cannot use {type(value).__name__} as a ComplexMD {name} part")


class ComplexMD:
    """A complex number with multiple-double components."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0.0, precision=None):
        if precision is None:
            if isinstance(real, MultiDouble):
                precision = real.precision
            elif isinstance(imag, MultiDouble):
                precision = imag.precision
            else:
                precision = 2
        prec = get_precision(precision)
        self.real = _component(real, prec, "real")
        self.imag = _component(imag, prec, "imag")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_complex(cls, value: complex, precision=2) -> "ComplexMD":
        """Exact promotion of a Python complex."""
        return cls(float(value.real), float(value.imag), precision)

    @classmethod
    def from_parts(cls, real: MultiDouble, imag: MultiDouble) -> "ComplexMD":
        """Pair two multiple doubles of one precision, limbs as they are.

        The constructor renormalises both parts, which can move a last bit;
        parts read back from the limbs of an existing ``ComplexMD`` must not
        be renormalised again.
        """
        value = cls.__new__(cls)
        value.real = real
        value.imag = imag
        return value

    @classmethod
    def zero(cls, precision=2) -> "ComplexMD":
        return cls(0.0, 0.0, precision)

    @classmethod
    def one(cls, precision=2) -> "ComplexMD":
        return cls(1.0, 0.0, precision)

    @classmethod
    def unit_circle(cls, angle: float, precision=2) -> "ComplexMD":
        """``exp(i*angle)`` at double accuracy, promoted to the precision.

        Random coefficients on the unit circle are the standard test data in
        PHCpack; double-accurate angles are sufficient because only the
        *structure* of the data matters for the experiments.
        """
        return cls(math.cos(angle), math.sin(angle), precision)

    @property
    def precision(self):
        return self.real.precision

    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "ComplexMD":
        if isinstance(other, ComplexMD):
            return other
        if isinstance(other, complex):
            return ComplexMD.from_complex(other, self.precision)
        if isinstance(other, MultiDouble):
            return ComplexMD(other, MultiDouble.zero(self.precision), self.precision)
        if isinstance(other, (int, float)):
            # Through the constructor, so exact ints keep the lossy-coercion
            # guard of ``_component``.
            return ComplexMD(other, 0.0, self.precision)
        raise TypeError(f"cannot combine ComplexMD with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return ComplexMD(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return ComplexMD(-self.real, -self.imag)

    def __sub__(self, other):
        other = self._coerce(other)
        return ComplexMD(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return ComplexMD(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexMD":
        return ComplexMD(self.real, -self.imag)

    def norm_squared(self) -> MultiDouble:
        """``|z|^2`` as a multiple double."""
        return self.real * self.real + self.imag * self.imag

    def abs(self) -> MultiDouble:
        """Modulus ``|z|``."""
        return self.norm_squared().sqrt()

    def __truediv__(self, other):
        other = self._coerce(other)
        denom = other.norm_squared()
        num = self * other.conjugate()
        return ComplexMD(num.real / denom, num.imag / denom)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other.__truediv__(self)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def is_zero(self) -> bool:
        return self.real.is_zero() and self.imag.is_zero()

    def to_complex(self) -> complex:
        """Round to a Python complex."""
        return complex(self.real.to_float(), self.imag.to_float())

    def to_precision(self, precision) -> "ComplexMD":
        return ComplexMD(self.real.to_precision(precision), self.imag.to_precision(precision))

    def __repr__(self):
        return f"ComplexMD({self.real.to_float()!r}, {self.imag.to_float()!r}, precision={self.precision.limbs})"
