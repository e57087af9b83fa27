"""Truncated power series over an arbitrary coefficient ring.

A :class:`PowerSeries` is a vector of ``d + 1`` coefficients
``c_0 + c_1*t + ... + c_d*t^d``; every operation truncates its result at the
same degree ``d``, exactly like the series the paper's kernels manipulate.
The coefficients can be any objects implementing ``+``, ``-`` and ``*``
(Python floats and complexes, :class:`repro.md.MultiDouble`,
:class:`repro.md.ComplexMD`, exact :class:`fractions.Fraction` for oracle
tests, ...), which is what lets the sequential reference evaluator double as
an exact oracle.

The product of two series is the *convolution* of their coefficient vectors
— the operation the paper maps onto one GPU thread block per product (see
:mod:`repro.series.convolution` for the data-parallel formulations).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import TruncationError

__all__ = ["PowerSeries", "max_magnitude"]


def max_magnitude(magnitudes) -> float:
    """The largest of some non-negative doubles (0.0 if none), NaN if any is.

    Folds the way ``np.max`` does: Python's ``max`` keeps its first argument
    when a later one is NaN, which would read a diverged coefficient as small.
    """
    worst = 0.0
    for magnitude in magnitudes:
        if magnitude != magnitude:
            return magnitude
        if magnitude > worst:
            worst = magnitude
    return worst


def _zero_like(coefficient):
    """A zero element of the same ring as ``coefficient``."""
    return coefficient * 0


class PowerSeries:
    """A power series truncated at a fixed degree.

    Parameters
    ----------
    coefficients:
        The ``d + 1`` coefficients, constant term first.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        coefficients = list(coefficients)
        if not coefficients:
            raise ValueError("a power series needs at least the constant coefficient")
        self.coefficients = coefficients

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, value, degree: int) -> "PowerSeries":
        """The series ``value + 0*t + ... + 0*t^degree``."""
        zero = _zero_like(value)
        return cls([value] + [zero] * degree)

    @classmethod
    def zero(cls, degree: int, like=1.0) -> "PowerSeries":
        """The zero series truncated at ``degree`` (ring inferred from ``like``)."""
        zero = _zero_like(like)
        return cls([zero] * (degree + 1))

    @classmethod
    def one(cls, degree: int, like=1.0) -> "PowerSeries":
        """The unit series ``1``."""
        zero = _zero_like(like)
        one = like / like if not _is_zero(like) else 1.0
        return cls([one] + [zero] * degree)

    @classmethod
    def variable(cls, degree: int, like=1.0) -> "PowerSeries":
        """The series ``t`` (useful to build examples symbolically)."""
        series = cls.zero(degree, like)
        if degree >= 1:
            one = like / like if not _is_zero(like) else 1.0
            series.coefficients[1] = one
        return series

    @classmethod
    def from_function(cls, func: Callable[[int], object], degree: int) -> "PowerSeries":
        """Build a series from ``func(k) -> k-th coefficient``."""
        return cls([func(k) for k in range(degree + 1)])

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def degree(self) -> int:
        """The truncation degree ``d``."""
        return len(self.coefficients) - 1

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, k: int):
        return self.coefficients[k]

    def __setitem__(self, k: int, value):
        self.coefficients[k] = value

    def __iter__(self):
        return iter(self.coefficients)

    def copy(self) -> "PowerSeries":
        return PowerSeries(list(self.coefficients))

    def constant_term(self):
        """The coefficient of ``t^0``."""
        return self.coefficients[0]

    def truncate(self, degree: int) -> "PowerSeries":
        """Return this series truncated (or zero-extended) to ``degree``."""
        if degree == self.degree:
            return self.copy()
        if degree < self.degree:
            return PowerSeries(self.coefficients[: degree + 1])
        zero = _zero_like(self.coefficients[0])
        return PowerSeries(list(self.coefficients) + [zero] * (degree - self.degree))

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "PowerSeries") -> None:
        if self.degree != other.degree:
            raise TruncationError(
                f"cannot combine series of degree {self.degree} and {other.degree}"
            )

    def _coerce(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            self._check_compatible(other)
            return other
        # Scalars become constant series in the same ring.
        return PowerSeries.constant(self.coefficients[0] * 0 + other, self.degree)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "PowerSeries":
        other = self._coerce(other)
        return PowerSeries([a + b for a, b in zip(self.coefficients, other.coefficients)])

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coefficients])

    def __sub__(self, other) -> "PowerSeries":
        other = self._coerce(other)
        return PowerSeries([a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __rsub__(self, other) -> "PowerSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            self._check_compatible(other)
            return self.convolve(other)
        return PowerSeries([c * other for c in self.coefficients])

    def __rmul__(self, other) -> "PowerSeries":
        return self.__mul__(other)

    def convolve(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated product: ``z_k = sum_{i=0..k} x_i * y_{k-i}``."""
        self._check_compatible(other)
        x = self.coefficients
        y = other.coefficients
        out = []
        for k in range(self.degree + 1):
            acc = x[0] * y[k]
            for i in range(1, k + 1):
                acc = acc + x[i] * y[k - i]
            out.append(acc)
        return PowerSeries(out)

    def scale(self, factor) -> "PowerSeries":
        """Multiply every coefficient by a scalar of the coefficient ring."""
        return PowerSeries([c * factor for c in self.coefficients])

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse ``1 / self`` (constant term must be invertible).

        Computed by the standard recursion
        ``b_0 = 1/a_0``, ``b_k = -(1/a_0) * sum_{i=1..k} a_i * b_{k-i}``.
        """
        a0 = self.coefficients[0]
        if _is_zero(a0):
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv_a0 = _reciprocal(a0)
        out = [inv_a0]
        for k in range(1, self.degree + 1):
            acc = self.coefficients[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + self.coefficients[i] * out[k - i]
            out.append(-(inv_a0 * acc))
        return PowerSeries(out)

    def __truediv__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return self.convolve(other.inverse())
        return PowerSeries([c / other for c in self.coefficients])

    def __pow__(self, exponent: int) -> "PowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers require a non-negative integer exponent")
        result = PowerSeries.constant(_one_like(self.coefficients[0]), self.degree)
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result.convolve(base)
            base = base.convolve(base)
            e >>= 1
        return result

    def derivative(self) -> "PowerSeries":
        """Derivative with respect to the series variable ``t`` (same degree)."""
        zero = _zero_like(self.coefficients[0])
        out = [self.coefficients[k] * k for k in range(1, self.degree + 1)] + [zero]
        return PowerSeries(out)

    def integral(self) -> "PowerSeries":
        """Antiderivative with zero constant term, truncated at the same degree."""
        zero = _zero_like(self.coefficients[0])
        out = [zero]
        for k in range(self.degree):
            out.append(self.coefficients[k] / (k + 1))
        return PowerSeries(out)

    # ------------------------------------------------------------------ #
    # evaluation / comparison
    # ------------------------------------------------------------------ #
    def evaluate(self, t):
        """Evaluate the truncated polynomial at the point ``t`` (Horner)."""
        acc = self.coefficients[-1]
        for k in range(self.degree - 1, -1, -1):
            acc = acc * t + self.coefficients[k]
        return acc

    def map(self, func: Callable) -> "PowerSeries":
        """Apply ``func`` to every coefficient (e.g. rounding, promotion)."""
        return PowerSeries([func(c) for c in self.coefficients])

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coefficients, other.coefficients))

    def __hash__(self):
        return hash(tuple(map(str, self.coefficients)))

    def max_abs(self) -> float:
        """Largest coefficient magnitude, rounded to a double (NaN if any is)."""
        return max_magnitude(abs(_to_float(c)) for c in self.coefficients)

    def max_abs_error(self, other: "PowerSeries") -> float:
        """Largest coefficientwise difference, rounded to a double (NaN if any is)."""
        self._check_compatible(other)
        return max_magnitude(
            abs(_to_float(a - b)) for a, b in zip(self.coefficients, other.coefficients)
        )

    def __repr__(self):
        kind = type(self.coefficients[0]).__name__
        return f"PowerSeries(degree={self.degree}, coefficients={kind})"


def _is_zero(value) -> bool:
    try:
        return bool(value == 0)
    except Exception:  # pragma: no cover - exotic coefficient types
        return False


def _one_like(value):
    """The multiplicative identity of the ring of ``value``."""
    if _is_zero(value):
        return value + 1
    return value / value


def _reciprocal(value):
    return _one_like(value) / value


def _to_float(value) -> float:
    if hasattr(value, "to_float"):
        return value.to_float()
    if hasattr(value, "to_complex"):
        return abs(value.to_complex())
    if isinstance(value, complex):
        return abs(value)
    return float(value)
