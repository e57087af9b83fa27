"""Sequential reference evaluation and differentiation.

This is the baseline every accelerated mode is validated against: plain
power-series arithmetic, one monomial after the other, with the gradient
computed directly from the product rule.  With exact
:class:`fractions.Fraction` coefficients it doubles as a bit-exact oracle.

The result container :class:`EvaluationResult` is shared with the staged and
GPU-simulated evaluators of :mod:`repro.core.evaluator`, so comparing modes
is a one-liner (see :meth:`EvaluationResult.max_difference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import StagingError
from ..series.series import PowerSeries, max_magnitude
from .polynomial import Polynomial
from .powers import PowerTable

__all__ = ["EvaluationResult", "evaluate_reference", "evaluate_value_only"]


@dataclass
class EvaluationResult:
    """Value and gradient of a polynomial at a vector of power series.

    Attributes
    ----------
    value:
        ``p(z)`` as a truncated power series.
    gradient:
        One series per variable, ``∂p/∂x_v (z)`` for ``v = 0..n-1``.
    metadata:
        Optional execution statistics (kernel timings, job counts, ...)
        attached by the accelerated evaluators.
    """

    value: PowerSeries
    gradient: list[PowerSeries]
    metadata: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.gradient)

    def max_difference(self, other: "EvaluationResult") -> float:
        """Largest coefficientwise deviation between two results (as a double,
        NaN if any is)."""
        return max_magnitude(
            [self.value.max_abs_error(other.value)]
            + [mine.max_abs_error(theirs) for mine, theirs in zip(self.gradient, other.gradient)]
        )

    def to_float_value(self):
        """The value series with coefficients rounded to doubles/complexes."""
        return [_round_coefficient(c) for c in self.value.coefficients]


def _round_coefficient(c):
    if hasattr(c, "to_complex"):
        return c.to_complex()
    if hasattr(c, "to_float"):
        return c.to_float()
    return c


def evaluate_reference(polynomial: Polynomial, z: Sequence[PowerSeries]) -> EvaluationResult:
    """Evaluate ``polynomial`` and its gradient at ``z`` sequentially.

    For every monomial ``a * prod_i z_i^{e_i}`` the value contribution is the
    full product and the gradient contribution for variable ``v`` is
    ``e_v * a * z_v^{e_v - 1} * prod_{i != v} z_i^{e_i}``.

    Complexity is quadratic in the number of variables per monomial, which is
    irrelevant for a correctness oracle.
    """
    _check_inputs(polynomial, z)
    degree = polynomial.series_degree
    zero_like = polynomial.constant.coefficients[0] * 0
    value = polynomial.constant.copy()
    gradient = [PowerSeries.constant(zero_like, degree) for _ in range(polynomial.dimension)]
    table = PowerTable(z)

    for monomial in polynomial.monomials:
        # Value: coefficient times all the powers.
        term = monomial.coefficient
        for variable, exponent in monomial.exponents:
            term = term * table.power(variable, exponent)
        value = value + term
        # Gradient: product rule, one variable at a time.
        for variable, exponent in monomial.exponents:
            partial = monomial.coefficient.scale(
                monomial.coefficient.coefficients[0] * 0 + exponent
            )
            if exponent > 1:
                partial = partial * table.power(variable, exponent - 1)
            for other_variable, other_exponent in monomial.exponents:
                if other_variable == variable:
                    continue
                partial = partial * table.power(other_variable, other_exponent)
            gradient[variable] = gradient[variable] + partial
    return EvaluationResult(value=value, gradient=gradient, metadata={"mode": "reference"})


def evaluate_value_only(polynomial: Polynomial, z: Sequence[PowerSeries]) -> PowerSeries:
    """Evaluate only ``p(z)`` (no gradient); handy for Newton residuals."""
    _check_inputs(polynomial, z)
    value = polynomial.constant.copy()
    table = PowerTable(z)
    for monomial in polynomial.monomials:
        term = monomial.coefficient
        for variable, exponent in monomial.exponents:
            term = term * table.power(variable, exponent)
        value = value + term
    return value


def _check_inputs(polynomial: Polynomial, z: Sequence[PowerSeries]) -> None:
    if len(z) != polynomial.dimension:
        raise StagingError(
            f"the polynomial has {polynomial.dimension} variables "
            f"but {len(z)} input series were given"
        )
    for i, series in enumerate(z):
        if series.degree != polynomial.series_degree:
            raise StagingError(
                f"input series {i} has degree {series.degree}, "
                f"expected {polynomial.series_degree}"
            )
