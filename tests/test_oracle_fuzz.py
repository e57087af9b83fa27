"""Differential fuzzing of every evaluator mode against the exact oracle.

Seeded random structures — dimension 1 to 6, 0 to 6 monomials, exponents up
to 5 built from repeated variables, constant-only polynomials, truncation
degrees 0, 1, 2, 5 and 8 — run in every coefficient ring and in every mode
that takes the ring, through :class:`repro.core.PolynomialEvaluator` and
through a :class:`repro.core.SystemEvaluator` of two or three equations.
The oracle is :func:`repro.circuits.evaluate_reference` on exact rational
(Gaussian-rational for complex rings) copies of the same inputs.  Every
value and gradient coefficient must lie within
``2**(-52*limbs + 20) * max(1, |exact|)`` of the oracle, and exact
``Fraction`` results must equal it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.circuits import Monomial, Polynomial, evaluate_reference
from repro.core import PolynomialEvaluator, ScheduleCache, SystemEvaluator
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries, random_series_vector

#: ring name -> (series kind, limbs, modes that take the ring)
RINGS = {
    "float": ("float", 1, ("reference", "staged", "gpu", "vectorized")),
    "dd": ("md", 2, ("reference", "staged", "gpu", "vectorized")),
    "qd": ("md", 4, ("reference", "staged", "gpu", "vectorized")),
    "complex": ("complex", 1, ("reference", "staged", "vectorized")),
    "complex_dd": ("complex_md", 2, ("reference", "staged", "vectorized")),
    "complex_qd": ("complex_md", 4, ("reference", "staged", "vectorized")),
    "fraction": ("fraction", 1, ("reference", "staged", "vectorized")),
}
DEGREES = (0, 1, 2, 5, 8)
MAX_EXPONENT = 5
MAX_MONOMIALS = 6


class _Gaussian:
    """An exact complex rational: just the ring operations the oracle uses."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _lift(self, other):
        return other if isinstance(other, _Gaussian) else _Gaussian(other)

    def __add__(self, other):
        other = self._lift(other)
        return _Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        return _Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __sub__(self, other):
        other = self._lift(other)
        return _Gaussian(self.re - other.re, self.im - other.im)


def _exact(c):
    """The exact (Gaussian-)rational value of one coefficient."""
    if isinstance(c, MultiDouble):
        return c.to_fraction()
    if isinstance(c, ComplexMD):
        return _Gaussian(c.real.to_fraction(), c.imag.to_fraction())
    if isinstance(c, complex):
        return _Gaussian(c.real, c.imag)
    return Fraction(c)


def _exact_series(series):
    return PowerSeries([_exact(c) for c in series.coefficients])


def _exact_polynomial(polynomial):
    return polynomial.map_coefficients(_exact_series)


def _squared_magnitude(value):
    if isinstance(value, _Gaussian):
        return value.re * value.re + value.im * value.im
    return value * value


def _random_polynomial(rng, dimension, n_monomials, degree, kind, limbs):
    """Distinct monomials of up to three variables; repeated variables give
    exponents up to :data:`MAX_EXPONENT`."""
    coefficients = random_series_vector(n_monomials + 1, degree, kind, limbs, rng)
    monomials, seen = [], set()
    for coefficient in coefficients[1:]:
        support = rng.sample(range(dimension), rng.randint(1, min(dimension, 3)))
        variables = [v for v in support for _ in range(rng.randint(1, MAX_EXPONENT))]
        monomial = Monomial.make(coefficient, variables)
        if monomial.exponents not in seen:
            seen.add(monomial.exponents)
            monomials.append(monomial)
    return Polynomial(dimension, coefficients[0], monomials)


def _case(ring, degree, equations):
    """Seeded polynomials and one input vector for a grid cell.

    The monomial counts cycle through 0..MAX_MONOMIALS over the grid, so
    every count — constant-only polynomials included — appears in every
    ring.
    """
    kind, limbs, _ = RINGS[ring]
    cell = list(RINGS).index(ring) + DEGREES.index(degree)
    rng = random.Random(f"{ring}-{degree}-{equations}")
    dimension = rng.randint(1, 6)
    polynomials = [
        _random_polynomial(
            rng, dimension, (cell + 3 * e) % (MAX_MONOMIALS + 1), degree, kind, limbs
        )
        for e in range(equations)
    ]
    z = random_series_vector(dimension, degree, kind, limbs, rng)
    return polynomials, z


def _oracle(polynomial, z):
    return evaluate_reference(_exact_polynomial(polynomial), [_exact_series(s) for s in z])


def _assert_matches_oracle(result, exact, ring):
    limbs = RINGS[ring][1]
    got = [result.value] + list(result.gradient)
    want = [exact.value] + list(exact.gradient)
    assert len(got) == len(want)
    bound_squared = Fraction(2) ** (2 * (-52 * limbs + 20))
    for got_series, want_series in zip(got, want):
        assert got_series.degree == want_series.degree
        for approx, truth in zip(got_series.coefficients, want_series.coefficients):
            if ring == "fraction":
                assert approx == truth
            else:
                error = _squared_magnitude(_exact(approx) - truth)
                assert error <= bound_squared * max(1, _squared_magnitude(truth)), (
                    f"{ring}: error {float(error) ** 0.5:.3e} at |exact| "
                    f"{float(_squared_magnitude(truth)) ** 0.5:.3e}"
                )


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("ring", list(RINGS))
def test_polynomial_evaluator_matches_exact_oracle(ring, degree):
    (polynomial,), z = _case(ring, degree, equations=1)
    exact = _oracle(polynomial, z)
    for mode in RINGS[ring][2]:
        result = PolynomialEvaluator(polynomial, mode=mode).evaluate(z)
        _assert_matches_oracle(result, exact, ring)


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("ring", list(RINGS))
def test_system_evaluator_matches_exact_oracle(ring, degree):
    equations = 2 + DEGREES.index(degree) % 2
    polynomials, z = _case(ring, degree, equations)
    exact = [_oracle(polynomial, z) for polynomial in polynomials]
    for mode in RINGS[ring][2]:
        evaluator = SystemEvaluator(polynomials, mode=mode, cache=ScheduleCache())
        results = evaluator.evaluate(z)
        assert len(results) == equations
        for result, truth in zip(results, exact):
            _assert_matches_oracle(result, truth, ring)
