"""An exact oracle for Newton's method on power series.

Seeded square systems of dimension 1 to 4, truncated at degrees 0 to 8, in
the float, double-double, quad-double, complex double-double and complex
quad-double rings.  Equation ``e`` of a system in ``n`` variables is::

    f_e(x) = a_e x_e + b_e x_(e+1 mod n)^2 + s_e(t)

with dyadic (Gaussian-)rational data: ``|a_e| >= 19/4``, ``|b_e| <= 1/4``,
a root ``r`` with ``|r_j| <= 3/2`` (per part) prescribed at ``t = 0`` through
``s_e(0) = -(a_e r_e + b_e r_(e+1)^2)``, and random higher coefficients of
``s_e``.  The equations are listed in a seeded order, so the partial pivot
search of every solver swaps rows; for ``n >= 3`` each Jacobian row has
structural zeros, so a solve that skips a swap meets a zero pivot.

Every datum has at most 12 fractional bits, so it is exact in every ring,
and so is the residual at ``t = 0``: the floating systems *are* the exact
ones.  The oracle is their exact series solution — the fixed point of
``Fraction`` Newton, which reproduces it bit for bit — computed coefficient
by coefficient, ``x_k = -J_0^(-1) [t^k] f(x_0 + ... + x_(k-1) t^(k-1))``,
in exact (Gaussian-)rational arithmetic.

**The bound.**  The Jacobian at the root is diagonally dominant: its
diagonal is ``a_e`` (plus ``2 b_e r_e`` when ``n = 1``), between 4 and 9 in
modulus, and its one off-diagonal entry per row, ``2 b_e r_(e+1)``, is at
most 3/4 in modulus.  So ``||J_0||_inf <= 39/4`` and
``||J_0^(-1)||_inf <= 1 / (4 - 3/4)``, and the condition number
``kappa_inf(J_0) <= 3`` stays below :data:`CONDITIONING` = 4; every system
asserts it.  Each coefficient a Newton driver returns
must lie within ``2**(-52*limbs + 20) * CONDITIONING * max(1, |x|)`` of the
exact one, where ``|x|`` is the largest exact coefficient of the solution
— the evaluator fuzzer's bound times the conditioning of the linear solves.

The drivers are :func:`newton_power_series` and
:func:`newton_power_series_batch`, each in ``staged`` mode (scalar
:func:`repro.homotopy.lu_solve`) and ``vectorized`` mode (resident rows and
the batched tensor solve).  The edges: a start at a double root makes the
lead matrix singular, which raises :class:`repro.errors.SingularSystemError`
naming that lane in every mode, and degree 0 solves like any other degree.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from repro.circuits import Monomial, Polynomial, evaluate_reference
from repro.core import MODES, ScheduleCache
from repro.errors import SingularSystemError
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    newton_power_series,
    newton_power_series_batch,
)
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries

#: ring name -> (limbs, complex).  The dimension of a grid cell cycles with
#: the ring's position here and the degree's in :data:`DEGREES`, so every
#: ring meets every dimension once; this order gives the two complex rings
#: their largest dimension below degree 8, which keeps the file fast.
RINGS = {
    "float": (1, False),
    "complex_qd": (4, True),
    "complex_dd": (2, True),
    "qd": (4, False),
    "dd": (2, False),
}
DEGREES = (0, 1, 3, 8)

#: The construction's bound on ``kappa_inf(J_0)`` (see the module docstring).
CONDITIONING = 4

#: Modes whose evaluators take each ring (``gpu`` is real-only by design).
REAL_MODES = MODES
COMPLEX_MODES = tuple(mode for mode in MODES if mode != "gpu")


def _iterations(degree: int) -> int:
    """From the root's constant terms every Newton step doubles the number
    of correct coefficients; one step more absorbs rounding."""
    return math.ceil(math.log2(degree + 1)) + 1


class _Gaussian:
    """An exact complex rational with the ring operations the oracle uses."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _lift(other):
        return other if isinstance(other, _Gaussian) else _Gaussian(other)

    def __add__(self, other):
        other = self._lift(other)
        return _Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        other = self._lift(other)
        return _Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = self._lift(other)
        return _Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        norm = other.re * other.re + other.im * other.im
        return _Gaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __eq__(self, other):
        other = self._lift(other)
        return self.re == other.re and self.im == other.im

    __hash__ = None


def _squared_magnitude(value) -> Fraction:
    if isinstance(value, _Gaussian):
        return value.re * value.re + value.im * value.im
    return value * value


def _exact(value):
    """The exact (Gaussian-)rational value of one floating coefficient."""
    if isinstance(value, ComplexMD):
        return _Gaussian(value.real.to_fraction(), value.imag.to_fraction())
    if isinstance(value, MultiDouble):
        return value.to_fraction()
    return Fraction(value)


def _to_ring(value, ring: str):
    """The (Gaussian-)rational ``value`` as a coefficient of ``ring``; exact,
    since every datum of the construction is a short dyadic."""
    limbs, _ = RINGS[ring]
    if isinstance(value, _Gaussian):
        return ComplexMD.from_parts(
            MultiDouble.from_fraction(value.re, limbs), MultiDouble.from_fraction(value.im, limbs)
        )
    if ring == "float":
        return float(value)
    return MultiDouble.from_fraction(value, limbs)


# --------------------------------------------------------------------- #
# the construction
# --------------------------------------------------------------------- #
def _dyadic(rng, numerator: int, bits: int, complex_ring: bool):
    """A random dyadic ``m / 2**bits`` with ``|m| <= numerator`` (per part)."""

    def part():
        return Fraction(rng.randint(-numerator, numerator), 2**bits)

    return _Gaussian(part(), part()) if complex_ring else part()


def _system_data(ring: str, n: int, degree: int, seed):
    """The exact data of one system: equations in a seeded order, and its root."""
    _, complex_ring = RINGS[ring]
    rng = random.Random(seed)
    root = [_dyadic(rng, 12, 3, complex_ring) for _ in range(n)]
    equations = []
    for e in range(n):
        sign = rng.choice((-1, 1))
        a = _dyadic(rng, 2, 3, complex_ring) + sign * rng.randint(5, 8)
        b = _dyadic(rng, 8, 5 + complex_ring, complex_ring)
        neighbour = (e + 1) % n
        shift = [-(a * root[e] + b * root[neighbour] * root[neighbour])]
        shift += [_dyadic(rng, 16, 4, complex_ring) for _ in range(degree)]
        equations.append((e, neighbour, a, b, shift))
    rng.shuffle(equations)
    return equations, root


def _polynomials(equations, n: int, degree: int, convert):
    zero = convert(Fraction(0))

    def series(values):
        return PowerSeries([convert(v) for v in values] + [zero] * (degree + 1 - len(values)))

    return [
        Polynomial(
            n,
            series(shift),
            [Monomial.make(series([a]), {e: 1}), Monomial.make(series([b]), {neighbour: 2})],
        )
        for e, neighbour, a, b, shift in equations
    ]


def _exact_inverse(matrix):
    """Gauss-Jordan inverse over an exact field (first non-zero pivot)."""
    n = len(matrix)
    one = matrix[0][0] * 0 + 1
    zero = one * 0
    work = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(matrix)]
    for column in range(n):
        pivot = next(r for r in range(column, n) if not work[r][column] == 0)
        work[column], work[pivot] = work[pivot], work[column]
        scale = one / work[column][column]
        work[column] = [value * scale for value in work[column]]
        for r in range(n):
            if r != column and not work[r][column] == 0:
                factor = work[r][column]
                work[r] = [x - factor * y for x, y in zip(work[r], work[column])]
    return [row[n:] for row in work]


def _infinity_norm(matrix) -> float:
    return max(sum(float(_squared_magnitude(v)) ** 0.5 for v in row) for row in matrix)


def _exact_solution(polynomials, root, degree):
    """The exact series solution and ``kappa_inf`` of its lead matrix."""
    n = len(root)
    x = [PowerSeries.constant(r, degree) for r in root]
    lead = [[g.coefficients[0] for g in evaluate_reference(p, x).gradient] for p in polynomials]
    inverse = _exact_inverse(lead)
    for k in range(1, degree + 1):
        values = [evaluate_reference(p, x).value.coefficients[k] for p in polynomials]
        for j in range(n):
            x[j].coefficients[k] = -sum(inverse[j][i] * values[i] for i in range(n))
    for p in polynomials:
        assert all(c == 0 for c in evaluate_reference(p, x).value.coefficients)
    return x, _infinity_norm(lead) * _infinity_norm(inverse)


def _case(ring: str, degree: int):
    """A seeded grid cell: its floating system, start and exact solution."""
    _, complex_ring = RINGS[ring]
    n = 1 + (list(RINGS).index(ring) + DEGREES.index(degree)) % 4
    equations, root = _system_data(ring, n, degree, f"{ring}-{degree}")
    exact_polynomials = _polynomials(equations, n, degree, _Gaussian._lift if complex_ring else Fraction)
    exact, kappa = _exact_solution(exact_polynomials, root, degree)
    assert kappa <= CONDITIONING
    convert = partial(_to_ring, ring=ring)
    start = [PowerSeries.constant(convert(r), degree) for r in root]
    return _polynomials(equations, n, degree, convert), start, exact, exact_polynomials


def _assert_within_bound(solution, exact, ring: str):
    limbs, _ = RINGS[ring]
    scale = max(1, *(_squared_magnitude(c) for s in exact for c in s.coefficients))
    bound_squared = (Fraction(2) ** (-52 * limbs + 20) * CONDITIONING) ** 2 * scale
    assert len(solution) == len(exact)
    for got, want in zip(solution, exact):
        assert got.degree == want.degree
        for approx, truth in zip(got.coefficients, want.coefficients):
            error = _squared_magnitude(_exact(approx) - truth)
            assert error <= bound_squared, (
                f"{ring}: error {float(error) ** 0.5:.3e} against the bound "
                f"{float(bound_squared) ** 0.5:.3e}"
            )


# --------------------------------------------------------------------- #
# the drivers against the exact series
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("ring", list(RINGS))
def test_newton_drivers_match_exact_series(ring, degree):
    polynomials, start, exact, _ = _case(ring, degree)
    options = NewtonOptions(max_iterations=_iterations(degree))
    for mode in ("staged", "vectorized"):
        system = PolynomialSystem(polynomials, mode=mode, cache=ScheduleCache())
        single = newton_power_series(system, start, options=options)
        _assert_within_bound(single.solution, exact, ring)
        for result in newton_power_series_batch(system, [start, start], options=options):
            _assert_within_bound(result.solution, exact, ring)


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("ring", ["dd", "qd"])
def test_fraction_newton_reproduces_exact_series(ring, degree):
    """The oracle is the fixed point of exact Newton: ``Fraction`` Newton
    through the scalar solver lands on it exactly."""
    _, _, exact, exact_polynomials = _case(ring, degree)
    start = [PowerSeries.constant(series.coefficients[0], degree) for series in exact]
    system = PolynomialSystem(exact_polynomials, mode="staged", cache=ScheduleCache())
    result = newton_power_series(system, start, options=NewtonOptions(max_iterations=_iterations(degree)))
    assert result.converged
    assert result.solution == exact


# --------------------------------------------------------------------- #
# edges
# --------------------------------------------------------------------- #
def _double_root_system(ring: str, degree: int):
    """``(x1 - 1)^2 (x1 - 2) + t/4`` and ``4 x2 - x1 + t/8``: a simple root
    at ``(2, 1/2)`` and a double one at ``(1, 1/4)``, where the lead matrix
    ``[[0, 0], [-1, 4]]`` is singular in its second column."""
    complex_ring = RINGS[ring][1]

    def convert(value):
        return _to_ring(_Gaussian(value) if complex_ring else Fraction(value), ring)

    def series(*values):
        return PowerSeries([convert(v) for v in values] + [convert(0)] * (degree + 1 - len(values)))

    cubic = Polynomial(
        2,
        series(-2, Fraction(1, 4)),
        [
            Monomial.make(series(1), {0: 3}),
            Monomial.make(series(-4), {0: 2}),
            Monomial.make(series(5), {0: 1}),
        ],
    )
    linear = Polynomial(
        2,
        series(0, Fraction(1, 8)),
        [Monomial.make(series(4), {1: 1}), Monomial.make(series(-1), {0: 1})],
    )
    starts = [[series(x) for x in point] for point in ((2, Fraction(1, 2)), (1, Fraction(1, 4)))]
    return [cubic, linear], starts


@pytest.mark.parametrize(
    "ring, mode",
    [("dd", mode) for mode in REAL_MODES] + [("complex_dd", mode) for mode in COMPLEX_MODES],
)
def test_double_root_raises_naming_the_lane(ring, mode):
    polynomials, (simple, double) = _double_root_system(ring, degree=2)
    system = PolynomialSystem(polynomials, mode=mode, cache=ScheduleCache())
    options = NewtonOptions(max_iterations=_iterations(2))
    with pytest.raises(SingularSystemError) as info:
        newton_power_series_batch(system, [simple, double], options=options)
    assert info.value.instances == [1]
    with pytest.raises(SingularSystemError) as info:
        newton_power_series(system, double, options=options)
    assert info.value.instances == [0]
    (healthy,) = newton_power_series_batch(system, [simple], options=options)
    assert healthy.converged or healthy.final_residual < 1.0e-28
