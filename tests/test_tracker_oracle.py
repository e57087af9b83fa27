"""An exact oracle for the path tracker: tracked points against closed-form paths.

The family ``f_t(x) = (x - r(t)) (x - s(t))`` has the two solution paths
``x = r(t)`` and ``x = s(t)``, for polynomials ``r`` and ``s`` with rational,
non-dyadic coefficients that stay apart on ``[0, 1]``.  The local system at
``t0`` (a double, hence a rational) is built in exact rationals — the Taylor
expansions of ``-(r + s)`` and ``r s`` around ``t0`` — and only then rounded
to the working ring, so no root is a double-double or quad-double number.
``r`` and ``s`` have a higher degree than the tracker's series, so every
prediction is off by its truncation and every step needs Newton's method.

:func:`repro.track_paths` (adaptive steps, no precision ladder) tracks both
paths in the ``vectorized`` and the ``staged`` mode.  An accepted point
``x`` has a Newton residual ``|f_t(x)| <= tolerance``, computed in the
working ring.  With ``rho = tolerance + 2**(-52*limbs + 20)`` covering the
rounding of the coefficients and of the residual itself,
``|x - r| |x - s| <= rho`` puts ``x`` within ``2 rho / |r(t) - s(t)|`` of
one root, whenever that bound is below half the separation.  Every accepted
point must meet the bound against ``r(t)`` or ``s(t)`` evaluated exactly,
and every path must end on its own root.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from repro import track_paths
from repro.circuits import Monomial, Polynomial
from repro.homotopy import PolynomialSystem, RetryPolicy, TrackOptions
from repro.md import MultiDouble
from repro.series import PowerSeries

#: Coefficients of r(t) and s(t), constant term first.  r runs from 1 to
#: 1.18..., s from -1 to -0.52...: they stay more than 1.7 apart on [0, 1].
R = (Fraction(1), Fraction(1, 3), Fraction(-1, 5), Fraction(1, 7), Fraction(0), Fraction(-1, 11))
S = (Fraction(-1), Fraction(2, 7), Fraction(1, 9), Fraction(0), Fraction(1, 13))

#: The Newton tolerance per limb count: a few thousand units in the last
#: place of the constant term.
TOLERANCE = {2: 1.0e-28, 4: 1.0e-60}
DEGREE = 4


def _value(coefficients, t: Fraction) -> Fraction:
    return sum(c * t**j for j, c in enumerate(coefficients))


def _taylor(coefficients, t0: Fraction, degree: int) -> list[Fraction]:
    """The coefficients of ``p(t0 + u)`` in ``u``, truncated at ``degree``."""
    shifted = [Fraction(0)] * (degree + 1)
    for j, c in enumerate(coefficients):
        for k in range(min(j, degree) + 1):
            shifted[k] += c * comb(j, k) * t0 ** (j - k)
    return shifted


def _family(limbs: int):
    """The local system ``x^2 - (r + s) x + r s`` around ``t0``, in ``limbs``."""

    def series(values):
        return PowerSeries([MultiDouble.from_fraction(v, limbs) for v in values])

    def build(t0: float, degree: int) -> PolynomialSystem:
        r, s = (_taylor(p, Fraction(t0), degree) for p in (R, S))
        product = [sum(r[i] * s[k - i] for i in range(k + 1)) for k in range(degree + 1)]
        one = [Fraction(1)] + [Fraction(0)] * degree
        polynomial = Polynomial(
            1,
            series(product),
            [
                Monomial.make(series(one), {0: 2}),
                Monomial.make(series([-(a + b) for a, b in zip(r, s)]), {0: 1}),
            ],
        )
        return PolynomialSystem([polynomial])

    return build


@pytest.mark.parametrize("limbs", (2, 4), ids=("dd", "qd"))
@pytest.mark.parametrize("mode", ("vectorized", "staged"))
def test_tracked_points_lie_on_the_exact_paths(mode, limbs):
    tolerance = TOLERANCE[limbs]
    options = TrackOptions().override(
        degree=DEGREE,
        mode=mode,
        newton={"max_iterations": 8, "tolerance": tolerance},
        retry=RetryPolicy(precision_ladder=()),
    )
    paths = (R, S)
    starts = [[MultiDouble.from_fraction(p[0], limbs)] for p in paths]
    report = track_paths(_family(limbs), starts, options)
    rho = Fraction(tolerance) + Fraction(2) ** (-52 * limbs + 20)
    for own, other, status, result in zip(paths, paths[::-1], report.statuses, report.results):
        assert status.converged, status
        assert result.points[-1].t == 1.0
        for point in result.points:
            t = Fraction(point.t)
            x = point.values[0].to_fraction()
            roots = (_value(own, t), _value(other, t))
            separation = abs(roots[0] - roots[1])
            bound = 2 * rho / separation
            assert bound < separation / 2
            assert min(abs(x - root) for root in roots) <= bound, (point.t, float(bound))
        assert abs(x - roots[0]) <= bound
