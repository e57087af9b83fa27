"""Tests for series linear algebra, Newton on power series and path tracking."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import pytest

from repro.circuits import parse_polynomial
from repro.circuits.reference import EvaluationResult
from repro.errors import ConvergenceError, SingularSystemError, StagingError
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    TaylorPathTracker,
    TrackOptions,
    lu_solve,
    matrix_vector_product,
    newton_power_series,
    newton_power_series_batch,
    residual_norm,
)
from repro.homotopy.newton import refine_lanes
from repro.md import MultiDouble
from repro.series import PowerSeries, random_fraction_series


def _tracker(builder, **overrides) -> TaylorPathTracker:
    """A tracker whose options layer ``overrides`` onto the defaults."""
    return TaylorPathTracker(builder, options=TrackOptions().override(**overrides))


def fseries(values):
    return PowerSeries([Fraction(v) for v in values])


class TestLinearSolve:
    def test_identity_system(self, rng):
        b = [random_fraction_series(3, rng) for _ in range(2)]
        identity = [
            [PowerSeries.one(3, Fraction(1)), PowerSeries.zero(3, Fraction(1))],
            [PowerSeries.zero(3, Fraction(1)), PowerSeries.one(3, Fraction(1))],
        ]
        x = lu_solve(identity, b)
        assert x[0] == b[0] and x[1] == b[1]

    def test_random_system_roundtrip(self, rng):
        n, degree = 3, 4
        matrix = [[random_fraction_series(degree, rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if matrix[i][i].coefficients[0] == 0:
                matrix[i][i].coefficients[0] = Fraction(2)
        solution = [random_fraction_series(degree, rng) for _ in range(n)]
        rhs = matrix_vector_product(matrix, solution)
        recovered = lu_solve(matrix, rhs)
        for got, expected in zip(recovered, solution):
            assert got == expected

    def test_pivoting_handles_zero_leading_entry(self, rng):
        degree = 2
        matrix = [
            [PowerSeries.zero(degree, Fraction(1)), PowerSeries.one(degree, Fraction(1))],
            [PowerSeries.one(degree, Fraction(1)), PowerSeries.zero(degree, Fraction(1))],
        ]
        rhs = [fseries([1, 2, 3]), fseries([4, 5, 6])]
        x = lu_solve(matrix, rhs)
        assert x[0] == rhs[1]
        assert x[1] == rhs[0]

    def test_singular_matrix_raises(self):
        degree = 1
        zero = PowerSeries.zero(degree, Fraction(1))
        with pytest.raises(SingularSystemError):
            lu_solve([[zero, zero], [zero, zero]], [zero, zero])

    def test_non_square_rejected(self):
        # A non-square input is a usage error, not a singular system.
        zero = PowerSeries.zero(1, Fraction(1))
        with pytest.raises(ValueError):
            lu_solve([[zero, zero]], [zero])

    def test_pivot_inverted_once_per_column(self, rng, monkeypatch):
        """Elimination and back substitution share one inverse per pivot.

        An earlier version inverted every pivot series twice — once for the
        row updates and once more during back substitution.  The inversion
        is the expensive part of the solve (a full recursion over the
        coefficients), so the count is pinned at exactly ``n``.
        """
        n, degree = 4, 3
        matrix = [[random_fraction_series(degree, rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if matrix[i][i].coefficients[0] == 0:
                matrix[i][i].coefficients[0] = Fraction(2)
        rhs = [random_fraction_series(degree, rng) for _ in range(n)]
        calls = {"count": 0}
        original = PowerSeries.inverse

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(PowerSeries, "inverse", counting)
        lu_solve(matrix, rhs)
        assert calls["count"] == n

    def test_residual_norm(self):
        assert residual_norm([fseries([0, 0]), fseries([0, 0])]) == 0.0
        assert residual_norm([fseries([0, 3]), fseries([1, 0])]) == 3.0


class TestPolynomialSystem:
    def test_dimension_checks(self):
        p = parse_polynomial("x1*x2", degree=2)
        q = parse_polynomial("x1", dimension=1, degree=2)
        with pytest.raises(Exception):
            PolynomialSystem([p, q])
        with pytest.raises(Exception):
            PolynomialSystem([])

    def test_evaluate_and_jacobian(self, rng):
        degree = 3
        p = parse_polynomial("x1*x2 + 1", degree=degree, kind="fraction")
        q = parse_polynomial("x1 - x2", degree=degree, kind="fraction")
        system = PolynomialSystem([p, q])
        assert system.is_square
        z = [random_fraction_series(degree, rng) for _ in range(2)]
        results = system.evaluate(z)
        jacobian = system.jacobian(results)
        assert jacobian[0][0] == z[1]
        assert jacobian[0][1] == z[0]
        assert results[1].value == z[0] - z[1]
        assert system.residual(z)[0] == z[0] * z[1] + 1


class TestNewton:
    def _sqrt_system(self, degree, shift=1.0):
        """x^2 - (shift + t) = 0, solution sqrt(shift + t)."""
        p = parse_polynomial("x1^2", degree=degree, kind="float")
        p.constant.coefficients[0] = -shift
        if degree >= 1:
            p.constant.coefficients[1] = -1.0
        return PolynomialSystem([p])

    def test_recovers_sqrt_series(self):
        degree = 10
        system = self._sqrt_system(degree)
        result = newton_power_series(
            system,
            [PowerSeries.constant(1.0, degree)],
            options=NewtonOptions(max_iterations=6, tolerance=1e-14),
        )
        assert result.converged
        coefficients = result.solution[0].coefficients
        # Taylor coefficients of sqrt(1 + t): C(1/2, k)
        expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
        for got, exact in zip(coefficients[:5], expected):
            assert got == pytest.approx(exact, abs=1e-12)

    def test_quadratic_growth_of_correct_coefficients(self):
        """Each Newton step doubles the number of correct series coefficients."""
        degree = 15
        system = self._sqrt_system(degree)
        exact = newton_power_series(
            system,
            [PowerSeries.constant(1.0, degree)],
            options=NewtonOptions(max_iterations=8, tolerance=0.0),
        ).solution[0]
        correct_counts = []
        for iterations in (1, 2, 3, 4):
            approx = newton_power_series(
                system,
                [PowerSeries.constant(1.0, degree)],
                options=NewtonOptions(max_iterations=iterations, tolerance=0.0),
            ).solution[0]
            correct = 0
            for a, b in zip(approx.coefficients, exact.coefficients):
                if abs(a - b) < 1e-12:
                    correct += 1
                else:
                    break
            correct_counts.append(correct)
        assert correct_counts[0] >= 2
        assert correct_counts[1] >= 3
        assert correct_counts[2] >= 7
        assert correct_counts[3] >= 15
        assert correct_counts == sorted(correct_counts)

    def test_two_by_two_system(self):
        """x1 + x2 = 3 + t, x1 * x2 = 2 + t  =>  the branches 2 + t and 1."""
        degree = 6
        p = parse_polynomial("x1 + x2", degree=degree, kind="float")
        p.constant.coefficients[0] = -3.0
        p.constant.coefficients[1] = -1.0
        q = parse_polynomial("x1*x2", degree=degree, kind="float")
        q.constant.coefficients[0] = -2.0
        q.constant.coefficients[1] = -1.0
        system = PolynomialSystem([p, q])
        start = [PowerSeries.constant(2.1, degree), PowerSeries.constant(0.9, degree)]
        result = newton_power_series(
            system, start, options=NewtonOptions(max_iterations=12, tolerance=1e-12)
        )
        assert result.converged
        total = result.solution[0] + result.solution[1]
        product = result.solution[0] * result.solution[1]
        assert total.coefficients[0] == pytest.approx(3.0, abs=1e-10)
        assert total.coefficients[1] == pytest.approx(1.0, abs=1e-10)
        assert product.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert product.coefficients[1] == pytest.approx(1.0, abs=1e-10)

    def test_non_square_rejected(self):
        p = parse_polynomial("x1*x2", degree=2, kind="float")
        with pytest.raises(ConvergenceError):
            newton_power_series(PolynomialSystem([p]), [PowerSeries.constant(1.0, 2)] * 2)

    def test_raise_on_failure(self):
        degree = 4
        system = self._sqrt_system(degree)
        with pytest.raises(ConvergenceError):
            newton_power_series(
                system,
                [PowerSeries.constant(1.0, degree)],
                options=NewtonOptions(
                    max_iterations=1, tolerance=1e-30, raise_on_failure=True
                ),
            )

    def test_mode_and_solver_apply(self):
        """``newton_power_series`` honours ``options.mode`` and
        ``options.solver``: it is lane 0 of ``newton_power_series_batch``."""
        degree = 6
        system = self._sqrt_system(degree).with_mode("staged")
        start = [PowerSeries.constant(1.2, degree)]
        with pytest.raises(StagingError):
            newton_power_series(system, start, options=NewtonOptions(solver="batched"))
        options = NewtonOptions(mode="vectorized", solver="batched", tolerance=1e-14)
        single = newton_power_series(system, start, options=options)
        lane = newton_power_series_batch(system, [start], options=options)[0]
        assert single.converged and lane.converged
        assert single.steps == lane.steps
        assert single.solution[0].coefficients == lane.solution[0].coefficients

    def test_step_diagnostics_recorded(self):
        degree = 6
        system = self._sqrt_system(degree)
        result = newton_power_series(
            system, [PowerSeries.constant(1.0, degree)], options=NewtonOptions(max_iterations=4)
        )
        assert result.iterations >= 1
        assert result.steps[0].residual >= result.final_residual


class TestBatchedNewton:
    @staticmethod
    def _sqrt_system(degree, shift=1.0):
        p = parse_polynomial("x1^2", degree=degree, kind="float")
        p.constant.coefficients[0] = -shift
        if degree >= 1:
            p.constant.coefficients[1] = -1.0
        return PolynomialSystem([p])

    def test_batch_matches_scalar_per_instance(self):
        degree = 10
        system = self._sqrt_system(degree)
        starts = [
            [PowerSeries.constant(1.0, degree)],
            [PowerSeries.constant(1.5, degree)],
            [PowerSeries.constant(0.7, degree)],
        ]
        options = NewtonOptions(max_iterations=6, tolerance=1e-14)
        batch = newton_power_series_batch(system, starts, options=options)
        for start, batched in zip(starts, batch):
            scalar = newton_power_series(system, start, options=options)
            assert batched.converged == scalar.converged
            assert batched.iterations == scalar.iterations
            for mine, theirs in zip(batched.solution, scalar.solution):
                assert mine.max_abs_error(theirs) == 0.0
            assert [(s.residual, s.correction) for s in batched.steps] == [
                (s.residual, s.correction) for s in scalar.steps
            ]

    def test_mixed_convergence_and_raise(self):
        degree = 6
        system = self._sqrt_system(degree)
        starts = [[PowerSeries.constant(1.0, degree)], [PowerSeries.constant(1.0, degree)]]
        options = NewtonOptions(max_iterations=1, tolerance=1e-30)
        results = newton_power_series_batch(system, starts, options=options)
        assert not any(result.converged for result in results)
        with pytest.raises(ConvergenceError):
            newton_power_series_batch(
                system, starts, options=options.override(raise_on_failure=True)
            )

    @pytest.mark.parametrize("mode", ["vectorized", "staged"])
    def test_every_singular_instance_is_named(self, mode):
        """A singular instance stops only itself; once every instance is
        done ``newton_power_series_batch`` raises, naming each singular one."""
        degree = 4
        system = self._sqrt_system(degree)
        starts = [[PowerSeries.constant(x, degree)] for x in (0.0, 0.0, 1.0)]
        with pytest.raises(SingularSystemError) as caught:
            newton_power_series_batch(system, starts, options=NewtonOptions(mode=mode))
        assert caught.value.instances == [0, 1]

    def test_non_square_rejected(self):
        p = parse_polynomial("x1*x2", degree=2, kind="float")
        with pytest.raises(ConvergenceError):
            newton_power_series_batch(
                PolynomialSystem([p]), [[PowerSeries.constant(1.0, 2)] * 2]
            )


class TestRefineLanes:
    """The Newton kernel refines only the lanes it is given, in place, and
    leaves the context unmasked on every exit."""

    def test_refines_given_lanes_and_clears_the_mask(self, monkeypatch):
        import repro.homotopy.newton as newton_module

        degree = 6
        system = TestBatchedNewton._sqrt_system(degree).with_mode("vectorized")
        context = system.make_context(3)
        options = NewtonOptions(tolerance=1e-14)
        starts = (1.0, 1.5, 0.7)
        solutions = [[PowerSeries.constant(x, degree)] for x in starts]
        idle = solutions[1]
        results = refine_lanes(context, solutions, [2, 0], options)
        assert context.active is None
        assert solutions[1] is idle
        for lane, result in zip([2, 0], results):
            alone = newton_power_series_batch(
                system, [[PowerSeries.constant(starts[lane], degree)]], options=options
            )[0]
            assert result.solution is solutions[lane]
            assert result.converged and result.steps == alone.steps
            assert result.solution[0].coefficients == alone.solution[0].coefficients

        def failing(*args, **kwargs):
            raise RuntimeError("injected solve failure")

        monkeypatch.setattr(newton_module, "solve_packed", failing)
        fresh = [[PowerSeries.constant(x, degree)] for x in starts]
        with pytest.raises(RuntimeError, match="injected"):
            refine_lanes(context, fresh, [0, 2], options)
        assert context.active is None


class TestNonFiniteNorms:
    """Norms fold like ``np.max``: any NaN gives NaN, otherwise an infinity
    gives inf — a diverged value never reads as small."""

    def test_residual_norm(self):
        inf, nan = math.inf, math.nan
        assert residual_norm([PowerSeries([inf, 0.0])]) == inf
        assert math.isnan(residual_norm([PowerSeries([nan, 0.0])]))
        assert math.isnan(residual_norm([PowerSeries([1.0, 2.0]), PowerSeries([0.0, nan])]))
        assert math.isnan(residual_norm([PowerSeries([inf, 0.0]), PowerSeries([nan, 0.0])]))
        assert residual_norm([PowerSeries([1.0, -3.0]), PowerSeries([-inf, 0.0])]) == inf
        assert residual_norm([PowerSeries([1.0, -3.0])]) == 3.0

    def test_max_abs_error(self):
        finite = PowerSeries([1.0, 2.0])
        assert math.isnan(PowerSeries([1.0, math.nan]).max_abs_error(finite))
        assert math.isnan(finite.max_abs_error(PowerSeries([math.nan, 2.0])))
        assert PowerSeries([math.inf, 2.0]).max_abs_error(finite) == math.inf
        assert PowerSeries([1.0, 2.5]).max_abs_error(finite) == 0.5

    def test_max_difference(self):
        def result(value, gradient):
            return EvaluationResult(value=PowerSeries(value), gradient=[PowerSeries(gradient)])

        finite = result([1.0, 2.0], [3.0, 4.0])
        assert finite.max_difference(finite) == 0.0
        assert math.isnan(finite.max_difference(result([1.0, 2.0], [3.0, math.nan])))
        assert math.isnan(result([math.nan, 2.0], [3.0, 4.0]).max_difference(finite))
        assert finite.max_difference(result([1.0, 2.0], [math.inf, 4.0])) == math.inf

    def test_diverged_newton_reads_the_same_in_both_modes(self):
        """From x = 1e200, x^2 overflows: a staged refinement used to read
        the inf residual as 0.0 and report convergence after one step."""
        degree = 3
        system = PolynomialSystem([parse_polynomial("x1^2 - 2", degree=degree, kind="float")])
        starts = [[PowerSeries.constant(1e200, degree)]]
        runs = {}
        for mode in ("staged", "vectorized"):
            options = NewtonOptions(mode=mode, max_iterations=3)
            runs[mode] = newton_power_series_batch(system, starts, options=options)[0]
        staged, vectorized = runs["staged"], runs["vectorized"]
        assert not staged.converged and not vectorized.converged
        assert staged.steps[0].residual == math.inf

        def steps(result):
            return [(s.iteration, repr(s.residual), repr(s.correction)) for s in result.steps]

        assert steps(staged) == steps(vectorized)
        assert len(staged.steps) == 3

    def test_diverged_lane_does_not_fail_its_batch(self):
        """With every warning an error, a vectorized batch with a lane that
        overflows finishes: the healthy lane converges as it does alone."""
        degree = 3
        polynomial = parse_polynomial("x1^2 - 2", degree=degree, kind="md", precision=2)
        system = PolynomialSystem([polynomial], mode="vectorized")
        starts = [
            [PowerSeries.constant(MultiDouble.from_float(value, 2), degree)]
            for value in (1.25, 1.0e200)
        ]
        options = NewtonOptions(max_iterations=8, tolerance=1.0e-28)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            healthy, diverged = newton_power_series_batch(system, starts, options=options)
            (alone,) = newton_power_series_batch(system, starts[:1], options=options)
        assert healthy.converged and not diverged.converged
        assert healthy.iterations == alone.iterations
        assert [c.limbs for c in healthy.solution[0].coefficients] == [
            c.limbs for c in alone.solution[0].coefficients
        ]

    def test_diverged_multidouble_newton_fails_in_both_modes(self):
        """From x = 1e200 a double-double x^2 - 2 gives NaN residuals.  The
        staged solver used to read the NaN pivot as zero (a NaN multidouble
        compared equal to 0) and raise ZeroDivisionError from the series
        inverse."""
        degree = 3
        polynomial = parse_polynomial("x1^2 - 2", degree=degree, kind="md", precision=2)
        system = PolynomialSystem([polynomial])
        starts = [[PowerSeries.constant(MultiDouble.from_float(1e200, 2), degree)]]
        for mode in ("staged", "vectorized"):
            options = NewtonOptions(mode=mode, max_iterations=3)
            (result,) = newton_power_series_batch(system, starts, options=options)
            assert not result.converged
            assert math.isnan(result.final_residual)
            assert all(math.isnan(step.residual) for step in result.steps)


class TestPathTracker:
    @staticmethod
    def _builder(t0: float, degree: int) -> PolynomialSystem:
        p = parse_polynomial("x1^2", degree=degree, kind="float")
        p.constant.coefficients[0] = -(1.0 + t0)
        if degree >= 1:
            p.constant.coefficients[1] = -1.0
        return PolynomialSystem([p])

    def test_tracks_sqrt_path(self):
        tracker = _tracker(self._builder, degree=6, step=0.25)
        result = tracker.track([1.0], 0.0, 1.0)
        assert result.success
        assert result.final_values[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert len(result.points) == 5  # t = 0, .25, .5, .75, 1.0
        for point in result.points:
            assert point.values[0] == pytest.approx(math.sqrt(1.0 + point.t), abs=1e-8)
            assert point.residual <= 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            _tracker(self._builder, degree=0)
        with pytest.raises(ValueError):
            _tracker(self._builder, step=0.0)

    def test_partial_range(self):
        tracker = _tracker(self._builder, degree=5, step=0.5)
        result = tracker.track([1.0], 0.0, 0.5)
        assert result.success
        assert result.final_values[0] == pytest.approx(math.sqrt(1.5), abs=1e-9)

    def test_track_many_matches_single_path(self):
        tracker = _tracker(self._builder, degree=6, step=0.25)
        single = tracker.track([1.0], 0.0, 1.0)
        many = tracker.track_many([[1.0], [-1.0]], 0.0, 1.0)
        assert all(result.success for result in many)
        # Path 0 is the same sqrt branch as the scalar tracker...
        assert len(many[0].points) == len(single.points)
        for mine, theirs in zip(many[0].points, single.points):
            assert mine.t == theirs.t
            assert mine.values == theirs.values
            assert mine.newton_iterations == theirs.newton_iterations
        # ...and path 1 follows the negative branch in lockstep.
        assert many[1].final_values[0] == pytest.approx(-math.sqrt(2.0), abs=1e-9)
        for point in many[1].points:
            assert point.values[0] == pytest.approx(-math.sqrt(1.0 + point.t), abs=1e-8)

    def test_no_drift_micro_step(self):
        """Step 0.1 over [0, 1] gives exactly the 11 grid points.

        Accumulating ``t += h`` in doubles lands at 0.9999999999999999 after
        ten steps; without snapping onto ``t_end`` the tracker used to emit a
        spurious twelfth micro-step at that off-grid parameter value.
        """
        tracker = _tracker(self._builder, degree=6, step=0.1)
        result = tracker.track([1.0], 0.0, 1.0)
        assert result.success
        assert len(result.points) == 11
        assert result.points[-1].t == 1.0
        many = tracker.track_many([[1.0]], 0.0, 1.0)
        assert len(many[0].points) == 11
        assert many[0].points[-1].t == 1.0

    @staticmethod
    def _fraction_builder(t0: float, degree: int) -> PolynomialSystem:
        # x1 - (1 + t) = 0 around t0: the exact solution is 1 + t0 + s.
        p = parse_polynomial("x1", degree=degree, kind="fraction")
        p.constant.coefficients[0] = -(Fraction(1) + Fraction(t0))
        if degree >= 1:
            p.constant.coefficients[1] = Fraction(-1)
        return PolynomialSystem([p])

    def test_fraction_ring_stays_exact(self):
        """Advancing the series keeps Fraction coefficients exact.

        ``_promote_step`` used to lift the step into the ring as
        ``coefficient * 0 + h``, which demotes a Fraction ring to float; the
        whole track then silently ran in doubles.  The linear path
        x = 1 + t over [0, 1] must stay rational and exact at every point.
        """
        tracker = _tracker(self._fraction_builder, degree=3, step=0.25)
        result = tracker.track([Fraction(1)], 0.0, 1.0)
        assert result.success
        assert len(result.points) == 5
        for point in result.points:
            value = point.values[0]
            assert isinstance(value, Fraction)
            assert value == Fraction(1) + Fraction(point.t)
        assert result.final_values[0] == Fraction(2)

    def test_track_many_drops_failing_paths(self):
        tracker = _tracker(
            self._builder, degree=6, step=0.25, newton_iterations=6, tolerance=1e-10
        )
        # A start far from any solution branch fails; the good path survives.
        results = tracker.track_many([[1.0], [250.0]], 0.0, 1.0)
        assert results[0].success
        assert not results[1].success
        assert results[0].final_values[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
