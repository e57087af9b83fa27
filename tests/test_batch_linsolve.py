"""Tests for the batched tensor linear solver and the resident Newton path.

The contract under test is the PR's headline: eliminating all batch
instances at once on packed limb tensors must reproduce the scalar
:func:`repro.homotopy.lu_solve` **bit for bit** at double-double precision
(real and complex, pivot swaps included), detect singular instances
per batch position, and let a resident Newton run never touch the scalar
solver at all.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.testpolys import make_polynomial_from_structure
from repro.core import ScheduleCache
from repro.errors import SingularSystemError, StagingError
from repro.gpusim.timing import TimingModel
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    batch_lu_solve,
    batch_lu_solve_tensor,
    lu_solve,
    matrix_vector_product,
    newton_power_series_batch,
)
from repro.homotopy.batch_linsolve import series_inverse_rows, series_inverse_rows_complex
from repro.md import ComplexMD, MultiDouble
from repro.md.cvecops import cmd_add_rows, cmd_mul_rows, cmd_reciprocal_rows
from repro.md.renorm import renormalize
from repro.md.vecops import md_add_rows, md_mul_rows, md_reciprocal_rows
from repro.md.vrenorm import vec_renormalize_exact
from repro.series import PowerSeries, random_series_vector

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DEGREE = 3


def _random_system(kind: str, n: int, degree: int, rng, precision=2):
    """A random well-conditioned series system (diagonal pushed off zero)."""
    matrix = [random_series_vector(n, degree, kind, precision, rng) for _ in range(n)]
    for i in range(n):
        constant = matrix[i][i].coefficients[0]
        bump = constant * 0 + 2
        matrix[i][i] = matrix[i][i] + PowerSeries.constant(bump, degree)
    rhs = random_series_vector(n, degree, kind, precision, rng)
    return matrix, rhs


def _swap_system(kind: str, n: int, degree: int, rng, precision=2):
    """A system whose leading entries vanish, forcing pivot swaps."""
    matrix, rhs = _random_system(kind, n, degree, rng, precision)
    for column in range(n - 1):
        zero = matrix[column][column].coefficients[0] * 0
        matrix[column][column] = PowerSeries.constant(zero, degree)
    return matrix, rhs


def _limb_signature(series: PowerSeries):
    """A hashable bit-level signature of one series (limb tuples, reprs)."""
    out = []
    for value in series.coefficients:
        if isinstance(value, ComplexMD):
            out.append((value.real.limbs, value.imag.limbs))
        elif isinstance(value, MultiDouble):
            out.append(value.limbs)
        else:
            out.append(repr(value))
    return tuple(out)


def _max_roundtrip_error(matrix, rhs, solution) -> float:
    product = matrix_vector_product(matrix, solution)
    return max(got.max_abs_error(want) for got, want in zip(product, rhs))


# --------------------------------------------------------------------- #
# scalar solver: hypothesis round trips and the inversion count
# --------------------------------------------------------------------- #
class TestScalarRoundTrip:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind_precision=st.sampled_from(
            [("float", 2), ("complex", 2), ("md", 2), ("md", 4), ("complex_md", 2)]
        ),
    )
    def test_solve_round_trips(self, seed, kind_precision):
        """``A @ lu_solve(A, b)`` recovers ``b`` across the coefficient rings."""
        kind, precision = kind_precision
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        matrix, rhs = _random_system(kind, n, DEGREE, rng, precision)
        solution = lu_solve(matrix, rhs)
        # Well away from singularity the residual should be near the ring's
        # rounding floor; 1e-8 leaves room for ill-conditioned draws.
        assert _max_roundtrip_error(matrix, rhs, solution) < 1.0e-8

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batched_solve_round_trips(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        batch = rng.randint(1, 3)
        systems = [_random_system("md", n, DEGREE, rng) for _ in range(batch)]
        solutions = batch_lu_solve([m for m, _ in systems], [r for _, r in systems])
        for (matrix, rhs), solution in zip(systems, solutions):
            assert _max_roundtrip_error(matrix, rhs, solution) < 1.0e-8


# --------------------------------------------------------------------- #
# batched vs scalar parity
# --------------------------------------------------------------------- #
#: Solve shapes pinned against the scalar oracle, as ``(n, degree, batch)``:
#: a 3x3 system, the solves of the perfbench ``newton``, ``fleet`` and
#: ``service`` workloads, and degree 0.  The newton shape solves one instance
#: because the scalar oracle takes about 0.6 s (real) and 3.3 s (complex)
#: per 6x6 degree-15 double-double instance.
PARITY_SHAPES = {
    "": (3, DEGREE, 5),
    "newton": (6, 15, 1),
    "fleet": (1, 8, 5),
    "service": (2, 4, 5),
    "degree0": (3, 0, 5),
}

#: Known defect, older than the stacked products (the per-product loops
#: fail this case too): the complex reciprocal forms ``|b|^2`` with the
#: sweep renormalisation of :func:`repro.md.vecops.md_add_rows`.  For a
#: unit-circle pivot that sum lands just above 1.0, and the sweeps can round
#: its last limb one unit away from the scalar Shewchuk renormalisation (see
#: :mod:`repro.md.vrenorm`), which then moves the last limb of the solution.
NEAR_BINADE_RECIPROCAL = pytest.mark.xfail(
    strict=True,
    reason="complex reciprocal of a unit-circle pivot: sweep vs scalar renormalisation of |b|^2",
)

PARITY_CASES = [
    pytest.param(
        kind,
        swap,
        shape,
        id="-".join(filter(None, (name, "swap" if swap else "noswap", kind))),
        marks=NEAR_BINADE_RECIPROCAL if (name, swap, kind) == ("degree0", True, "complex_md") else (),
    )
    for name, shape in PARITY_SHAPES.items()
    for kind in ("md", "complex_md")
    for swap in (False, True)
]


class TestBatchedParity:
    """The batched eliminations must match the scalar solver bit for bit."""

    @pytest.mark.parametrize("kind, swap, shape", PARITY_CASES)
    def test_bit_identical_at_double_double(self, rng, kind, swap, shape):
        n, degree, batch = shape
        make = _swap_system if swap else _random_system
        systems = [make(kind, n, degree, rng) for _ in range(batch)]
        batched = batch_lu_solve([m for m, _ in systems], [r for _, r in systems])
        for (matrix, rhs), got in zip(systems, batched):
            expected = lu_solve(matrix, rhs)
            for mine, theirs in zip(got, expected):
                assert _limb_signature(mine) == _limb_signature(theirs)

    def test_float_ring_bit_identical(self, rng):
        for n, degree, _ in PARITY_SHAPES.values():
            for make in (_random_system, _swap_system):
                systems = [make("float", n, degree, rng) for _ in range(4)]
                batched = batch_lu_solve(
                    [m for m, _ in systems], [r for _, r in systems]
                )
                for (matrix, rhs), got in zip(systems, batched):
                    for mine, theirs in zip(got, lu_solve(matrix, rhs)):
                        assert mine.max_abs_error(theirs) == 0.0

    def test_plain_complex_close(self, rng):
        # Plain-complex division goes through Smith's algorithm in Python but
        # the naive formula in the tensor; identical to a few ulps, not bits.
        n = 3
        matrix, rhs = _random_system("complex", n, DEGREE, rng)
        (batched,) = batch_lu_solve([matrix], [rhs])
        for mine, theirs in zip(batched, lu_solve(matrix, rhs)):
            assert mine.max_abs_error(theirs) < 1.0e-12

    def test_fraction_ring_falls_back_exactly(self, rng):
        from repro.series import random_fraction_series

        n = 3
        matrix = [[random_fraction_series(DEGREE, rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            matrix[i][i] = matrix[i][i] + PowerSeries.constant(Fraction(2), DEGREE)
        rhs = [random_fraction_series(DEGREE, rng) for _ in range(n)]
        (batched,) = batch_lu_solve([matrix], [rhs])
        assert batched == lu_solve(matrix, rhs)

    def test_singular_instances_reported_by_position(self, rng):
        n = 2
        good_matrix, good_rhs = _random_system("md", n, DEGREE, rng)
        zero = PowerSeries.zero(DEGREE, MultiDouble.from_float(0.0, 2))
        bad_matrix = [[zero, zero], [zero, zero]]
        with pytest.raises(SingularSystemError) as info:
            batch_lu_solve([good_matrix, bad_matrix], [good_rhs, good_rhs])
        assert info.value.instances == [1]

    def test_non_square_raises_value_error(self):
        zero = PowerSeries.zero(1, MultiDouble.from_float(0.0, 2))
        with pytest.raises(ValueError):
            batch_lu_solve([[[zero, zero]]], [[zero]])
        with pytest.raises(ValueError):
            batch_lu_solve_tensor(
                np.zeros((2, 1, 2, 3, 4)), np.zeros((2, 1, 2, 4)), 2
            )
        with pytest.raises(ValueError):
            batch_lu_solve_tensor(np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 4)), 2)


# --------------------------------------------------------------------- #
# stacked products: parity with the per-product loops, and call counts
# --------------------------------------------------------------------- #
def _loop_series_inverse_rows(c: np.ndarray, limbs: int) -> np.ndarray:
    """The reference recursion: one multiply per product ``c_j * b_(k-j)``."""
    limb_list = list(range(limbs))
    out = np.zeros_like(c)
    inv0 = md_reciprocal_rows([c[i, :, 0] for i in limb_list], limbs)
    for i in limb_list:
        out[i, :, 0] = inv0[i]
    for k in range(1, c.shape[2]):
        acc = md_mul_rows(
            [c[i, :, 1] for i in limb_list], [out[i, :, k - 1] for i in limb_list], limbs
        )
        for j in range(2, k + 1):
            term = md_mul_rows(
                [c[i, :, j] for i in limb_list],
                [out[i, :, k - j] for i in limb_list],
                limbs,
            )
            acc = md_add_rows(acc, term, limbs)
        coeff = md_mul_rows(inv0, acc, limbs)
        for i in limb_list:
            out[i, :, k] = -coeff[i]
    return out


def _loop_series_inverse_rows_complex(cr: np.ndarray, ci: np.ndarray, limbs: int):
    """The complex reference recursion, one complex multiply per product."""
    limb_list = list(range(limbs))
    out_r = np.zeros_like(cr)
    out_i = np.zeros_like(ci)
    inv0_r, inv0_i = cmd_reciprocal_rows(
        [cr[i, :, 0] for i in limb_list], [ci[i, :, 0] for i in limb_list], limbs
    )
    for i in limb_list:
        out_r[i, :, 0] = inv0_r[i]
        out_i[i, :, 0] = inv0_i[i]
    for k in range(1, cr.shape[2]):
        acc_r, acc_i = cmd_mul_rows(
            [cr[i, :, 1] for i in limb_list],
            [ci[i, :, 1] for i in limb_list],
            [out_r[i, :, k - 1] for i in limb_list],
            [out_i[i, :, k - 1] for i in limb_list],
            limbs,
        )
        for j in range(2, k + 1):
            term_r, term_i = cmd_mul_rows(
                [cr[i, :, j] for i in limb_list],
                [ci[i, :, j] for i in limb_list],
                [out_r[i, :, k - j] for i in limb_list],
                [out_i[i, :, k - j] for i in limb_list],
                limbs,
            )
            acc_r, acc_i = cmd_add_rows(acc_r, acc_i, term_r, term_i, limbs)
        coeff_r, coeff_i = cmd_mul_rows(inv0_r, inv0_i, acc_r, acc_i, limbs)
        for i in limb_list:
            out_r[i, :, k] = -coeff_r[i]
            out_i[i, :, k] = -coeff_i[i]
    return out_r, out_i


def _limb_planes(nprng, shape, limbs: int) -> np.ndarray:
    """A random ``(limbs, *shape)`` tensor; limb ``i`` sits ~53 i bits below
    the leading one, and the constant coefficients stay away from zero."""
    lead = nprng.standard_normal(shape)
    lead[..., 0] += np.copysign(2.0, lead[..., 0])
    rest = [lead * nprng.uniform(-1.0, 1.0, shape) * 2.0 ** (-53 * i) for i in range(1, limbs)]
    return np.stack([lead, *rest])


INVERSE_SHAPES = [(degree, batch) for degree in (0, 1, 2, 15) for batch in (1, 5)]


class TestStackedProducts:
    """The stacked inverse and back substitution replace per-product loops;
    every row operation is elementwise, so the bits must not move."""

    @pytest.mark.parametrize("limbs", [1, 2, 3, 4, 8])
    def test_inverse_matches_per_product_loop(self, nprng, limbs):
        for degree, batch in INVERSE_SHAPES:
            c = _limb_planes(nprng, (batch, degree + 1), limbs)
            np.testing.assert_array_equal(
                series_inverse_rows(c, limbs), _loop_series_inverse_rows(c, limbs)
            )

    @pytest.mark.parametrize("limbs", [1, 2, 3, 4, 8])
    def test_complex_inverse_matches_per_product_loop(self, nprng, limbs):
        for degree, batch in INVERSE_SHAPES:
            cr = _limb_planes(nprng, (batch, degree + 1), limbs)
            ci = _limb_planes(nprng, (batch, degree + 1), limbs)
            got = series_inverse_rows_complex(cr, ci, limbs)
            expected = _loop_series_inverse_rows_complex(cr, ci, limbs)
            for mine, theirs in zip(got, expected):
                np.testing.assert_array_equal(mine, theirs)

    @pytest.mark.parametrize(
        "n, degree", [(6, 15), (1, 8), (2, 4), (3, 0)], ids=["newton", "fleet", "service", "degree0"]
    )
    def test_row_op_calls_follow_closed_forms(self, nprng, monkeypatch, n, degree):
        """One multiply per inverse coefficient, one convolution per
        back-substitution row, and one multiply per convolution (every layer
        here fits the convolution budget).  For dimension n and degree d:
        2dn + (4n-3) multiplies, n d(d-1)/2 + (d+1)(4n-3) additions and
        (n-1) + n(n-1)/2 subtractions; 201, 966 and 20 at the newton shape,
        where one multiply per convolution pass made 516, 966 and 20 and the
        per-product loops 1,306, 1,126 and 20."""
        import repro.core.tensor as tensor_module
        import repro.homotopy.batch_linsolve as solver_module

        calls = dict.fromkeys(("md_mul_rows", "md_add_rows", "md_sub_rows"), 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in (tensor_module, solver_module):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        limbs, width = 2, degree + 1
        matrix = _limb_planes(nprng, (2, n, n, width), limbs)
        for i in range(n):
            matrix[0, :, i, i, 0] += 8.0 * np.sign(matrix[0, :, i, i, 0])
        batch_lu_solve_tensor(matrix, _limb_planes(nprng, (2, n, width), limbs), limbs)
        d, convolutions = degree, 4 * n - 3
        assert calls == {
            "md_mul_rows": 2 * d * n + convolutions,
            "md_add_rows": n * d * (d - 1) // 2 + (d + 1) * convolutions,
            "md_sub_rows": (n - 1) + n * (n - 1) // 2,
        }


# --------------------------------------------------------------------- #
# the exact vectorised renormalisation behind the batched division
# --------------------------------------------------------------------- #
class TestExactRenormalize:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        limbs=st.sampled_from([2, 3, 4]),
    )
    def test_matches_scalar_shewchuk(self, seed, limbs):
        """Elementwise renormalisation replays the scalar one bit for bit.

        Includes exact zeros among the terms: zero *terms* are dropped by the
        scalar algorithm before distillation, which the vector form must
        reproduce per lane.
        """
        rng = random.Random(seed)
        lanes = 8
        n_terms = rng.randint(1, 2 * limbs + 2)
        columns = []
        for _ in range(lanes):
            terms = []
            for _ in range(n_terms):
                if rng.random() < 0.2:
                    terms.append(0.0)
                else:
                    terms.append(rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 3))
            columns.append(terms)
        arrays = [
            np.array([columns[lane][t] for lane in range(lanes)])
            for t in range(n_terms)
        ]
        out = vec_renormalize_exact(arrays, limbs)
        for lane in range(lanes):
            expected = renormalize([columns[lane][t] for t in range(n_terms)], limbs)
            got = tuple(float(component[lane]) for component in out)
            assert got == tuple(expected)


# --------------------------------------------------------------------- #
# the resident Newton path
# --------------------------------------------------------------------- #
def _mini_p1(degree: int, precision: int, dimension: int = 4):
    rng = random.Random(5)
    supports = [tuple(c) for c in combinations(range(dimension), 3)]
    supports = supports[:dimension] or [tuple(range(dimension))]
    return [
        make_polynomial_from_structure(
            dimension,
            supports[e:] + supports[:e],
            degree,
            kind="complex_md",
            precision=precision,
            rng=rng,
        )
        for e in range(dimension)
    ]


def _unit_circle_starts(system, batch: int, precision: int):
    rng = random.Random(11)
    return [
        [
            PowerSeries.constant(
                ComplexMD.unit_circle(rng.uniform(0.0, 2.0 * math.pi), precision),
                system.degree,
            )
            for _ in range(system.dimension)
        ]
        for _ in range(batch)
    ]


class TestResidentNewton:
    PRECISION = 2

    def _system(self):
        return PolynomialSystem(
            _mini_p1(DEGREE, self.PRECISION), mode="staged", cache=ScheduleCache()
        )

    def _count_lu_calls(self, monkeypatch):
        import repro.homotopy.newton as newton_module

        calls = {"count": 0}
        original = newton_module.lu_solve

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(newton_module, "lu_solve", counting)
        return calls

    def test_resident_path_never_calls_scalar_solver(self, monkeypatch):
        system = self._system()
        starts = _unit_circle_starts(system, 3, self.PRECISION)
        calls = self._count_lu_calls(monkeypatch)
        newton_power_series_batch(
            system,
            starts,
            options=NewtonOptions(max_iterations=2, mode="vectorized", solver="auto"),
        )
        assert calls["count"] == 0
        newton_power_series_batch(
            system,
            starts,
            options=NewtonOptions(max_iterations=2, mode="staged", solver="auto"),
        )
        assert calls["count"] > 0

    def test_resident_matches_staged_bit_for_bit(self):
        """solver='auto' on the tensor backend equals the staged oracle."""
        system = self._system()
        starts = _unit_circle_starts(system, 3, self.PRECISION)
        staged = newton_power_series_batch(
            system, starts, options=NewtonOptions(max_iterations=3, mode="staged")
        )
        resident = newton_power_series_batch(
            system,
            starts,
            options=NewtonOptions(max_iterations=3, mode="vectorized", solver="auto"),
        )
        for a, b in zip(staged, resident):
            assert a.converged == b.converged
            assert [(s.iteration, s.residual, s.correction) for s in a.steps] == [
                (s.iteration, s.residual, s.correction) for s in b.steps
            ]
            for mine, theirs in zip(a.solution, b.solution):
                assert _limb_signature(mine) == _limb_signature(theirs)

    def test_resident_matches_forced_scalar_solver(self):
        system = self._system()
        starts = _unit_circle_starts(system, 2, self.PRECISION)
        scalar = newton_power_series_batch(
            system,
            starts,
            options=NewtonOptions(max_iterations=3, mode="vectorized", solver="scalar"),
        )
        batched = newton_power_series_batch(
            system,
            starts,
            options=NewtonOptions(max_iterations=3, mode="vectorized", solver="batched"),
        )
        for a, b in zip(scalar, batched):
            for mine, theirs in zip(a.solution, b.solution):
                assert _limb_signature(mine) == _limb_signature(theirs)

    def test_batched_solver_requires_residency(self):
        system = self._system()
        starts = _unit_circle_starts(system, 2, self.PRECISION)
        with pytest.raises(StagingError):
            newton_power_series_batch(
                system,
                starts,
                options=NewtonOptions(max_iterations=1, mode="staged", solver="batched"),
            )

    def test_unknown_solver_rejected(self):
        system = self._system()
        starts = _unit_circle_starts(system, 1, self.PRECISION)
        with pytest.raises(ValueError):
            newton_power_series_batch(system, starts, options=NewtonOptions(solver="fused"))


# --------------------------------------------------------------------- #
# timing model
# --------------------------------------------------------------------- #
class TestSolveTiming:
    def test_predict_solve_launch_structure(self):
        model = TimingModel(device="V100", precision=2)
        n = 4
        report = model.predict_solve(n, degree=8, batch=16)
        launches = report.launches
        # Elimination: n pivot inversions, and per non-final column one
        # factor launch plus a convolution/addition update pair.  Back
        # substitution: per non-final row one convolution forming all its
        # products, then one addition per product; n final multiplies.
        convolutions = [x for x in launches if x.stage == "convolution"]
        additions = [x for x in launches if x.stage == "addition"]
        assert len(convolutions) == n + 2 * (n - 1) + (n - 1) + n == 5 * n - 3
        assert len(additions) == (n - 1) + n * (n - 1) // 2
        # Elimination makes 4n - 3 launches; back substitution follows, row
        # by row from the last (batch 16, so a row with r products
        # convolves 16 r blocks at once).
        conv, add = "convolution", "addition"
        assert [(x.stage, x.blocks) for x in launches[4 * n - 3 :]] == [
            (conv, 16),
            (conv, 16), (add, 16), (conv, 16),
            (conv, 32), (add, 16), (add, 16), (conv, 16),
            (conv, 48), (add, 16), (add, 16), (add, 16), (conv, 16),
        ]
        assert report.sum_ms > 0.0
        assert report.wall_clock_ms > report.sum_ms  # launch overhead counted

    def test_predict_solve_scales_with_batch(self):
        model = TimingModel(device="P100", precision=2)
        small = model.predict_solve(3, degree=8, batch=1)
        large = model.predict_solve(3, degree=8, batch=2048)
        assert large.sum_ms > small.sum_ms
        # Wide batches amortise: per instance the wide solve is cheaper.
        assert large.wall_clock_ms / 2048 < small.wall_clock_ms

    def test_predict_solve_validates_arguments(self):
        model = TimingModel(device="V100", precision=2)
        with pytest.raises(ValueError):
            model.predict_solve(0, degree=4)
        with pytest.raises(ValueError):
            model.predict_solve(3, degree=4, batch=0)
