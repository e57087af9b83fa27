"""Tests for the batched tensor linear solver and the resident Newton path.

The contract under test: solving all batch instances at once on packed
limb tensors must reproduce the scalar
:func:`repro.homotopy.lu_solve` **bit for bit** at double-double precision
(real and complex, pivot swaps included) and at quad-double precision
(real), detect singular instances per batch position, and let a resident
Newton run never touch the scalar solver at all.
"""

from __future__ import annotations

import math
import random
import sys
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
from repro.md import ComplexMD, MultiDouble, vecops
from repro.md.renorm import renormalize
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
# scalar solver: hypothesis round trips
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

#: Double doubles in both rings, and one-limb and quad doubles in the real
#: ring (ids ending in ``1d`` and ``qd``).  Complex quad doubles are left
#: out: D.5's second cause (pivot selection by the collapsed-double
#: magnitude) makes some of their swap instances differ.
PARITY_CASES = [
    pytest.param(
        kind,
        limbs,
        swap,
        shape,
        id="-".join(
            filter(None, (name, "swap" if swap else "noswap", kind, {1: "1d", 4: "qd"}.get(limbs)))
        ),
        marks=NEAR_BINADE_RECIPROCAL if (name, swap, kind) == ("degree0", True, "complex_md") else (),
    )
    for name, shape in PARITY_SHAPES.items()
    for kind, limbs in (("md", 2), ("complex_md", 2), ("md", 4), ("md", 1))
    for swap in (False, True)
]


class TestBatchedParity:
    """The batched solve must match the scalar solver bit for bit."""

    @pytest.mark.parametrize("kind, limbs, swap, shape", PARITY_CASES)
    def test_bit_identical_at_double_double(self, rng, kind, limbs, swap, shape):
        """Double doubles, quad doubles (ids ending in ``qd``), whose fixed
        add and multiply sequences both solvers share, and one-limb doubles
        (``1d``), whose quotients are ``a / b`` in both."""
        n, degree, batch = shape
        make = _swap_system if swap else _random_system
        systems = [make(kind, n, degree, rng, limbs) for _ in range(batch)]
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

    def test_singular_instances_named_across_columns(self, rng):
        """One error names every singular instance, whichever column of its
        lead matrix has the zero pivot."""
        n = 2
        good_matrix, rhs = _random_system("md", n, DEGREE, rng)
        zero = PowerSeries.zero(DEGREE, MultiDouble.from_float(0.0, 2))
        one = PowerSeries.one(DEGREE, MultiDouble.from_float(1.0, 2))
        column0 = [[zero, zero], [zero, zero]]
        column1 = [[one, zero], [zero, zero]]
        with pytest.raises(SingularSystemError) as info:
            batch_lu_solve([good_matrix, column1, column0], [rhs] * 3)
        assert info.value.instances == [1, 2]

    def test_fraction_ring_reports_singular_instances_by_position(self, rng):
        """The exact fallback solves every instance and names every singular
        position, masked or not, as the tensor path does."""
        from repro.series import random_fraction_series

        n = 2
        good = [[random_fraction_series(DEGREE, rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            good[i][i] = good[i][i] + PowerSeries.constant(Fraction(2), DEGREE)
        zero = PowerSeries.zero(DEGREE, Fraction(0))
        singular = [[zero, zero], [zero, zero]]
        rhs = [random_fraction_series(DEGREE, rng) for _ in range(n)]
        for active in (None, [1, 2]):
            with pytest.raises(SingularSystemError) as info:
                batch_lu_solve([good, singular, singular], [rhs] * 3, active=active)
            assert info.value.instances == [1, 2]

    def test_non_square_raises_value_error(self):
        zero = PowerSeries.zero(1, MultiDouble.from_float(0.0, 2))
        with pytest.raises(ValueError):
            batch_lu_solve([[[zero, zero]]], [[zero]])
        with pytest.raises(ValueError):
            batch_lu_solve_tensor(
                (np.zeros((2, 1, 2, 3, 4)),), (np.zeros((2, 1, 2, 4)),), 2
            )
        with pytest.raises(ValueError):
            batch_lu_solve_tensor((np.zeros((2, 1, 2, 2)),), (np.zeros((2, 1, 2, 4)),), 2)


# --------------------------------------------------------------------- #
# stacked products: call counts
# --------------------------------------------------------------------- #
def _limb_planes(nprng, shape, limbs: int) -> np.ndarray:
    """A random ``(limbs, *shape)`` tensor; limb ``i`` sits ~53 i bits below
    the leading one, and the constant coefficients stay away from zero."""
    lead = nprng.standard_normal(shape)
    lead[..., 0] += np.copysign(2.0, lead[..., 0])
    rest = [lead * nprng.uniform(-1.0, 1.0, shape) * 2.0 ** (-53 * i) for i in range(1, limbs)]
    return np.stack([lead, *rest])


#: The counted :mod:`repro.md.vecops` row kernels.
ROW_KERNELS = ("md_mul_rows", "md_add_rows", "md_sub_rows", "md_div_rows")


def _count_row_kernels(monkeypatch) -> dict:
    """Count the calls of every :data:`ROW_KERNELS` kernel, wherever a
    ``repro`` module binds it, so the count does not depend on which module
    dispatches the call."""
    calls = dict.fromkeys(ROW_KERNELS, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ROW_KERNELS:
        original = getattr(vecops, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "repro" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


class TestStackedProducts:
    """Each series coefficient forms its products in one multiply and sums
    them in a pairwise tree; every row operation is elementwise, so the
    stacking moves no bit (the parity pins above) and the call count does
    not grow with the batch."""

    @pytest.mark.parametrize(
        "ring, n, degree",
        [
            pytest.param(ring, n, degree, id=name if ring == "real" else f"{name}-complex")
            for ring in ("real", "complex")
            for name, (n, degree) in {
                "newton": (6, 15), "fleet": (1, 8), "service": (2, 4), "degree0": (3, 0)
            }.items()
        ],
    )
    def test_row_op_calls_follow_closed_forms(self, nprng, monkeypatch, ring, n, degree):
        """The lead matrix factors in ``4n - 3`` multiplies, ``(n-1) +
        n(n-1)/2`` subtractions and ``n`` divisions (elimination on
        ``[A_0 | I]``, back substitution of all columns at once).  Then
        coefficient ``k`` makes one multiply, ``ceil(log2(n k))`` tree
        additions and one subtraction for its products (``k >= 1``), and one
        multiply and ``ceil(log2 n)`` additions to apply ``A_0^{-1}``.  So for
        dimension n and degree d the real solve makes M = 4n - 2 + 2d
        multiplies, A = sum_{k=1..d} ceil(log2(n k)) + (d+1) ceil(log2 n)
        additions, S = (n-1) + n(n-1)/2 + d subtractions and n divisions:
        52, 135, 35 and 6 at the newton shape, where Gaussian elimination
        over the series ring made 201, 966, 20 and 6.  A complex multiply is
        four real multiplies, a subtraction and an addition, a complex
        addition or subtraction two real ones, and a complex reciprocal two
        complex divisions of 6 multiplies, 2 additions, 1 subtraction and 2
        divisions each: 4M + 12n, 2A + M + 4n, 2S + M + 2n and 4n; 280,
        346, 134 and 24 at the newton shape."""
        calls = _count_row_kernels(monkeypatch)
        planes = 1 if ring == "real" else 2
        limbs, width = 2, degree + 1
        matrix = [_limb_planes(nprng, (2, n, n, width), limbs) for _ in range(planes)]
        for i in range(n):
            matrix[0][0, :, i, i, 0] += 8.0 * np.sign(matrix[0][0, :, i, i, 0])
        rhs = [_limb_planes(nprng, (2, n, width), limbs) for _ in range(planes)]
        batch_lu_solve_tensor(tuple(matrix), tuple(rhs), limbs)
        d = degree
        m = 4 * n - 2 + 2 * d
        a = sum((n * k - 1).bit_length() for k in range(1, d + 1)) + (d + 1) * (n - 1).bit_length()
        s = (n - 1) + n * (n - 1) // 2 + d
        if ring == "real":
            expected = (m, a, s, n)
        else:
            expected = (4 * m + 12 * n, 2 * a + m + 4 * n, 2 * s + m + 2 * n, 4 * n)
        assert calls == dict(zip(ROW_KERNELS, expected))


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
        n, degree = 4, 8
        report = model.predict_solve(n, degree=degree, batch=16)
        launches = report.launches
        # The lead matrix: per column a reciprocal, and while rows remain a
        # factor launch and a product/addition update pair; per
        # back-substitution row one product launch, one addition per later
        # row and the pivot scaling.  Per coefficient k: the products
        # A_i x_(k-i) (k >= 1), their tree over n k terms and the
        # subtraction, then A_0^(-1)'s products and tree over n terms.
        convolutions = [x for x in launches if x.stage == "convolution"]
        additions = [x for x in launches if x.stage == "addition"]
        levels = lambda terms: (terms - 1).bit_length()  # noqa: E731
        assert len(convolutions) == (5 * n - 3) + 2 * degree + 1
        assert len(additions) == (n - 1) + n * (n - 1) // 2 + sum(
            levels(n * k) + 1 for k in range(1, degree + 1)
        ) + (degree + 1) * levels(n)
        assert all(x.waves >= 1 for x in launches)
        conv, add = "convolution", "addition"
        factorisation = (5 * n - 3) + (n - 1) + n * (n - 1) // 2
        assert [(x.stage, x.blocks, x.layer) for x in launches[:factorisation]] == [
            (conv, 16, 1), (conv, 48, 1), (conv, 336, 1), (add, 336, 1),
            (conv, 16, 2), (conv, 32, 2), (conv, 192, 2), (add, 192, 2),
            (conv, 16, 3), (conv, 16, 3), (conv, 80, 3), (add, 80, 3),
            (conv, 16, 4),
            (conv, 64, 4),
            (conv, 64, 3), (add, 64, 3), (conv, 64, 3),
            (conv, 128, 2), (add, 64, 2), (add, 64, 2), (conv, 64, 2),
            (conv, 192, 1), (add, 64, 1), (add, 64, 1), (add, 64, 1), (conv, 64, 1),
        ]
        # Coefficients 0, 1 and 2 follow (layers n + 1 ..): a tree over 4
        # terms takes two levels, over 8 terms three.
        assert [(x.stage, x.blocks, x.layer) for x in launches[factorisation : factorisation + 16]] == [
            (conv, 256, 5), (add, 128, 5), (add, 64, 5),
            (conv, 256, 6), (add, 128, 6), (add, 64, 6), (add, 64, 6),
            (conv, 256, 6), (add, 128, 6), (add, 64, 6),
            (conv, 512, 7), (add, 256, 7), (add, 128, 7), (add, 64, 7), (add, 64, 7),
            (conv, 256, 7),
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
