"""Tests for the tensorized execution backend (repro.core.tensor)."""

from __future__ import annotations

import random
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.tensor as tensor_module
from repro.circuits import parse_polynomial
from repro.circuits.testpolys import (
    make_polynomial_from_structure,
    p1_structure,
    p2_structure,
    p3_structure,
    random_polynomial,
)
from repro.core import (
    ScheduleCache,
    SlotTensor,
    SystemEvaluator,
    TensorProgram,
    compile_tensor_program,
    convolve_rows,
    infer_ring,
)
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    TaylorPathTracker,
    TrackOptions,
    newton_power_series_batch,
)
from repro.homotopy.batch_linsolve import batch_lu_solve_tensor
from repro.md import MultiDouble
from repro.md.cvecops import cmd_add_rows, cmd_mul_rows
from repro.md.vecops import md_add_rows, md_mul_rows
from repro.series import (
    PowerSeries,
    convolve_zero_insertion,
    random_md_series,
    random_series_vector,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_doubles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _tolerance(limbs: int) -> float:
    """A few ulps of the working precision, as in the system-evaluator tests."""
    return 2.0 ** (-52 * limbs + 24)


# --------------------------------------------------------------------- #
# mini versions of the paper systems (scaled to test-suite size)
# --------------------------------------------------------------------- #
def _mini_structure(name: str) -> tuple[int, list[tuple[int, ...]]]:
    """A few-monomial slice of a paper structure (same dimension and shape)."""
    if name == "p1":
        n, supports = p1_structure()
        return n, supports[::300]  # 7 products of four distinct variables
    if name == "p2":
        n, supports = p2_structure()
        # Every 16th cyclic window, truncated to 8 consecutive variables.
        return n, [s[:8] for s in supports[::16]]
    n, supports = p3_structure()
    return n, supports[::1300]  # 7 products of two distinct variables


def _mini_system(name: str, degree: int, kind: str, precision, rng, equations: int = 3):
    n, supports = _mini_structure(name)
    return [
        make_polynomial_from_structure(
            n, supports[e:] + supports[:e], degree, kind=kind, precision=precision, rng=rng
        )
        for e in range(equations)
    ]


def _max_difference(batch_a, batch_b) -> float:
    return max(
        got.max_difference(expected)
        for row_a, row_b in zip(batch_a, batch_b)
        for got, expected in zip(row_a, row_b)
    )


# --------------------------------------------------------------------- #
# parity on the paper systems
# --------------------------------------------------------------------- #
#: Memoised per (system, precision): the scalar-md oracles are the slow part
#: of these tests, so they run once on one instance and every batch size
#: reuses them.
_ORACLE_CACHE: dict = {}


def _parity_workload(name: str, precision: int):
    key = (name, precision)
    if key not in _ORACLE_CACHE:
        rng = random.Random(20210312 + precision)
        degree = 2
        polynomials = _mini_system(name, degree, "md", precision, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "md", precision, rng) for _ in range(8)]
        cache = ScheduleCache()
        reference = SystemEvaluator(polynomials, mode="reference", cache=cache).evaluate(
            zs[0]
        )
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate(zs[0])
        _ORACLE_CACHE[key] = (polynomials, zs, reference, staged, cache)
    return _ORACLE_CACHE[key]


class TestVectorizedParity:
    @pytest.mark.parametrize("name", ("p1", "p2", "p3"))
    @pytest.mark.parametrize("precision", (2, 4, 8))
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_md_parity_with_reference_and_staged(self, name, precision, batch):
        polynomials, zs, reference, staged, cache = _parity_workload(name, precision)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        vectorized = evaluator.evaluate_batch(zs[:batch])
        # Instance 0 sits within working precision of both scalar oracles.
        for got, ref, stg in zip(vectorized[0], reference, staged):
            assert got.max_difference(ref) < _tolerance(precision)
            assert got.max_difference(stg) < _tolerance(precision)
        # Every other instance of the wide sweep is bitwise the same work as
        # its own batch of one (the tensor ops are elementwise over rows).
        for b in range(1, batch):
            single = evaluator.evaluate_batch([zs[b]])[0]
            for got, expected in zip(vectorized[b], single):
                assert got.max_difference(expected) == 0.0
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["limbs"] == precision
        assert vectorized[0][0].metadata["batch"] == batch

    @pytest.mark.parametrize("name", ("p1", "p3"))
    def test_float_ring_matches_staged_bitwise(self, name, rng):
        """Doubles take the one-limb fast path, whose accumulation order is
        exactly the staged loop's — the results agree to the last bit."""
        degree = 3
        polynomials = _mini_system(name, degree, "float", 2, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "float", 2, rng) for _ in range(4)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0

    @pytest.mark.parametrize("precision", (2, 4))
    def test_fraction_oracle_parity(self, precision, rng):
        """The exact-rational oracle bounds the backend's rounding error.

        Multiple-double limbs are exact doubles, so promoting every
        coefficient to Fraction and evaluating with the reference oracle
        gives the true value; the vectorized result must sit within the
        working precision of it.
        """
        degree = 2
        polynomials = _mini_system("p1", degree, "md", precision, rng, equations=2)
        n = polynomials[0].dimension
        zs = [random_series_vector(n, degree, "md", precision, rng) for _ in range(2)]

        def exact(series: PowerSeries) -> PowerSeries:
            return PowerSeries([c.to_fraction() for c in series.coefficients])

        exact_polynomials = [p.map_coefficients(exact) for p in polynomials]
        exact_zs = [[exact(series) for series in z] for z in zs]
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=ScheduleCache()
        ).evaluate_batch(zs)
        oracle = SystemEvaluator(
            exact_polynomials, mode="reference", cache=ScheduleCache()
        ).evaluate_batch(exact_zs)
        for vec_row, oracle_row in zip(vectorized, oracle):
            for got, expected in zip(vec_row, oracle_row):
                worst = 0.0
                for a, b in zip(got.value.coefficients, expected.value.coefficients):
                    worst = max(worst, abs(float(a.to_fraction() - b)))
                assert worst < _tolerance(precision)

    def test_general_exponents_use_scale_layers(self, rng):
        polynomials = [
            random_polynomial(
                5, 4, 3, degree=3, kind="md", precision=2, rng=rng, max_exponent=3
            )
            for _ in range(3)
        ]
        zs = [random_series_vector(5, 3, "md", 2, rng) for _ in range(3)]
        cache = ScheduleCache()
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        assert any(
            layer.kind == "scale"
            for layer in compile_tensor_program(evaluator.fused).layers
        )
        vectorized = evaluator.evaluate_batch(zs)
        reference = SystemEvaluator(
            polynomials, mode="reference", cache=cache
        ).evaluate_batch(zs)
        assert _max_difference(vectorized, reference) < _tolerance(2)


class TestRingFallback:
    def test_fraction_ring_falls_back_to_staged(self, rng):
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind="fraction", rng=rng)
            for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, "fraction", 2, rng) for _ in range(2)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0
        assert vectorized[0][0].metadata["mode"] == "staged"

    @pytest.mark.parametrize("kind,ring", (("complex", "complex"), ("complex_md", "cmd")))
    def test_complex_rings_run_vectorized(self, kind, ring, rng):
        """Complex rings are first-class since the paired-plane tensor:
        they run the fast path and agree with the staged oracle exactly."""
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind=kind, rng=rng) for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, kind, 2, rng) for _ in range(2)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["ring"] == ring

    def test_mixed_float_system_md_inputs_runs_vectorized(self, rng):
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind="float", rng=rng) for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, "md", 4, rng) for _ in range(3)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        reference = SystemEvaluator(
            polynomials, mode="reference", cache=cache
        ).evaluate_batch(zs)
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["limbs"] == 4
        assert _max_difference(vectorized, reference) < _tolerance(4)

    def test_infer_ring(self, rng):
        assert infer_ring([PowerSeries([1.0, 2.0])]) == ("float", 1)
        md = random_series_vector(1, 2, "md", 4, rng)
        assert infer_ring(md) == ("md", 4)
        assert infer_ring(md + [PowerSeries([1.0, 0.5, 0.25])]) == ("md", 4)
        assert infer_ring([PowerSeries([Fraction(1, 3), Fraction(0)])]) is None
        assert infer_ring([PowerSeries([1.0 + 2.0j, 0j])]) == ("complex", 1)
        cmd = random_series_vector(1, 2, "complex_md", 4, rng)
        assert infer_ring(cmd) == ("cmd", 4)
        # Mixing real multidoubles with plain complexes joins into cmd.
        assert infer_ring(md + [PowerSeries([1.0 + 2.0j, 0j, 1j])]) == ("cmd", 4)


# --------------------------------------------------------------------- #
# SlotTensor gather/scatter
# --------------------------------------------------------------------- #
@st.composite
def md_slot_arrays(draw):
    limbs = draw(st.sampled_from((1, 2, 4, 8)))
    width = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=5))
    coefficients = draw(
        st.lists(
            st.lists(
                st.lists(finite_doubles, min_size=limbs, max_size=limbs),
                min_size=width,
                max_size=width,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    slots = [
        PowerSeries([MultiDouble(tuple(limb_list), limbs) for limb_list in series])
        for series in coefficients
    ]
    return slots, limbs


class TestSlotTensorRoundTrip:
    @SETTINGS
    @given(case=md_slot_arrays())
    def test_md_gather_scatter_round_trips_exactly(self, case):
        slots, limbs = case
        tensor = SlotTensor.pack(slots, limbs=limbs, ring="md")
        recovered = tensor.to_slots()
        assert len(recovered) == len(slots)
        for original, back in zip(slots, recovered):
            for a, b in zip(original.coefficients, back.coefficients):
                assert a.limbs == b.limbs  # bit-exact, limb by limb

    @SETTINGS
    @given(
        coefficients=st.lists(
            st.lists(finite_doubles, min_size=3, max_size=3), min_size=1, max_size=6
        )
    )
    def test_float_gather_scatter_round_trips_exactly(self, coefficients):
        slots = [PowerSeries(list(c)) for c in coefficients]
        tensor = SlotTensor.pack(slots, limbs=1, ring="float")
        for original, back in zip(slots, tensor.to_slots()):
            assert original.coefficients == back.coefficients

    def test_mixed_precision_pack_zero_extends(self, rng):
        """A 2-limb value in a 4-limb tensor keeps its exact value."""
        slots = [
            PowerSeries([MultiDouble.random(2, rng), MultiDouble.random(4, rng)]),
        ]
        tensor = SlotTensor.pack(slots, limbs=4, ring="md")
        back = tensor.to_slots()[0]
        for a, b in zip(slots[0].coefficients, back.coefficients):
            assert a.to_fraction() == b.to_fraction()

    def test_pack_rejects_unsupported_coefficients(self):
        with pytest.raises(TypeError):
            SlotTensor.pack([PowerSeries([Fraction(1, 3), Fraction(2)])], limbs=2)
        with pytest.raises(TypeError):
            # The float-ring fast path must not round Fractions through
            # np.asarray either.
            SlotTensor.pack(
                [PowerSeries([Fraction(1, 3), Fraction(2)])], limbs=1, ring="float"
            )
        with pytest.raises(ValueError):
            SlotTensor.pack([], limbs=2)
        with pytest.raises(ValueError):
            SlotTensor.pack(
                [PowerSeries([1.0, 2.0]), PowerSeries([1.0])], limbs=1, ring="float"
            )


# --------------------------------------------------------------------- #
# the batched convolution kernel
# --------------------------------------------------------------------- #
class TestConvolveRows:
    @pytest.mark.parametrize("degree", (0, 1, 5, 15))
    @pytest.mark.parametrize("limbs", (1, 2, 3, 4, 8))
    def test_many_triples_match_section2_kernel(self, limbs, degree, rng):
        """Every row of one whole-layer sweep equals Section 2's zero-insertion
        kernel and the scalar PowerSeries.convolve on MultiDouble
        coefficients, limb for limb — the equality the gpu and vectorized
        modes and the batched common factor rely on."""
        m = 5
        xs, ys = (
            [random_md_series(degree, limbs, rng) for _ in range(m)] for _ in range(2)
        )

        def planes(series):
            return np.array(
                [[[c.limbs[i] for c in s.coefficients] for s in series] for i in range(limbs)]
            )

        (out,) = convolve_rows((planes(xs),), (planes(ys),), limbs)
        for j, (x, y) in enumerate(zip(xs, ys)):
            rows = [tuple(out[:, j, k]) for k in range(degree + 1)]
            kernel = convolve_zero_insertion(x.coefficients, y.coefficients)
            assert rows == [c.limbs for c in kernel]
            assert rows == [c.limbs for c in x.convolve(y).coefficients]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convolve_rows((np.zeros((2, 3, 4)),), (np.zeros((2, 3, 5)),), 2)

    def test_bare_limb_arrays_rejected(self):
        """Operands are tuples of planes: bare ``(limbs, m, n)`` arrays, whose
        iteration yields limbs, raise instead of reading as planes even when
        ``m`` equals ``limbs``."""
        x = np.zeros((2, 2, 4))
        with pytest.raises(ValueError):
            convolve_rows(x, x, 2)


# --------------------------------------------------------------------- #
# the blocked convolution driver against the per-pass loop
# --------------------------------------------------------------------- #
def _loop_convolve_rows(x, y, limbs):
    """The reference: pass ``j`` makes one multiply and one addition over
    every row of the layer."""
    n = x.shape[2]
    out = np.zeros_like(x)
    for j in range(n):
        products = md_mul_rows(
            [x[i, :, j : j + 1] for i in range(limbs)], [y[i, :, : n - j] for i in range(limbs)], limbs
        )
        acc = md_add_rows([out[i, :, j:] for i in range(limbs)], products, limbs)
        for i in range(limbs):
            out[i, :, j:] = acc[i]
    return out


def _loop_convolve_rows_complex(xr, xi, yr, yi, limbs):
    """The complex reference: one complex multiply and addition per pass."""
    n = xr.shape[2]
    out_r, out_i = np.zeros_like(xr), np.zeros_like(xi)
    for j in range(n):
        pr, pi = cmd_mul_rows(
            [xr[i, :, j : j + 1] for i in range(limbs)],
            [xi[i, :, j : j + 1] for i in range(limbs)],
            [yr[i, :, : n - j] for i in range(limbs)],
            [yi[i, :, : n - j] for i in range(limbs)],
            limbs,
        )
        acc_r, acc_i = cmd_add_rows(
            [out_r[i, :, j:] for i in range(limbs)], [out_i[i, :, j:] for i in range(limbs)], pr, pi, limbs
        )
        for i in range(limbs):
            out_r[i, :, j:] = acc_r[i]
            out_i[i, :, j:] = acc_i[i]
    return out_r, out_i


def _bits(array: np.ndarray) -> np.ndarray:
    """The bit patterns of a float64 array, every NaN as one pattern.

    Signed zeros, infinities and the positions of NaNs count.  NaN payloads
    do not: when both operands of an addition are NaNs, NumPy returns either
    one depending on where the element falls in a SIMD block (the same
    ``-nan + nan`` gave ``-nan`` in a full block and ``nan`` in the tail of a
    15-element row), so a payload is a property of the array layout, not of
    the driver.
    """
    return np.where(np.isnan(array), np.nan, array).view(np.int64)


def _assert_bit_identical(got, expected) -> None:
    for mine, theirs in zip(got, expected, strict=True):
        assert mine.shape == theirs.shape
        assert np.array_equal(_bits(mine), _bits(theirs))


def _layer_rows(size: str, width: int) -> int:
    """Rows of a layer of ``size`` relative to the convolution budget."""
    budget = tensor_module._CONVOLUTION_BUDGET
    fitting = budget // (width * (width + 1) // 2)
    return {
        "one row": 1,
        "under": max(fitting, 1),
        "over": fitting + 1,
        # two full row blocks and a ragged third one
        "blocks": 2 * max(1, budget // width) + 3,
    }[size]


def _operands(nprng, planes: int, limbs: int, rows: int, width: int, layout: str):
    """``planes`` x-operands and as many y-operands of one layer.

    ``contiguous`` draws every row; ``flat`` tiles a few rows with
    ``np.broadcast_to`` and collapses them into contiguous rows, the way
    ``convolve_rows`` reshapes broadcast operands;
    ``view`` passes non-contiguous views (a row-strided slice and a
    zero-stride broadcast) straight through.  The first row of every x
    starts with a negative zero, an infinity and a NaN (as many as fit).
    """

    specials = [-0.0, np.inf, np.nan][:width]

    def draw(count, special=False):
        lead = nprng.standard_normal((count, width))
        rest = [lead * nprng.uniform(-1.0, 1.0, lead.shape) * 2.0 ** (-53 * i) for i in range(1, limbs)]
        if special:
            lead[0, : len(specials)] = specials
        return np.stack([lead, *rest])

    def layer(special):
        if layout == "contiguous":
            return draw(rows, special)
        if layout == "flat":
            tiled = np.broadcast_to(draw(1, special)[:, :, None, :], (limbs, 1, rows, width))
            return np.ascontiguousarray(tiled).reshape(limbs, -1, width)
        if layout == "view":
            return draw(2 * rows, special)[:, ::2, :]
        raise ValueError(layout)

    xs = [layer(True) for _ in range(planes)]
    if layout == "view":
        return xs, [np.broadcast_to(draw(1), (limbs, rows, width)) for _ in range(planes)]
    return xs, [layer(False) for _ in range(planes)]


@tensor_module.quiet_fp
def _reference(ring: str, xs, ys, limbs: int):
    if ring == "real":
        return (_loop_convolve_rows(xs[0], ys[0], limbs),)
    return _loop_convolve_rows_complex(xs[0], xs[1], ys[0], ys[1], limbs)


LAYER_SIZES = ("one row", "under", "over", "blocks")


class TestConvolutionDriver:
    """One multiply per layer within the budget, one per pass and row block
    beyond it: every product is elementwise and every coefficient sums in
    increasing pass order, so both equal the per-pass loop bit for bit."""

    @pytest.mark.parametrize("size", LAYER_SIZES)
    @pytest.mark.parametrize("degree", (0, 1, 8, 15))
    @pytest.mark.parametrize("limbs", (1, 2, 3, 4, 8))
    @pytest.mark.parametrize("ring", ("real", "complex"))
    def test_matches_per_pass_loop(self, nprng, monkeypatch, ring, limbs, degree, size):
        # A small budget keeps the 8-limb complex grid quick; the blocking
        # logic only sees the budget, and the next test runs the real one.
        monkeypatch.setattr(tensor_module, "_CONVOLUTION_BUDGET", 1024)
        width = degree + 1
        xs, ys = _operands(nprng, 1 if ring == "real" else 2, limbs, _layer_rows(size, width), width, "contiguous")
        _assert_bit_identical(convolve_rows(xs, ys, limbs), _reference(ring, xs, ys, limbs))

    @pytest.mark.parametrize("size", LAYER_SIZES)
    @pytest.mark.parametrize("degree", (0, 15))
    @pytest.mark.parametrize("ring", ("real", "complex"))
    def test_matches_per_pass_loop_at_the_module_budget(self, nprng, ring, degree, size):
        width = degree + 1
        xs, ys = _operands(nprng, 1 if ring == "real" else 2, 2, _layer_rows(size, width), width, "contiguous")
        _assert_bit_identical(convolve_rows(xs, ys, 2), _reference(ring, xs, ys, 2))

    @pytest.mark.parametrize("layout", ("flat", "view"))
    @pytest.mark.parametrize("size", LAYER_SIZES)
    @pytest.mark.parametrize("ring", ("real", "complex"))
    def test_broadcast_and_strided_operands(self, nprng, monkeypatch, ring, size, layout):
        monkeypatch.setattr(tensor_module, "_CONVOLUTION_BUDGET", 1024)
        width = 9
        xs, ys = _operands(nprng, 1 if ring == "real" else 2, 2, _layer_rows(size, width), width, layout)
        _assert_bit_identical(convolve_rows(xs, ys, 2), _reference(ring, xs, ys, 2))

    @pytest.mark.parametrize("shape", [(2, 0, 5), (2, 3, 0)], ids=["no rows", "no columns"])
    def test_empty_layers(self, shape):
        x = np.zeros(shape)
        assert [plane.shape for plane in convolve_rows((x,), (x,), 2)] == [shape]
        assert [plane.shape for plane in convolve_rows((x, x), (x, x), 2)] == [shape, shape]

    @pytest.mark.parametrize("size", LAYER_SIZES)
    def test_multiplies_per_layer(self, nprng, monkeypatch, size):
        """A layer within the budget makes exactly one multiply; a larger
        one makes one per pass and row block.  Each makes one addition per
        pass and row block."""
        calls = dict.fromkeys(("md_mul_rows", "md_add_rows"), 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tensor_module, name, counting(name, getattr(tensor_module, name)))
        width = 16
        rows = _layer_rows(size, width)
        xs, ys = _operands(nprng, 1, 2, rows, width, "contiguous")
        convolve_rows((xs[0],), (ys[0],), 2)
        blocks = -(-rows // (tensor_module._CONVOLUTION_BUDGET // width))
        stacked = size in ("one row", "under")
        assert calls == {
            "md_mul_rows": 1 if stacked else width * blocks,
            "md_add_rows": width if stacked else width * blocks,
        }


# --------------------------------------------------------------------- #
# kernel drivers on non-finite lanes
# --------------------------------------------------------------------- #
def _planes(nprng, shape, infinity=None):
    """Random double-double limb planes ``(2, *shape)``, constant terms away
    from zero, with an infinity at ``infinity`` of the leading limb."""
    lead = nprng.standard_normal(shape)
    lead[..., 0] += np.copysign(4.0, lead[..., 0])
    planes = np.stack([lead, lead * nprng.uniform(-1.0, 1.0, shape) * 2.0**-53])
    if infinity is not None:
        planes[(0, *infinity)] = np.inf
    return planes


def _driver_runs(nprng, driver, ring):
    """``driver`` in ``ring`` on two lanes, lane 0 holding an infinity in
    its real plane, and on lane 1 alone; every result has its lanes on
    axis 1."""
    complex_ring = ring == "complex"

    def alone(planes):
        return tuple(plane[:, 1:] for plane in planes)

    if driver == "convolve_rows":
        if complex_ring:
            xr, xi, yr, yi = _planes(nprng, (2, 5), (0, 2)), *(_planes(nprng, (2, 5)) for _ in range(3))
            x, y = (xr, xi), (yr, yi)
        else:
            x, y = (_planes(nprng, (2, 5), (0, 1)),), (_planes(nprng, (2, 5)),)
        return convolve_rows(x, y, 2), convolve_rows(alone(x), alone(y), 2)
    if driver == "batch_lu_solve_tensor":
        # an infinite elimination target, so the solver's own subtraction sees it
        matrix, rhs = (_planes(nprng, (2, 2, 2, 4), (0, 1, 1, 0)),), (_planes(nprng, (2, 2, 4)),)
        matrix[0][0, :, 0, 0, 0] += np.copysign(8.0, matrix[0][0, :, 0, 0, 0])
        if complex_ring:
            matrix, rhs = matrix + (_planes(nprng, (2, 2, 2, 4)),), rhs + (_planes(nprng, (2, 2, 4)),)
        return batch_lu_solve_tensor(matrix, rhs, 2), batch_lu_solve_tensor(alone(matrix), alone(rhs), 2)
    if driver == "instance_norms":
        planes = (_planes(nprng, (2, 3, 4), (0, 1, 2)),)
        planes[0][1, 0, 1, 2] = -np.inf  # collapses to inf + -inf
        if complex_ring:
            planes += (_planes(nprng, (2, 3, 4)),)
        norms = tensor_module.instance_norms
        return (norms(planes)[None],), (norms(alone(planes))[None],)
    raise ValueError(driver)


#: Every kernel driver in both rings; the ids of the real ring are the
#: driver names.
QUIET_DRIVERS = [
    pytest.param(driver, ring, id=driver if ring == "real" else f"{driver}-complex")
    for driver in ("convolve_rows", "batch_lu_solve_tensor", "instance_norms")
    for ring in ("real", "complex")
]


def _result_limbs(results):
    """Every coefficient limb of a list of evaluation results."""
    return [
        [c.limbs for c in series.coefficients]
        for result in results
        for series in (result.value, *result.gradient)
    ]


class TestQuietDrivers:
    """The kernel drivers turn an infinity into infinities and NaNs as
    silently as the scalar operators: with every warning an error, each
    finishes, and the finite lane comes out as it does alone."""

    @pytest.mark.parametrize("driver, ring", QUIET_DRIVERS)
    def test_a_non_finite_lane_is_silent_and_alone(self, nprng, driver, ring):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both, alone = _driver_runs(nprng, driver, ring)
        assert not np.isfinite(both[0][:, 0]).all()
        _assert_bit_identical([plane[:, 1:] for plane in both], alone)

    def test_a_sweep_with_an_overflowing_lane_is_silent(self):
        """From ``x1 = 1e308`` the sweep's own scale layer overflows: the
        gradient of ``x1^2`` is twice its adjusted coefficient ``x1``."""
        polynomial = parse_polynomial("x1^2 + x1*x2 - 3", dimension=2, degree=3, kind="md", precision=2)
        evaluator = SystemEvaluator([polynomial], mode="vectorized", cache=ScheduleCache())

        def inputs(x1):
            return [PowerSeries.constant(MultiDouble.from_float(v, 2), 3) for v in (x1, 1.5)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowing, healthy = evaluator.evaluate_batch([inputs(1.0e308), inputs(1.25)])
            (alone,) = evaluator.evaluate_batch([inputs(1.25)])
        assert not np.isfinite(float(overflowing[0].value.coefficients[0]))
        assert _result_limbs(healthy) == _result_limbs(alone)


# --------------------------------------------------------------------- #
# program compilation and caching
# --------------------------------------------------------------------- #
class TestTensorProgram:
    def test_program_covers_every_fused_job(self, rng):
        polynomials = _mini_system("p1", 3, "md", 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        program = compile_tensor_program(evaluator.fused)
        conv_jobs = sum(
            layer.jobs for layer in program.layers if layer.kind == "convolution"
        )
        add_jobs = sum(layer.jobs for layer in program.layers if layer.kind == "addition")
        assert conv_jobs == evaluator.fused.convolution_job_count
        assert add_jobs == evaluator.fused.addition_job_count
        assert program.total_slots == evaluator.fused.total_slots

    def test_program_is_cached_alongside_fused_schedule(self, rng):
        polynomials = _mini_system("p1", 2, "md", 2, rng)
        zs = [
            random_series_vector(polynomials[0].dimension, 2, "md", 2, rng)
            for _ in range(2)
        ]
        cache = ScheduleCache()
        SystemEvaluator(polynomials, mode="vectorized", cache=cache).evaluate_batch(zs)
        assert len(cache) == 2  # fused schedule + compiled tensor program
        misses_after_first = cache.stats()["misses"]
        SystemEvaluator(polynomials, mode="vectorized", cache=cache).evaluate_batch(zs)
        stats = cache.stats()
        assert stats["misses"] == misses_after_first  # both entries hit
        assert stats["hits"] >= 2

    def test_run_validates_row_count(self, rng):
        polynomials = _mini_system("p1", 2, "md", 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        program = compile_tensor_program(evaluator.fused)
        bad = SlotTensor((np.zeros((2, 3, 3)),), ring="md")
        with pytest.raises(ValueError):
            program.run(bad, batch=1)
        assert isinstance(program, TensorProgram)


# --------------------------------------------------------------------- #
# schedule-cache hardening (satellites)
# --------------------------------------------------------------------- #
class TestScheduleCacheHardening:
    def test_cached_none_is_a_hit(self):
        cache = ScheduleCache()
        calls = []

        def builder():
            calls.append(1)
            return None

        assert cache.get(("none",), builder) is None
        assert cache.get(("none",), builder) is None
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_concurrent_lookups_build_once(self):
        cache = ScheduleCache()
        built = []
        barrier = threading.Barrier(8)

        def builder():
            built.append(threading.get_ident())
            return object()

        results = []

        def worker():
            barrier.wait()
            for _ in range(50):
                results.append(cache.get(("shared",), builder))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert len(set(map(id, results))) == 1
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 8 * 50 - 1

    def test_concurrent_mixed_keys_and_eviction(self):
        cache = ScheduleCache(maxsize=4)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    key = ("k", rng.randrange(8))
                    value = cache.get(key, lambda key=key: key)
                    assert value == key
                    if rng.random() < 0.05:
                        cache.clear()
                    assert len(cache) >= 0 and cache.stats()["maxsize"] == 4
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 4


# --------------------------------------------------------------------- #
# homotopy wiring
# --------------------------------------------------------------------- #
def _square_md_system(rng, dimension=3, degree=3):
    polynomials = [
        random_polynomial(dimension, 3, 2, degree=degree, kind="md", precision=2, rng=rng)
        for _ in range(dimension)
    ]
    return PolynomialSystem(polynomials, mode="staged", cache=ScheduleCache())


class TestHomotopyWiring:
    def test_with_mode_shares_cache_and_staging(self, rng):
        system = _square_md_system(rng)
        vectorized = system.with_mode("vectorized")
        assert vectorized.mode == "vectorized"
        assert vectorized.evaluator.cache is system.evaluator.cache
        assert vectorized.evaluator.fused is system.evaluator.fused
        assert system.with_mode(None) is system
        assert system.with_mode("staged") is system

    def test_newton_batch_mode_knob_matches_staged(self, rng):
        system = _square_md_system(rng)
        initials = [
            [PowerSeries.constant(MultiDouble.random(2, rng), system.degree)
             for _ in range(system.dimension)]
            for _ in range(3)
        ]
        options = NewtonOptions(max_iterations=3)
        staged = newton_power_series_batch(system, initials, options=options)
        vectorized = newton_power_series_batch(
            system, initials, options=options.override(mode="vectorized")
        )
        for a, b in zip(staged, vectorized):
            assert a.iterations == b.iterations
            for sa, sb in zip(a.solution, b.solution):
                assert sa.max_abs_error(sb) < _tolerance(2)

    def test_track_many_vectorized_matches_staged(self, rng):
        from repro.circuits import Polynomial

        cache = ScheduleCache()

        def builder(t0, degree):
            # p(x) = x - t0 - s with series variable s = t - t0: x(t) = t.
            constant = PowerSeries([-t0, -1.0] + [0.0] * (degree - 1))
            polynomial = Polynomial.from_supports(
                1, constant, [(0,)], [PowerSeries.one(degree)]
            )
            return PolynomialSystem([polynomial], mode="staged", cache=cache)

        starts = [[0.0], [0.0]]
        options = TrackOptions().override(degree=4, step=0.25)
        staged = TaylorPathTracker(builder, options=options).track_many(starts)
        vectorized = TaylorPathTracker(
            builder, options=options.override(mode="vectorized")
        ).track_many(starts)
        for a, b in zip(staged, vectorized):
            assert a.success and b.success
            assert len(a.points) == len(b.points)
            for pa, pb in zip(a.points, b.points):
                assert pa.t == pb.t
                assert abs(pa.values[0] - pb.values[0]) < 1e-12
        assert abs(staged[0].final_values[0] - 1.0) < 1e-10
