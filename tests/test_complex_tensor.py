"""Tests for the complex tensor backend and resident evaluation contexts.

Covers the two tentpole pieces of the complex-ring refactor:

* the paired-plane :class:`repro.core.ComplexSlotTensor` and the complex
  layer sweeps of :class:`repro.core.TensorProgram` — parity with the
  staged :class:`repro.md.ComplexMD` oracle on unit-circle mini versions of
  the paper systems, across precisions and batch sizes;
* the resident :class:`repro.core.EvalContext` — pack-exactly-once
  accounting through whole Newton runs and path tracks, in-place input
  updates, values-only unpacking, rebinding, and the mode-agnostic
  interface.
"""

from __future__ import annotations

import random
import threading
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.circuits import Polynomial
from repro.circuits.monomial import Monomial
from repro.circuits.testpolys import (
    make_polynomial_from_structure,
    p1_structure,
    p2_structure,
    p3_structure,
    random_polynomial,
)
from repro.core import (
    ComplexSlotTensor,
    EvalContext,
    ScheduleCache,
    SlotTensor,
    SystemEvaluator,
    compile_tensor_program,
    convolve_rows_complex,
    join_rings,
    make_tensor,
)
from repro.gpusim.timing import TimingModel
from repro.homotopy import (
    NewtonOptions,
    PolynomialSystem,
    TaylorPathTracker,
    TrackOptions,
    newton_power_series,
    newton_power_series_batch,
)
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries, random_series_vector


def _tolerance(limbs: int) -> float:
    return 2.0 ** (-52 * limbs + 24)


# --------------------------------------------------------------------- #
# mini systems (same shapes as test_tensor_backend, complex coefficients)
# --------------------------------------------------------------------- #
def _mini_structure(name: str) -> tuple[int, list[tuple[int, ...]]]:
    if name == "p1":
        n, supports = p1_structure()
        return n, supports[::300]
    if name == "p2":
        n, supports = p2_structure()
        return n, [s[:8] for s in supports[::16]]
    n, supports = p3_structure()
    return n, supports[::1300]


def _mini_system(name: str, degree: int, precision, rng, equations: int = 2):
    """Unit-circle complex-md equations over a thinned paper structure."""
    n, supports = _mini_structure(name)
    return [
        make_polynomial_from_structure(
            n,
            supports[e:] + supports[:e],
            degree,
            kind="complex_md",
            precision=precision,
            rng=rng,
        )
        for e in range(equations)
    ]


def _square_p1_system(degree: int, precision, rng, dimension: int = 6):
    """A square downscaled ``p1``: all four-variable products of ``dimension``
    variables, one cyclically shifted equation per variable — the smallest
    system that keeps the paper's m=4 monomial shape and is Newton-trackable."""
    supports = [tuple(c) for c in combinations(range(dimension), 4)]
    polynomials = [
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
    return polynomials


#: Two equations in three variables: five non-multilinear monomials (one
#: power level for the cubes, two factor steps) beside a multilinear one.
_NON_MULTILINEAR_EXPONENTS = (
    ({0: 2, 1: 1}, {1: 3, 2: 2}, {0: 1, 2: 1}),
    ({0: 3}, {1: 2, 2: 3}, {0: 1, 1: 1, 2: 2}),
)


def _non_multilinear_system(kind, precision, degree, rng):
    """The fixed-exponent system above with fresh random coefficient series."""
    polynomials = []
    for exponents in _NON_MULTILINEAR_EXPONENTS:
        series = random_series_vector(len(exponents) + 1, degree, kind, precision, rng)
        monomials = [Monomial.make(c, e) for c, e in zip(series[1:], exponents)]
        polynomials.append(Polynomial(3, series[0], monomials))
    return polynomials


def _count_common_factor_calls(monkeypatch):
    """Count scalar ``Monomial.split_common_factor`` calls."""
    counts = {"calls": 0}
    original = Monomial.split_common_factor

    def counting(self, *args, **kwargs):
        counts["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Monomial, "split_common_factor", counting)
    return counts


def _max_difference(batch_a, batch_b) -> float:
    return max(
        got.max_difference(expected)
        for row_a, row_b in zip(batch_a, batch_b)
        for got, expected in zip(row_a, row_b)
    )


# --------------------------------------------------------------------- #
# parity on the paper systems (unit-circle complex data)
# --------------------------------------------------------------------- #
#: Memoised staged oracles, as in test_tensor_backend: the scalar ComplexMD
#: sweeps are the slow part, so each (system, precision) runs them once.
_ORACLE_CACHE: dict = {}


def _parity_workload(name: str, precision: int):
    key = (name, precision)
    if key not in _ORACLE_CACHE:
        rng = random.Random(20210312 + precision)
        degree = 2
        polynomials = _mini_system(name, degree, precision, rng)
        n = polynomials[0].dimension
        zs = [
            random_series_vector(n, degree, "complex_md", precision, rng)
            for _ in range(8)
        ]
        cache = ScheduleCache()
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(
            zs
        )
        _ORACLE_CACHE[key] = (polynomials, zs, staged, cache)
    return _ORACLE_CACHE[key]


class TestComplexVectorizedParity:
    @pytest.mark.parametrize("name", ("p1", "p2", "p3"))
    @pytest.mark.parametrize("precision", (2, 4, 8))
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_unit_circle_parity_with_staged(self, name, precision, batch):
        """The complex sweeps replay the scalar ComplexMD operation order:
        bit-identical to the staged path at double-double precision, within
        a few last-limb ulps at higher limb counts (where the scalar and
        vectorised renormalisation sweeps can differ in the final limb, as
        for the real backend)."""
        polynomials, zs, staged, cache = _parity_workload(name, precision)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        vectorized = evaluator.evaluate_batch(zs[:batch])
        deviation = _max_difference(vectorized, staged[:batch])
        if precision == 2:
            assert deviation == 0.0
        else:
            assert deviation < _tolerance(precision)
        # Every instance of the wide sweep is bitwise the same work as its
        # own batch of one (the tensor operations are elementwise over rows).
        for b in range(1, batch):
            single = evaluator.evaluate_batch([zs[b]])[0]
            for got, expected in zip(vectorized[b], single):
                assert got.max_difference(expected) == 0.0
        metadata = vectorized[0][0].metadata
        assert metadata["mode"] == "vectorized"
        assert metadata["ring"] == "cmd"
        assert metadata["limbs"] == precision
        assert metadata["batch"] == batch

    def test_plain_complex_matches_staged_bitwise(self, rng):
        """One limb per plane: the sweeps collapse to Python's own complex
        double formulas, bit for bit."""
        polynomials = [
            random_polynomial(5, 4, 3, degree=3, kind="complex", rng=rng)
            for _ in range(3)
        ]
        zs = [random_series_vector(5, 3, "complex", 2, rng) for _ in range(4)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) == 0.0
        assert vectorized[0][0].metadata["ring"] == "complex"
        assert vectorized[0][0].metadata["limbs"] == 1

    def test_real_system_complex_inputs_joins_to_cmd(self, rng):
        """A float-ring system evaluated at complex-md inputs runs on the
        complex tensor (zero imaginary planes for the system data)."""
        polynomials = [
            random_polynomial(4, 3, 2, degree=2, kind="float", rng=rng) for _ in range(2)
        ]
        zs = [random_series_vector(4, 2, "complex_md", 4, rng) for _ in range(3)]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert vectorized[0][0].metadata["mode"] == "vectorized"
        assert vectorized[0][0].metadata["ring"] == "cmd"
        assert vectorized[0][0].metadata["limbs"] == 4
        assert _max_difference(vectorized, staged) < _tolerance(4)

    def test_general_exponents_complex_scale_layers(self, rng):
        polynomials = [
            random_polynomial(
                5, 4, 3, degree=3, kind="complex_md", precision=2, rng=rng, max_exponent=3
            )
            for _ in range(3)
        ]
        zs = [random_series_vector(5, 3, "complex_md", 2, rng) for _ in range(3)]
        cache = ScheduleCache()
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        assert any(
            layer.kind == "scale"
            for layer in compile_tensor_program(evaluator.fused).layers
        )
        vectorized = evaluator.evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert _max_difference(vectorized, staged) < _tolerance(2)

    def test_oversized_exact_ints_fall_back_to_staged(self, rng):
        """Integers beyond 53 bits stay exact on the staged object path; the
        tensor would round them, so the ring is reported unsupported and the
        packing helpers refuse them outright."""
        from repro.core import infer_ring

        big = 2**53 + 1
        assert infer_ring([PowerSeries([big, 0])]) is None
        assert infer_ring([PowerSeries([2**53, 0])]) == ("float", 1)
        with pytest.raises(TypeError):
            SlotTensor.pack([PowerSeries([big, 0])], limbs=1, ring="float")
        with pytest.raises(TypeError):
            SlotTensor.pack([PowerSeries([big, 0])], limbs=2, ring="md")
        with pytest.raises(TypeError):
            ComplexSlotTensor.pack([PowerSeries([big, 0])], limbs=2)
        polynomials = [
            random_polynomial(3, 2, 2, degree=2, kind="float", rng=rng) for _ in range(2)
        ]
        zs = [
            [PowerSeries([big, 1, 0]), PowerSeries([1.0, 0, 0]), PowerSeries([0.5, 0, 0])]
        ]
        cache = ScheduleCache()
        vectorized = SystemEvaluator(
            polynomials, mode="vectorized", cache=cache
        ).evaluate_batch(zs)
        staged = SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)
        assert vectorized[0][0].metadata["mode"] == "staged"
        assert _max_difference(vectorized, staged) == 0.0

    def test_join_rings_lattice(self):
        assert join_rings(("float", 1), ("md", 4)) == ("md", 4)
        assert join_rings(("float", 1), ("complex", 1)) == ("complex", 1)
        assert join_rings(("md", 2), ("complex", 1)) == ("cmd", 2)
        assert join_rings(("complex", 1), ("cmd", 8)) == ("cmd", 8)
        assert join_rings(("md", 4), ("cmd", 2)) == ("cmd", 4)


# --------------------------------------------------------------------- #
# ComplexSlotTensor gather/scatter
# --------------------------------------------------------------------- #
class TestComplexSlotTensor:
    @pytest.mark.parametrize("limbs", (1, 2, 4, 8))
    def test_cmd_gather_scatter_round_trips_exactly(self, limbs, rng):
        slots = [
            PowerSeries(
                [
                    ComplexMD(MultiDouble.random(limbs, rng), MultiDouble.random(limbs, rng))
                    for _ in range(3)
                ]
            )
            for _ in range(5)
        ]
        tensor = ComplexSlotTensor.pack(slots, limbs=limbs, ring="cmd")
        for original, back in zip(slots, tensor.to_slots()):
            for a, b in zip(original.coefficients, back.coefficients):
                assert a.real.limbs == b.real.limbs
                assert a.imag.limbs == b.imag.limbs

    def test_plain_complex_round_trips_exactly(self, rng):
        slots = [
            PowerSeries([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)])
            for _ in range(3)
        ]
        tensor = ComplexSlotTensor.pack(slots, limbs=1, ring="complex")
        for original, back in zip(slots, tensor.to_slots()):
            assert original.coefficients == back.coefficients

    def test_mixed_real_coefficients_get_zero_imaginary_planes(self, rng):
        slots = [
            PowerSeries([1.5, MultiDouble.random(2, rng), ComplexMD(0.25, -0.5)]),
        ]
        tensor = ComplexSlotTensor.pack(slots, limbs=2, ring="cmd")
        back = tensor.to_slots()[0]
        assert back.coefficients[0].to_complex() == 1.5 + 0j
        assert back.coefficients[0].imag.is_zero()
        assert back.coefficients[1].imag.is_zero()
        assert back.coefficients[2].to_complex() == 0.25 - 0.5j

    def test_pack_rejects_fractions_and_bad_shapes(self):
        with pytest.raises(TypeError):
            ComplexSlotTensor.pack([PowerSeries([Fraction(1, 3)])], limbs=2)
        with pytest.raises(ValueError):
            ComplexSlotTensor.pack([], limbs=2)
        with pytest.raises(ValueError):
            ComplexSlotTensor.pack(
                [PowerSeries([1j, 2j]), PowerSeries([1j])], limbs=1, ring="complex"
            )
        with pytest.raises(ValueError):
            ComplexSlotTensor(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)))

    def test_write_series_updates_both_planes_in_place(self, rng):
        slots = [PowerSeries([ComplexMD.zero(2)] * 3) for _ in range(4)]
        tensor = ComplexSlotTensor.pack(slots, limbs=2, ring="cmd")
        series = PowerSeries(
            [ComplexMD(MultiDouble.random(2, rng), MultiDouble.random(2, rng)) for _ in range(3)]
        )
        tensor.write_series(np.array([1, 3]), series)
        for row in (1, 3):
            back = tensor.series_at(row)
            for a, b in zip(series.coefficients, back.coefficients):
                assert a.real.limbs == b.real.limbs and a.imag.limbs == b.imag.limbs
        assert tensor.series_at(0) == PowerSeries([ComplexMD.zero(2)] * 3)
        tensor.zero_rows(np.array([1]))
        assert tensor.series_at(1).coefficients[0].is_zero()


# --------------------------------------------------------------------- #
# the complex convolution kernel
# --------------------------------------------------------------------- #
class TestConvolveRowsComplex:
    @pytest.mark.parametrize("limbs", (1, 2, 4))
    def test_many_pairs_match_scalar_complex_convolution(self, limbs, rng):
        m, n = 4, 5

        def random_series():
            if limbs == 1:
                return PowerSeries(
                    [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                )
            return PowerSeries(
                [
                    ComplexMD(MultiDouble.random(limbs, rng), MultiDouble.random(limbs, rng))
                    for _ in range(n)
                ]
            )

        xs = [random_series() for _ in range(m)]
        ys = [random_series() for _ in range(m)]
        ring = "complex" if limbs == 1 else "cmd"
        tx = ComplexSlotTensor.pack(xs, limbs=limbs, ring=ring)
        ty = ComplexSlotTensor.pack(ys, limbs=limbs, ring=ring)
        out_r, out_i = convolve_rows_complex(tx.real, tx.imag, ty.real, ty.imag, limbs)
        result = ComplexSlotTensor(out_r, out_i, ring)
        for j in range(m):
            expected = xs[j].convolve(ys[j])
            got = result.series_at(j)
            for a, b in zip(got.coefficients, expected.coefficients):
                if limbs == 1:
                    assert a == b
                else:
                    assert a.real.limbs == b.real.limbs
                    assert a.imag.limbs == b.imag.limbs

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convolve_rows_complex(
                np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.zeros((2, 3, 4)),
                np.zeros((2, 3, 5)), 2,
            )


# --------------------------------------------------------------------- #
# resident evaluation contexts
# --------------------------------------------------------------------- #
def _count_packs(monkeypatch):
    """Count every packed slot tensor with a call counter.

    Slot arrays pack through the two tensor ``pack`` classmethods; a
    resident context packs by filling a zero tensor with row writes
    (``EvalContext._pack``), counted when it leaves a resident tensor.
    """
    counts = {"packs": 0}
    real_pack = SlotTensor.pack.__func__
    complex_pack = ComplexSlotTensor.pack.__func__
    context_pack = EvalContext._pack

    def counting_real(cls, *args, **kwargs):
        counts["packs"] += 1
        return real_pack(cls, *args, **kwargs)

    def counting_complex(cls, *args, **kwargs):
        counts["packs"] += 1
        return complex_pack(cls, *args, **kwargs)

    def counting_context(self, *args, **kwargs):
        context_pack(self, *args, **kwargs)
        counts["packs"] += int(self.resident)

    monkeypatch.setattr(SlotTensor, "pack", classmethod(counting_real))
    monkeypatch.setattr(ComplexSlotTensor, "pack", classmethod(counting_complex))
    monkeypatch.setattr(EvalContext, "_pack", counting_context)
    return counts


class TestEvalContext:
    def test_context_runs_match_evaluate_batch_bitwise(self, rng):
        polynomials = _mini_system("p1", 2, 2, rng)
        zs1 = [
            random_series_vector(polynomials[0].dimension, 2, "complex_md", 2, rng)
            for _ in range(3)
        ]
        zs2 = [
            random_series_vector(polynomials[0].dimension, 2, "complex_md", 2, rng)
            for _ in range(3)
        ]
        cache = ScheduleCache()
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=cache)
        context = evaluator.make_context(3)
        context.update_inputs(zs1)
        first = context.run()
        context.update_inputs(zs2)
        second = context.run()
        assert _max_difference(first, evaluator.evaluate_batch(zs1)) == 0.0
        assert _max_difference(second, evaluator.evaluate_batch(zs2)) == 0.0
        assert context.packs == 1
        assert context.runs == 2
        assert context.resident
        assert first[0][0].metadata["resident_runs"] == 1

    def test_values_only_skips_gradients(self, rng):
        polynomials = _mini_system("p3", 2, 2, rng)
        zs = [
            random_series_vector(polynomials[0].dimension, 2, "complex_md", 2, rng)
            for _ in range(2)
        ]
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        context = evaluator.make_context(2)
        context.update_inputs(zs)
        full = context.run()
        values = context.run(values_only=True)
        for full_row, value_row in zip(full, values):
            for a, b in zip(full_row, value_row):
                assert b.gradient == []
                assert a.value.max_abs_error(b.value) == 0.0

    def test_context_interface_is_mode_agnostic(self, rng):
        """staged/parallel/reference contexts expose the same interface and
        produce the same results as their per-call paths."""
        polynomials = _mini_system("p1", 2, 2, rng)
        zs = [
            random_series_vector(polynomials[0].dimension, 2, "complex_md", 2, rng)
            for _ in range(2)
        ]
        cache = ScheduleCache()
        for mode in ("staged", "parallel", "reference"):
            evaluator = SystemEvaluator(polynomials, mode=mode, cache=cache)
            context = evaluator.make_context(2)
            context.update_inputs(zs)
            results = context.run()
            assert _max_difference(results, evaluator.evaluate_batch(zs)) == 0.0
            assert not context.resident
            values = context.run(values_only=True)
            assert values[0][0].gradient == []

    def test_fraction_context_delegates_to_staged(self, rng):
        polynomials = [
            random_polynomial(3, 2, 2, degree=2, kind="fraction", rng=rng)
            for _ in range(2)
        ]
        zs = [random_series_vector(3, 2, "fraction", 2, rng) for _ in range(2)]
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        context = evaluator.make_context(2)
        context.update_inputs(zs)
        results = context.run()
        assert results[0][0].metadata["mode"] == "staged"
        assert context.packs == 0
        assert not context.resident

    @pytest.mark.parametrize("batch", [4, 16], ids=["per-lane", "batched"])
    @pytest.mark.parametrize(
        "kind,precision",
        [("float", 1), ("md", 2), ("md", 4), ("complex_md", 2)],
        ids=["float", "dd", "qd", "complex-dd"],
    )
    def test_non_multilinear_resident_updates(
        self, kind, precision, batch, rng, monkeypatch
    ):
        """Adjusted coefficients depend on z; every resident update must
        recompute them — lane by lane for 4 lanes (20 rows), as whole-batch
        convolutions for 16 (80 rows, 45 masked) — bit for bit like a
        one-lane evaluate_batch, whose update runs split_common_factor."""
        degree = 3
        cache = ScheduleCache()
        evaluator = SystemEvaluator(
            _non_multilinear_system(kind, precision, degree, rng),
            mode="vectorized",
            cache=cache,
        )
        plan = compile_tensor_program(evaluator.fused).common_factor
        assert len(plan.monomials) == 5 and len(plan.levels) == 1 and len(plan.steps) == 2
        calls = _count_common_factor_calls(monkeypatch)
        context = evaluator.make_context(batch)

        def step(zs, evaluators, lanes):
            before = calls["calls"]
            context.update_inputs(zs)
            if batch == 16:
                assert calls["calls"] == before  # no scalar common factor
            else:
                assert calls["calls"] == before + 5 * len(lanes)
            results = context.run()
            for b in lanes:
                expected = evaluators[b].evaluate_batch([zs[b]])
                assert _max_difference([results[b]], expected) == 0.0

        def inputs(kinds=None):
            kinds = kinds or [kind] * batch
            return [random_series_vector(3, degree, k, precision, rng) for k in kinds]

        everyone = list(range(batch))
        same = [evaluator] * batch
        for _ in range(2):  # the first update packs
            step(inputs(), same, everyone)
        # A masked step: the other lanes keep their rows untouched.
        active = [0] + list(range(1, batch, 2))
        context.set_active(active)
        step(inputs(), same, active)
        context.set_active(None)
        # A fleet rebind: every lane gets its own coefficients.
        systems = [
            SystemEvaluator(
                _non_multilinear_system(kind, precision, degree, rng),
                mode="vectorized",
                cache=cache,
            )
            for _ in range(batch)
        ]
        context.rebind_fleet(systems)
        step(inputs(), systems, everyone)
        # Every other lane in a narrower ring, like tracked paths that keep
        # their float start values in a double-double fleet: powers run in
        # that ring, factor steps in the tensor's.
        narrower = {"md": "float", "complex_md": "md"}.get(kind)
        if narrower is not None:
            step(inputs([narrower, kind] * (batch // 2)), systems, everyone)
        assert context.packs == 1

    def test_common_factor_path_selection(self, rng, monkeypatch):
        """A wide update computes the common factors as whole-batch
        convolutions, without one scalar call; a one-lane update calls
        split_common_factor once per non-multilinear monomial."""
        degree = 3
        evaluator = SystemEvaluator(
            _non_multilinear_system("md", 2, degree, rng),
            mode="vectorized",
            cache=ScheduleCache(),
        )
        calls = _count_common_factor_calls(monkeypatch)
        wide = evaluator.make_context(32)
        wide.update_inputs(
            [random_series_vector(3, degree, "md", 2, rng) for _ in range(32)]
        )
        assert calls["calls"] == 0
        narrow = evaluator.make_context(1)
        narrow.update_inputs([random_series_vector(3, degree, "md", 2, rng)])
        assert calls["calls"] == 5

    def test_first_pack_equals_the_per_call_pack_bytewise(self, rng):
        """The first update fills a zero tensor through the row writes; the
        result equals packing the per-call slot array byte for byte, signed
        zeros of negative float constants included.  Every other lane of a
        mixed batch has inputs in the second ring: float lanes batch in the
        float ring under double-double coefficients, but stay per lane
        under float coefficients, whose scalar products round to doubles."""
        for kind, precision, batch, other in (
            ("float", 1, 2, None),
            ("float", 1, 16, None),
            ("float", 1, 16, ("md", 2)),
            ("md", 2, 16, None),
            ("md", 2, 16, ("float", 1)),
            ("md", 4, 2, None),
            ("complex", 1, 16, None),
            ("complex_md", 2, 16, ("md", 2)),
        ):
            rings = [(kind, precision), other or (kind, precision)] * (batch // 2)
            polynomials = _non_multilinear_system(kind, precision, 3, rng)
            # constant * 0 fills the per-call product region: -0.0 here
            if kind == "float":
                polynomials[0].constant.coefficients[0] = -0.5
            elif kind == "complex":
                polynomials[0].constant.coefficients[0] = complex(-0.5, -0.25)
            evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
            zs = [random_series_vector(3, 3, k, p, rng) for k, p in rings]
            context = evaluator.make_context(batch)
            context.update_inputs(zs)
            expected = make_tensor(evaluator._prepare_batch_slots(zs), *context.ring)
            got = context._tensor
            assert type(got) is type(expected)
            if kind in ("float", "complex"):
                assert any(np.signbit(p[p == 0.0]).any() for p in expected.planes)
            for mine, theirs in zip(got.planes, expected.planes):
                assert mine.tobytes() == theirs.tobytes()

    def test_resident_update_repacks_on_wider_ring(self, rng):
        """Later inputs in a wider ring (more limbs, or complex into a real
        tensor) must repack, keeping runs bit-identical to evaluate_batch."""
        polynomials = [
            random_polynomial(3, 3, 2, degree=2, kind="float", rng=rng) for _ in range(2)
        ]
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        context = evaluator.make_context(2)
        narrow = [random_series_vector(3, 2, "md", 2, rng) for _ in range(2)]
        context.update_inputs(narrow)
        context.run()
        assert context.packs == 1
        for kind, precision, ring in (("md", 4, "md"), ("complex_md", 2, "cmd")):
            zs = [random_series_vector(3, 2, kind, precision, rng) for _ in range(2)]
            context.update_inputs(zs)
            results = context.run()
            assert _max_difference(results, evaluator.evaluate_batch(zs)) == 0.0
            assert results[0][0].metadata["ring"] == ring
            assert results[0][0].metadata["limbs"] == precision
        assert context.packs == 3  # one repack per ring widening

    def test_batch_mismatch_rejected(self, rng):
        polynomials = _mini_system("p1", 2, 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="vectorized", cache=ScheduleCache())
        context = evaluator.make_context(2)
        from repro.errors import StagingError

        with pytest.raises(StagingError):
            context.update_inputs(
                [random_series_vector(polynomials[0].dimension, 2, "complex_md", 2, rng)]
            )
        with pytest.raises(StagingError):
            context.run()  # no inputs loaded yet


class TestResidentNewton:
    def test_newton_packs_exactly_once(self, rng, monkeypatch):
        """The acceptance assertion: a resident-context Newton run performs
        exactly one SlotTensor pack, however many iterations it sweeps."""
        counts = _count_packs(monkeypatch)
        polynomials = _square_p1_system(3, 2, rng)
        system = PolynomialSystem(polynomials, mode="vectorized", cache=ScheduleCache())
        initials = [
            [
                PowerSeries.constant(
                    ComplexMD.unit_circle(rng.uniform(0.0, 6.28), 2), system.degree
                )
                for _ in range(system.dimension)
            ]
            for _ in range(3)
        ]
        results = newton_power_series_batch(
            system, initials, options=NewtonOptions(max_iterations=3)
        )
        assert counts["packs"] == 1
        assert len(results) == 3
        assert all(r.iterations >= 1 for r in results)

    def test_complex_newton_vectorized_bit_identical_to_staged(self, rng):
        """The end-to-end acceptance criterion: a complex batched Newton
        sweep through the vectorized backend reproduces the staged ComplexMD
        path bit for bit (same residuals, same solution limbs)."""
        polynomials = _square_p1_system(3, 2, rng)
        cache = ScheduleCache()
        system = PolynomialSystem(polynomials, mode="staged", cache=cache)
        initials = [
            [
                PowerSeries.constant(
                    ComplexMD.unit_circle(rng.uniform(0.0, 6.28), 2), system.degree
                )
                for _ in range(system.dimension)
            ]
            for _ in range(3)
        ]
        options = NewtonOptions(max_iterations=3)
        staged = newton_power_series_batch(system, initials, options=options)
        vectorized = newton_power_series_batch(
            system, initials, options=options.override(mode="vectorized")
        )
        for a, b in zip(staged, vectorized):
            assert a.iterations == b.iterations
            assert [s.residual for s in a.steps] == [s.residual for s in b.steps]
            for sa, sb in zip(a.solution, b.solution):
                for ca, cb in zip(sa.coefficients, sb.coefficients):
                    assert ca.real.limbs == cb.real.limbs
                    assert ca.imag.limbs == cb.imag.limbs

    def test_scalar_newton_accepts_shared_context(self, rng):
        polynomials = _square_p1_system(3, 2, rng)
        system = PolynomialSystem(polynomials, mode="vectorized", cache=ScheduleCache())
        context = system.make_context(1)
        initial = [
            PowerSeries.constant(
                ComplexMD.unit_circle(rng.uniform(0.0, 6.28), 2), system.degree
            )
            for _ in range(system.dimension)
        ]
        options = NewtonOptions(max_iterations=2)
        first = newton_power_series(system, initial, context=context, options=options)
        second = newton_power_series(system, initial, context=context, options=options)
        assert context.packs == 1  # both refinements shared one packed tensor
        assert [s.residual for s in first.steps] == [s.residual for s in second.steps]


_VECTORIZED_TRACK = TrackOptions().override(degree=4, step=0.25, mode="vectorized")


class TestResidentTracking:
    def _builder(self, cache):
        from repro.circuits import Polynomial

        def builder(t0, degree):
            constant = PowerSeries([-t0, -1.0] + [0.0] * (degree - 1))
            polynomial = Polynomial.from_supports(
                1, constant, [(0,)], [PowerSeries.one(degree)]
            )
            return PolynomialSystem([polynomial], mode="staged", cache=cache)

        return builder

    def test_track_many_packs_once_across_steps(self, rng, monkeypatch):
        """One resident context (and one pack) carries the whole track: the
        per-step systems differ only in coefficients and are rebound."""
        counts = _count_packs(monkeypatch)
        cache = ScheduleCache()
        tracker = TaylorPathTracker(self._builder(cache), options=_VECTORIZED_TRACK)
        results = tracker.track_many([[0.0], [0.0]])
        assert all(r.success for r in results)
        assert counts["packs"] == 1
        assert all(abs(r.final_values[0] - 1.0) < 1e-10 for r in results)

    def test_track_scalar_packs_once_across_steps(self, rng, monkeypatch):
        counts = _count_packs(monkeypatch)
        cache = ScheduleCache()
        tracker = TaylorPathTracker(self._builder(cache), options=_VECTORIZED_TRACK)
        result = tracker.track([0.0])
        assert result.success
        assert counts["packs"] == 1
        assert abs(result.final_values[0] - 1.0) < 1e-10

    def test_structure_varying_builder_gets_fresh_contexts(self, rng, monkeypatch):
        """A homotopy builder may change the monomial structure along the
        path; the Newton drivers then build a fresh context per structure
        instead of crashing on rebind."""
        from repro.circuits import Polynomial

        counts = _count_packs(monkeypatch)
        cache = ScheduleCache()

        def builder(t0, degree):
            # p(x) = x - t0 - s for t < 0.5; afterwards the same path with
            # an extra (numerically zero) x^2 monomial — different structure.
            constant = PowerSeries([-t0, -1.0] + [0.0] * (degree - 1))
            supports = [(0,)] if t0 < 0.5 else [(0,), (0,)]
            coefficients = [PowerSeries.one(degree)] + (
                [PowerSeries.zero(degree)] if t0 >= 0.5 else []
            )
            monomials = []
            from repro.circuits.monomial import Monomial

            for support, coefficient in zip(supports, coefficients):
                exponents = {0: 2} if len(monomials) == 1 else {0: 1}
                monomials.append(Monomial.make(coefficient, exponents))
            return PolynomialSystem(
                [Polynomial(1, constant, monomials)], mode="staged", cache=cache
            )

        tracker = TaylorPathTracker(builder, options=_VECTORIZED_TRACK)
        result = tracker.track([0.0])
        assert result.success
        assert abs(result.final_values[0] - 1.0) < 1e-10
        assert counts["packs"] == 2  # one per structure, not one per step

    def test_rebind_rejects_different_structure(self, rng):
        a = SystemEvaluator(
            _mini_system("p1", 2, 2, rng), mode="vectorized", cache=ScheduleCache()
        )
        b = SystemEvaluator(
            _mini_system("p3", 2, 2, rng), mode="vectorized", cache=ScheduleCache()
        )
        context = a.make_context(1)
        from repro.errors import StagingError

        with pytest.raises(StagingError):
            context.rebind(b)


# --------------------------------------------------------------------- #
# per-key schedule-cache build locks (satellite)
# --------------------------------------------------------------------- #
class TestPerKeyBuildLocks:
    def test_hit_does_not_wait_on_unrelated_build(self):
        """A cache hit on key B must complete while key A's builder is still
        running — the per-key lock satellite."""
        cache = ScheduleCache()
        cache.get(("b",), lambda: "fast")
        release = threading.Event()
        started = threading.Event()

        def slow_builder():
            started.set()
            release.wait(timeout=5.0)
            return "slow"

        slow_thread = threading.Thread(target=lambda: cache.get(("a",), slow_builder))
        slow_thread.start()
        assert started.wait(timeout=5.0)
        # Key A's build is now in flight and holds only its own build lock.
        begun = time.perf_counter()
        assert cache.get(("b",), lambda: "never") == "fast"
        elapsed = time.perf_counter() - begun
        release.set()
        slow_thread.join(timeout=5.0)
        assert not slow_thread.is_alive()
        assert elapsed < 1.0  # the hit never waited on the slow build
        assert cache.get(("a",), lambda: "never") == "slow"

    def test_failed_builds_keep_their_lock_until_a_build_lands(self):
        """A failing builder leaves the per-key lock in place (queued
        threads must retry under the same lock, not race a fresh one); the
        lock is dropped once a build succeeds or the cache is cleared."""
        cache = ScheduleCache()

        def failing():
            raise RuntimeError("staging exploded")

        with pytest.raises(RuntimeError):
            cache.get(("k",), failing)
        assert ("k",) in cache._build_locks
        assert cache.get(("k",), lambda: "built") == "built"
        assert cache._build_locks == {}
        with pytest.raises(RuntimeError):
            cache.get(("gone",), failing)
        cache.clear()
        assert cache._build_locks == {}

    def test_failed_build_retries_stay_serialised(self):
        """Two threads racing a key whose first build fails must never run
        their builders concurrently (the per-key guarantee)."""
        cache = ScheduleCache()
        in_builder = threading.Semaphore(1)
        overlaps = []
        calls = []

        def builder():
            if not in_builder.acquire(blocking=False):
                overlaps.append(True)  # pragma: no cover - only on failure
            try:
                calls.append(1)
                time.sleep(0.02)
                if len(calls) == 1:
                    raise RuntimeError("first build fails")
                return "ok"
            finally:
                in_builder.release()

        def worker():
            try:
                cache.get(("k",), builder)
            except RuntimeError:
                cache.get(("k",), builder)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not overlaps
        assert cache.get(("k",), lambda: "never") == "ok"

    def test_unrelated_builds_run_concurrently(self):
        cache = ScheduleCache()
        barrier = threading.Barrier(2, timeout=5.0)
        seen = []

        def builder(name):
            # Both builders must be inside their build sections at once to
            # pass the barrier; a global build lock would deadlock here.
            barrier.wait()
            seen.append(name)
            return name

        threads = [
            threading.Thread(target=lambda k=key: cache.get((k,), lambda: builder(k)))
            for key in ("x", "y")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(seen) == ["x", "y"]
        assert cache.stats()["misses"] == 2


# --------------------------------------------------------------------- #
# resident timing model (gpusim satellite of the tentpole)
# --------------------------------------------------------------------- #
class TestResidentTiming:
    def test_predict_resident_saves_transfer_after_first_step(self, rng):
        polynomials = _mini_system("p1", 3, 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="staged", cache=ScheduleCache())
        model = TimingModel(device="P100", precision=2)
        report = model.predict_resident(evaluator.fused, batch=4, steps=6, planes=2)
        assert report["steps"] == 6
        assert report["update_series"] < report["input_series"]
        assert report["update_transfer_ms"] < report["full_transfer_ms"]
        assert report["resident_wall_ms"] < report["repack_wall_ms"]
        expected_saving = 5 * (
            report["full_transfer_ms"] - report["update_transfer_ms"]
        )
        assert report["transfer_saved_ms"] == pytest.approx(expected_saving)
        single = model.predict_resident(evaluator.fused, batch=4, steps=1)
        assert single["transfer_saved_ms"] == pytest.approx(0.0)
        with pytest.raises(ValueError):
            model.predict_resident(evaluator.fused, steps=0)

    def test_gpu_context_annotates_resident_transfers(self, rng):
        polynomials = [
            random_polynomial(3, 3, 2, degree=2, kind="md", precision=2, rng=rng)
            for _ in range(3)
        ]
        evaluator = SystemEvaluator(polynomials, mode="gpu", cache=ScheduleCache())
        zs = [random_series_vector(3, 2, "md", 2, rng) for _ in range(2)]
        context = evaluator.make_context(2)
        context.update_inputs(zs)
        first = context.run()[0][0].metadata["resident_transfer"]
        context.update_inputs(zs)
        second = context.run()[0][0].metadata["resident_transfer"]
        assert first["run"] == 1 and second["run"] == 2
        assert second["series"] < first["series"]
        assert second["h2d_ms"] < first["h2d_ms"]

    def test_predict_masked_prices_the_shrinking_fleet(self, rng):
        """Masked sweeps must cost less than full-batch sweeps, monotonically."""
        polynomials = _mini_system("p1", 3, 2, rng)
        evaluator = SystemEvaluator(polynomials, mode="staged", cache=ScheduleCache())
        model = TimingModel(device="P100", precision=2)
        report = model.predict_masked(evaluator.fused, batch=32, active=4, steps=5)
        assert report["steps"] == 5
        assert report["batch"] == 32 and report["active"] == 4
        assert report["wall_ms_per_masked_step"] < report["wall_ms_per_full_step"]
        assert report["update_transfer_masked_ms"] < report["update_transfer_full_ms"]
        assert report["masked_wall_ms"] < report["full_wall_ms"]
        assert report["masked_saved_ms"] == pytest.approx(
            report["full_wall_ms"] - report["masked_wall_ms"]
        )
        # The saving grows as the active set shrinks...
        wider = model.predict_masked(evaluator.fused, batch=32, active=16, steps=5)
        assert wider["masked_saved_ms"] < report["masked_saved_ms"]
        # ...a fully active fleet costs exactly the full sweep...
        flat = model.predict_masked(evaluator.fused, batch=32, active=32)
        assert flat["masked_saved_ms"] == pytest.approx(0.0)
        # ...and a drained fleet launches nothing at all.
        empty = model.predict_masked(evaluator.fused, batch=32, active=0)
        assert empty["masked_wall_ms"] == 0.0
        with pytest.raises(ValueError):
            model.predict_masked(evaluator.fused, batch=32, active=33)
        with pytest.raises(ValueError):
            model.predict_masked(evaluator.fused, batch=0, active=0)
        with pytest.raises(ValueError):
            model.predict_masked(evaluator.fused, batch=4, active=2, steps=0)
