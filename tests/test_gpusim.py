"""Tests for the simulated GPU substrate: devices, memory, the gpu mode."""

from __future__ import annotations

import pytest

from repro.circuits import Polynomial
from repro.core import (
    EvalContext,
    PolynomialEvaluator,
    ScheduleCache,
    SystemEvaluator,
    build_schedule,
)
from repro.errors import DeviceCapacityError
from repro.gpusim import (
    GPUSimulator,
    TABLE1_DEVICES,
    check_block_fits,
    get_device,
    max_degree_for_precision,
    shared_memory_needed,
)
from repro.md import MultiDouble
from repro.series import PowerSeries, random_md_series


class TestDeviceRegistry:
    def test_table1_presets(self):
        assert set(TABLE1_DEVICES) == {"C2050", "K20C", "P100", "V100", "RTX2080"}
        v100 = TABLE1_DEVICES["V100"]
        assert v100.multiprocessors == 80
        assert v100.cores_per_mp == 64
        assert v100.cores == 5120
        assert v100.clock_ghz == 1.91
        p100 = TABLE1_DEVICES["P100"]
        assert p100.cores == 3584
        c2050 = TABLE1_DEVICES["C2050"]
        assert c2050.cores == 448

    def test_peak_ratio_matches_paper(self):
        """The paper expects the V100 to be about 1.68x faster than the P100."""
        ratio = TABLE1_DEVICES["V100"].peak_double_gflops / TABLE1_DEVICES["P100"].peak_double_gflops
        assert ratio == pytest.approx(1.68, rel=0.03)

    def test_peak_values_close_to_datasheet(self):
        assert TABLE1_DEVICES["P100"].peak_double_gflops == pytest.approx(4700, rel=0.05)
        assert TABLE1_DEVICES["V100"].peak_double_gflops == pytest.approx(7900, rel=0.05)

    def test_lookup_aliases(self):
        assert get_device("v100").name == "Volta V100"
        assert get_device("Tesla C2050").name == "Tesla C2050"
        assert get_device("rtx 2080").name == "GeForce RTX 2080"
        assert get_device(None).name == "Volta V100"
        spec = TABLE1_DEVICES["P100"]
        assert get_device(spec) is spec

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("A100")
        with pytest.raises(TypeError):
            get_device(123)


class TestSharedMemoryModel:
    def test_bytes_needed(self):
        # 4 * (d+1) numbers of 8*limbs bytes.
        assert shared_memory_needed(152, 10) == 4 * 153 * 80
        assert shared_memory_needed(0, 1) == 32

    def test_paper_degree_ceilings(self):
        """Deca doubles top out at degree 152, octo doubles at 191 (Tables 5-7)."""
        assert max_degree_for_precision(10) == 152
        assert max_degree_for_precision(8) == 191
        assert max_degree_for_precision(5) >= 191
        assert max_degree_for_precision(4) >= 191

    def test_check_block_fits(self):
        check_block_fits(152, 10)
        with pytest.raises(DeviceCapacityError):
            check_block_fits(153, 10)
        with pytest.raises(DeviceCapacityError):
            check_block_fits(192, 8)


class TestGPUSimulator:
    def test_run_produces_timings_and_values(self, rng):
        degree = 3
        constant, a1, a2 = (random_md_series(degree, 2, rng) for _ in range(3))
        polynomial = Polynomial.from_supports(3, constant, [(0, 1, 2), (0, 2)], [a1, a2])
        z = [random_md_series(degree, 2, rng) for _ in range(3)]
        evaluator = SystemEvaluator(
            [polynomial], mode="gpu", device="P100", cache=ScheduleCache()
        )
        (result,) = evaluator.evaluate(z)
        timings = result.metadata["timings"]
        assert result.metadata["precision_limbs"] == 2
        assert timings.n_launches == result.metadata["launches"] == evaluator.fused.total_launches
        assert timings.wall_clock_ms > 0
        # The value is a1*z1*z2*z3 + a2*z1*z3 + a0.
        expected = a1 * z[0] * z[1] * z[2] + a2 * z[0] * z[2] + constant
        assert result.value.max_abs_error(expected) < 1e-25

    def test_predict_without_execution(self):
        schedule = build_schedule(4, [(0, 1, 2, 3)] * 5, degree=8)
        report = GPUSimulator("V100").predict(schedule, precision=4)
        assert report.convolution_ms > 0
        assert report.wall_clock_ms > report.sum_ms

    def test_report_aggregates_are_floats_without_launches(self):
        """A constant-only polynomial launches nothing in ``gpu`` mode; its
        report still sums to float zeros, as annotated."""
        constant = PowerSeries.constant(MultiDouble.from_float(1.5, 2), 2)
        polynomial = Polynomial(2, constant, [])
        z = [PowerSeries.constant(MultiDouble.from_float(0.25, 2), 2) for _ in range(2)]
        report = PolynomialEvaluator(polynomial, mode="gpu").evaluate(z).metadata["timings"]
        assert report.launches == []
        for name in ("convolution_ms", "addition_ms", "sum_ms", "wall_clock_ms"):
            value = getattr(report, name)
            assert type(value) is float
            assert value.hex() == "0x0.0p+0"

    def test_shared_memory_violation_raises(self, rng, monkeypatch):
        """Degree 160 in deca doubles exceeds one block's shared memory; the
        gpu mode refuses it before packing anything."""
        degree = 160
        polynomial = Polynomial.from_supports(
            2, random_md_series(degree, 10, rng), [(0, 1)], [random_md_series(degree, 10, rng)]
        )
        z = [random_md_series(degree, 10, rng) for _ in range(2)]

        def pack(*args, **kwargs):
            raise AssertionError("packed before the capacity check")

        monkeypatch.setattr(EvalContext, "_pack", pack)
        evaluator = SystemEvaluator([polynomial], mode="gpu", device="V100", cache=ScheduleCache())
        with pytest.raises(DeviceCapacityError):
            evaluator.evaluate(z)
