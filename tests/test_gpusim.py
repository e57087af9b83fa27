"""Tests for the simulated GPU substrate: devices, memory, kernels, executor."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.circuits import Polynomial
from repro.core import PolynomialEvaluator, build_schedule, fuse_schedules
from repro.errors import DeviceCapacityError
from repro.gpusim import (
    DeviceData,
    GPUSimulator,
    TABLE1_DEVICES,
    addition_block,
    check_block_fits,
    convolution_block,
    convolution_block_threaded,
    get_device,
    max_degree_for_precision,
    scale_block,
    shared_memory_needed,
)
from repro.md import MultiDouble
from repro.series import PowerSeries, convolve_direct, random_md_series


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


class TestKernels:
    def test_device_data_roundtrip(self, rng):
        data = DeviceData(limbs=3, total_slots=4, degree=2)
        series = random_md_series(2, 3, rng)
        data.load_series(1, series.coefficients)
        back = data.read_series(1)
        assert all((a - b).to_float() == 0.0 for a, b in zip(series.coefficients, back))

    def test_convolution_block_matches_host(self, rng):
        degree, limbs = 4, 2
        x = random_md_series(degree, limbs, rng)
        y = random_md_series(degree, limbs, rng)
        data = DeviceData(limbs, total_slots=3, degree=degree)
        data.load_series(0, x.coefficients)
        data.load_series(1, y.coefficients)
        convolution_block(data, 0, degree + 1, 2 * (degree + 1))
        result = data.read_series(2)
        expected = convolve_direct(x.coefficients, y.coefficients)
        for got, exact in zip(result, expected):
            assert abs((got - exact).to_fraction()) < Fraction(2) ** (-90)

    def test_in_place_convolution(self, rng):
        degree, limbs = 3, 2
        x = random_md_series(degree, limbs, rng)
        y = random_md_series(degree, limbs, rng)
        data = DeviceData(limbs, total_slots=2, degree=degree)
        data.load_series(0, x.coefficients)
        data.load_series(1, y.coefficients)
        convolution_block(data, 0, degree + 1, 0)  # x := x * y
        expected = convolve_direct(x.coefficients, y.coefficients)
        for got, exact in zip(data.read_series(0), expected):
            assert abs((got - exact).to_fraction()) < Fraction(2) ** (-90)

    def test_addition_and_scale_blocks(self, rng):
        degree, limbs = 3, 2
        x = random_md_series(degree, limbs, rng)
        y = random_md_series(degree, limbs, rng)
        data = DeviceData(limbs, total_slots=2, degree=degree)
        data.load_series(0, x.coefficients)
        data.load_series(1, y.coefficients)
        addition_block(data, 0, degree + 1)
        for got, a, b in zip(data.read_series(1), x.coefficients, y.coefficients):
            assert abs((got - (a + b)).to_fraction()) < Fraction(2) ** (-95)
        scale_block(data, 0, 3)
        for got, a in zip(data.read_series(0), x.coefficients):
            assert abs((got - a * 3).to_fraction()) < Fraction(2) ** (-95)

    def test_threaded_kernel_matches_vectorised(self, rng):
        degree, limbs = 5, 3
        x = random_md_series(degree, limbs, rng)
        y = random_md_series(degree, limbs, rng)
        threaded = convolution_block_threaded(x.coefficients, y.coefficients, limbs)
        expected = convolve_direct(x.coefficients, y.coefficients)
        for got, exact in zip(threaded, expected):
            assert abs((got - exact).to_fraction()) < Fraction(2) ** (-52 * limbs + 12)

    def test_threaded_kernel_accepts_floats(self):
        result = convolution_block_threaded([1.0, 2.0], [3.0, 4.0], 2)
        assert [r.to_float() for r in result] == [3.0, 10.0]

    def test_threaded_kernel_validates_lengths(self):
        with pytest.raises(ValueError):
            convolution_block_threaded([1.0, 2.0], [1.0], 2)


class TestGPUSimulator:
    def test_run_produces_timings_and_values(self, rng):
        schedule = build_schedule(3, [(0, 1, 2), (0, 2)], degree=3)
        # Build host slots: a0, a1, a2, z1..z3 then zero products.
        slots = [PowerSeries.constant(MultiDouble.zero(2), 3) for _ in range(schedule.layout.total_slots)]
        slots[0] = random_md_series(3, 2, rng)
        slots[1] = random_md_series(3, 2, rng)
        slots[2] = random_md_series(3, 2, rng)
        for v in range(3):
            slots[schedule.layout.variable_slot(v)] = random_md_series(3, 2, rng)
        simulator = GPUSimulator("P100")
        outcome = simulator.run_system(fuse_schedules([schedule]), slots)
        assert outcome.limbs == 2
        assert outcome.timings.n_launches == schedule.total_launches
        assert outcome.timings.wall_clock_ms > 0
        # The value slot contains a1*z1*z2*z3 + a2*z1*z3 + a0.
        expected = (
            slots[1] * slots[schedule.layout.variable_slot(0)]
            * slots[schedule.layout.variable_slot(1)]
            * slots[schedule.layout.variable_slot(2)]
            + slots[2] * slots[schedule.layout.variable_slot(0)] * slots[schedule.layout.variable_slot(2)]
            + slots[0]
        )
        value = outcome.slots[schedule.value_slot]
        assert value.max_abs_error(expected) < 1e-25

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

    def test_shared_memory_violation_raises(self, rng):
        schedule = build_schedule(2, [(0, 1)], degree=160)
        slots = [PowerSeries.constant(MultiDouble.zero(10), 160) for _ in range(schedule.layout.total_slots)]
        with pytest.raises(DeviceCapacityError):
            GPUSimulator("V100").run_system(fuse_schedules([schedule]), slots)
