"""Tests for the timing model, its calibration and the flop accounting."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import launch_structure
from repro.analysis.paperdata import SECTION62_FLOP_COUNTS, TABLE3_P1_DECA_D152
from repro.core import build_schedule
from repro.errors import DeviceCapacityError
from repro.gpusim import (
    TimingModel,
    addition_double_ops,
    calibration_degree,
    convolution_double_ops,
    efficiency_for,
    efficiency_table,
    evaluation_double_ops,
    tflops,
)
from repro.gpusim.calibration import PAPER_V100_P1_CONVOLUTION_MS


class TestFlopAccounting:
    def test_section_6_2_totals(self):
        """Reproduce the double-operation counts of Section 6.2 exactly."""
        flops = evaluation_double_ops(16380, 9084, 152, 10)
        assert flops.total == SECTION62_FLOP_COUNTS["total_double_ops"]

    def test_section_6_2_tflops(self):
        rate = tflops(16380, 9084, 152, 10, milliseconds=1066.0)
        assert rate == pytest.approx(SECTION62_FLOP_COUNTS["p100_tflops"], abs=0.01)

    def test_per_job_counts(self):
        assert convolution_double_ops(152, 10) == 153 * 153 * 3089 + 152 * 153 * 397
        assert addition_double_ops(152, 10) == 153 * 397
        assert convolution_double_ops(0, 1) == 1

    def test_flopcount_tflops_handles_zero_time(self):
        flops = evaluation_double_ops(10, 10, 8, 2)
        assert flops.tflops(0.0) == float("inf")
        assert flops.tflops(1000.0) > 0


class TestCalibration:
    def test_calibration_reproduces_v100_column(self):
        """Predicted p1 convolution times at d=152 match the calibration data.

        For two and more limbs the efficiency is solved exactly, so the model
        reproduces the measured time to within rounding.  Plain doubles are
        overhead-bound (the efficiency is clamped at 1), so only an upper
        bound within a factor of two is asserted there.
        """
        structure = launch_structure("p1")
        degree = calibration_degree()
        for limbs, expected in PAPER_V100_P1_CONVOLUTION_MS.items():
            model = TimingModel("V100", limbs)
            report = model.predict_from_launch_sizes(
                structure.convolution_launches, (), degree
            )
            if limbs >= 2:
                assert report.convolution_ms == pytest.approx(expected, rel=0.02)
            else:
                assert expected <= report.convolution_ms <= 2.0 * expected

    def test_efficiency_values_are_physical(self):
        table = efficiency_table()
        for limbs, efficiency in table.items():
            assert 0.0 < efficiency <= 1.0
        # higher precisions are compute bound with broadly similar efficiency
        assert table[10] > 0.2
        assert efficiency_for(6) > 0.0  # interpolated value
        assert efficiency_for(20) == table[10]
        assert efficiency_for(1) == table[1]


class TestTimingModel:
    def test_table3_shape_across_devices(self):
        """Model wall clocks stay within ~25% of Table 3 on every device."""
        structure = launch_structure("p1")
        for device, row in TABLE3_P1_DECA_D152.items():
            model = TimingModel(device, 10)
            report = model.predict_from_launch_sizes(
                structure.convolution_launches, structure.addition_launches, 152
            )
            assert report.wall_clock_ms == pytest.approx(row["wall clock"], rel=0.25)

    def test_device_ranking_matches_paper(self):
        structure = launch_structure("p1")
        walls = {}
        for device in ("C2050", "K20C", "P100", "V100", "RTX2080"):
            walls[device] = TimingModel(device, 10).predict_from_launch_sizes(
                structure.convolution_launches, structure.addition_launches, 152
            ).wall_clock_ms
        assert walls["V100"] < walls["P100"] < walls["RTX2080"] < walls["K20C"] < walls["C2050"]

    def test_monotone_in_degree_and_precision(self):
        schedule = build_schedule(4, [(0, 1, 2, 3)] * 8, degree=0)
        launches = (schedule.convolution_launches, schedule.addition_launches)
        previous = 0.0
        for degree in (0, 8, 31, 63):
            report = TimingModel("V100", 4).predict_from_launch_sizes(*launches, degree)
            assert report.sum_ms > previous
            previous = report.sum_ms
        previous = 0.0
        for limbs in (1, 2, 3, 4, 5, 8, 10):
            report = TimingModel("V100", limbs).predict_from_launch_sizes(*launches, 63)
            assert report.sum_ms >= previous
            previous = report.sum_ms

    def test_wave_quantisation_effect(self):
        """256-block launches under-occupy the V100 more than the P100 (Section 6.2)."""
        structure = launch_structure("p2")
        p100 = TimingModel("P100", 10).predict_from_launch_sizes(
            structure.convolution_launches, structure.addition_launches, 152
        )
        v100 = TimingModel("V100", 10).predict_from_launch_sizes(
            structure.convolution_launches, structure.addition_launches, 152
        )
        p1 = launch_structure("p1")
        p100_p1 = TimingModel("P100", 10).predict_from_launch_sizes(
            p1.convolution_launches, p1.addition_launches, 152
        )
        v100_p1 = TimingModel("V100", 10).predict_from_launch_sizes(
            p1.convolution_launches, p1.addition_launches, 152
        )
        ratio_p2 = p100.wall_clock_ms / v100.wall_clock_ms
        ratio_p1 = p100_p1.wall_clock_ms / v100_p1.wall_clock_ms
        assert ratio_p2 < ratio_p1  # p2's small launches favour the P100 relatively

    def test_addition_kernels_are_much_cheaper_than_convolutions(self):
        structure = launch_structure("p1")
        report = TimingModel("V100", 10).predict_from_launch_sizes(
            structure.convolution_launches, structure.addition_launches, 152
        )
        assert report.addition_ms < report.convolution_ms / 100.0

    def test_shared_memory_limit_enforced(self):
        model = TimingModel("V100", 10)
        with pytest.raises(DeviceCapacityError):
            model.convolution_launch(blocks=16, degree=200)

    def test_predict_schedule_wrapper(self):
        schedule = build_schedule(3, [(0, 1, 2)] * 4, degree=8)
        report = TimingModel("P100", 2).predict(schedule)
        assert report.n_launches == schedule.total_launches
        assert report.as_row()["wall clock"] == pytest.approx(report.wall_clock_ms)

    def test_scale_launch_predicted_for_exponent_schedules(self, rng):
        from repro.circuits.testpolys import random_polynomial
        from repro.core import schedule_for_polynomial

        p = random_polynomial(3, 3, 2, degree=4, kind="float", rng=rng, max_exponent=3)
        schedule = schedule_for_polynomial(p)
        if schedule.scale_jobs:
            report = TimingModel("V100", 2).predict(schedule)
            stages = {launch.stage for launch in report.launches}
            assert "scale" in stages

    def test_kernel_fraction_grows_with_precision(self):
        """Figure 4: the kernel share of the wall clock climbs with precision."""
        structure = launch_structure("p1")
        fractions = []
        for limbs in (1, 2, 4, 10):
            report = TimingModel("V100", limbs).predict_from_launch_sizes(
                structure.convolution_launches, structure.addition_launches, 152
            )
            fractions.append(report.kernel_fraction)
        assert fractions == sorted(fractions)
        assert fractions[-1] > 0.9
