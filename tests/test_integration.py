"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import pytest

from repro import (
    PolynomialEvaluator,
    TABLE1_DEVICES,
    get_precision,
    make_p1,
    parse_polynomial,
)
from repro.analysis.experiments import launch_structure
from repro.circuits.testpolys import make_polynomial_from_structure, p1_structure
from repro.core import schedule_for_polynomial
from repro.gpusim import TimingModel, tflops
from repro.homotopy import NewtonOptions, PolynomialSystem, newton_power_series
from repro.series import PowerSeries, random_md_series, random_fraction_series


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        """Every name in the ``__all__`` of every ``repro`` module exists."""
        import importlib
        import pkgutil

        import repro

        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")
        ]
        exporting = [module for module in modules if hasattr(module, "__all__")]
        missing = [
            f"{module.__name__}.{name}"
            for module in exporting
            for name in module.__all__
            if not hasattr(module, name)
        ]
        assert exporting and not missing


class TestMiniP1EndToEnd:
    """A scaled-down p1 (subset of monomials) through every execution mode."""

    @pytest.fixture(scope="class")
    def mini_p1(self):
        import random

        rng = random.Random(42)
        n, supports = p1_structure()
        subset = supports[::60]  # ~31 monomials of 4 variables
        polynomial = make_polynomial_from_structure(n, subset, degree=6, kind="md", precision=3, rng=rng)
        z = [random_md_series(6, 3, rng) for _ in range(n)]
        return polynomial, z

    def test_all_modes_agree(self, mini_p1):
        polynomial, z = mini_p1
        reference = PolynomialEvaluator(polynomial, mode="reference").evaluate(z)
        for mode in ("staged", "gpu"):
            result = PolynomialEvaluator(polynomial, mode=mode).evaluate(z)
            assert reference.max_difference(result) < 2.0 ** (-52 * 3 + 24)

    def test_schedule_structure_scales_from_mini_to_full(self, mini_p1):
        polynomial, _ = mini_p1
        schedule = schedule_for_polynomial(polynomial)
        assert schedule.convolution_job_count == 9 * polynomial.n_monomials
        assert len(schedule.convolution_launches) == 4
        full = launch_structure("p1")
        assert full.convolution_jobs == 9 * 1820

    def test_gpu_timing_metadata_consistent_with_model(self, mini_p1):
        polynomial, z = mini_p1
        evaluator = PolynomialEvaluator(polynomial, mode="gpu", device="P100")
        result = evaluator.evaluate(z)
        timings = result.metadata["timings"]
        predicted = TimingModel("P100", 3).predict(evaluator.schedule)
        assert timings.wall_clock_ms == pytest.approx(predicted.wall_clock_ms, rel=1e-9)


class TestFullPipelineSmall:
    def test_parse_evaluate_differentiate_newton(self):
        """Parse a system, evaluate with the staged engine, refine with Newton."""
        degree = 8
        # Intersection of a circle-like curve and a line, expanded in t:
        #   x1^2 + x2^2 - (2 + t) = 0
        #   x1 - x2 = 0                 ->  x1 = x2 = sqrt(1 + t/2)
        p = parse_polynomial("x1^2 + x2^2", degree=degree, kind="float")
        p.constant.coefficients[0] = -2.0
        p.constant.coefficients[1] = -1.0
        q = parse_polynomial("x1 - x2", degree=degree, kind="float")
        system = PolynomialSystem([p, q], mode="staged")
        start = [PowerSeries.constant(1.0, degree), PowerSeries.constant(1.0, degree)]
        result = newton_power_series(
            system, start, options=NewtonOptions(max_iterations=8, tolerance=1e-13)
        )
        assert result.converged
        x1 = result.solution[0]
        assert x1.coefficients[1] == pytest.approx(0.25, abs=1e-10)  # d/dt sqrt(1+t/2) at 0
        assert x1.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_multi_precision_refinement_improves_accuracy(self, rng):
        """Evaluating in higher precision shrinks the defect of an exact identity."""
        degree = 5
        p = parse_polynomial("x1*x2", degree=degree, kind="fraction")
        z = [random_fraction_series(degree, rng) for _ in range(2)]
        exact = PolynomialEvaluator(p, mode="staged").evaluate(z)
        errors = {}
        for limbs in (1, 2, 4):
            pf = parse_polynomial("x1*x2", degree=degree, kind="md", precision=limbs)
            zf = [
                series.map(lambda c, L=limbs: __import__("repro").MultiDouble.from_fraction(c, L))
                for series in z
            ]
            approx = PolynomialEvaluator(pf, mode="staged").evaluate(zf)
            diff = 0.0
            for a, b in zip(approx.value.coefficients, exact.value.coefficients):
                diff = max(diff, abs(float(a.to_fraction() - b)))
            errors[limbs] = diff
        assert errors[2] <= errors[1]
        assert errors[4] <= errors[2]
        assert errors[4] < 1e-50

    def test_flop_model_consistency_with_paper_headline(self):
        """16,380 convolutions + 9,084 additions at d=152 in deca doubles ~ 1.25 TFLOPS."""
        structure = launch_structure("p1")
        rate = tflops(
            structure.convolution_jobs, structure.addition_jobs, 152, 10, milliseconds=1066.0
        )
        assert rate == pytest.approx(1.25, abs=0.01)

    def test_make_p1_generator_matches_structure(self):
        polynomial = make_p1(degree=0, kind="float")
        assert polynomial.n_monomials == 1820
        assert polynomial.dimension == 16
        assert polynomial.max_variables_per_monomial == 4
        assert polynomial.convolution_job_count() == 16380
        assert polynomial.addition_job_count() == 9084

    def test_device_inventory_matches_table1(self):
        assert len(TABLE1_DEVICES) == 5
        assert get_precision("deca double").limbs == 10
