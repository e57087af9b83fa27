"""Tests for the PolynomialEvaluator front end (all execution modes)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.circuits import Monomial, Polynomial, parse_polynomial
from repro.circuits.testpolys import random_polynomial
from repro.core import PolynomialEvaluator
from repro.errors import StagingError
from repro.series import (
    PowerSeries,
    random_complex_series,
    random_fraction_series,
    random_float_series,
    random_md_series,
)


class TestModeEquivalence:
    def test_staged_equals_reference_exactly_on_fractions(self, rng):
        for _ in range(3):
            p = random_polynomial(6, 9, 3, degree=4, kind="fraction", rng=rng)
            z = [random_fraction_series(4, rng) for _ in range(6)]
            reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
            staged = PolynomialEvaluator(p, mode="staged").evaluate(z)
            assert reference.max_difference(staged) == 0.0

    @pytest.mark.parametrize("limbs", (2, 4))
    def test_gpu_mode_matches_reference_for_multidoubles(self, limbs, rng):
        p = random_polynomial(5, 6, 3, degree=4, kind="md", precision=limbs, rng=rng)
        z = [random_md_series(4, limbs, rng) for _ in range(5)]
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        gpu = PolynomialEvaluator(p, mode="gpu", device="V100").evaluate(z)
        assert reference.max_difference(gpu) < 2.0 ** (-52 * limbs + 20)
        assert gpu.metadata["mode"] == "gpu"
        assert gpu.metadata["precision_limbs"] == limbs
        assert gpu.metadata["timings"].n_launches == gpu.metadata["launches"]

    def test_gpu_mode_with_plain_doubles(self, rng):
        p = random_polynomial(4, 5, 2, degree=3, kind="float", rng=rng)
        z = [random_float_series(3, rng) for _ in range(4)]
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        gpu = PolynomialEvaluator(p, mode="gpu").evaluate(z)
        assert reference.max_difference(gpu) < 1e-12

    def test_complex_coefficients_supported_by_host_modes(self, rng):
        p = random_polynomial(4, 6, 2, degree=3, kind="complex", rng=rng)
        z = [random_complex_series(3, rng) for _ in range(4)]
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        staged = PolynomialEvaluator(p, mode="staged").evaluate(z)
        assert reference.max_difference(staged) < 1e-12

    def test_complex_rejected_by_gpu_mode(self, rng):
        p = random_polynomial(3, 3, 2, degree=2, kind="complex", rng=rng)
        z = [random_complex_series(2, rng) for _ in range(3)]
        with pytest.raises(StagingError):
            PolynomialEvaluator(p, mode="gpu").evaluate(z)


class TestGeneralExponents:
    def test_exponents_handled_by_all_host_modes(self, rng):
        p = random_polynomial(5, 6, 2, degree=3, kind="fraction", rng=rng, max_exponent=4)
        z = [random_fraction_series(3, rng) for _ in range(5)]
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        for mode in ("staged", "vectorized"):
            other = PolynomialEvaluator(p, mode=mode).evaluate(z)
            assert reference.max_difference(other) == 0.0

    def test_exponents_on_gpu_mode(self, rng):
        p = random_polynomial(3, 3, 2, degree=3, kind="md", precision=2, rng=rng, max_exponent=3)
        z = [random_md_series(3, 2, rng) for _ in range(3)]
        reference = PolynomialEvaluator(p, mode="reference").evaluate(z)
        gpu = PolynomialEvaluator(p, mode="gpu").evaluate(z)
        assert reference.max_difference(gpu) < 1e-25

    def test_parsed_cube(self, rng):
        p = parse_polynomial("x1^3", degree=4, kind="fraction")
        z = [random_fraction_series(4, rng)]
        result = PolynomialEvaluator(p, mode="staged").evaluate(z)
        assert result.value == z[0] * z[0] * z[0]
        assert result.gradient[0] == (z[0] * z[0]).scale(Fraction(3))


class TestValidationAndMetadata:
    def test_wrong_input_count_and_degree(self, rng):
        p = random_polynomial(3, 3, 2, degree=2, kind="float", rng=rng)
        evaluator = PolynomialEvaluator(p, mode="staged")
        with pytest.raises(StagingError):
            evaluator.evaluate([random_float_series(2, rng)] * 2)
        with pytest.raises(StagingError):
            evaluator.evaluate([random_float_series(3, rng)] * 3)

    def test_job_summary_and_callable(self, rng):
        p = random_polynomial(4, 4, 3, degree=2, kind="float", rng=rng)
        evaluator = PolynomialEvaluator(p, mode="staged")
        summary = evaluator.job_summary()
        assert summary["convolution_jobs"] == p.convolution_job_count()
        z = [random_float_series(2, rng) for _ in range(4)]
        assert evaluator(z).max_difference(evaluator.evaluate(z)) < 1e-14

    def test_metadata_of_staged_mode(self, rng):
        p = random_polynomial(3, 3, 2, degree=2, kind="float", rng=rng)
        result = PolynomialEvaluator(p, mode="staged").evaluate(
            [random_float_series(2, rng) for _ in range(3)]
        )
        assert result.metadata["mode"] == "staged"
        assert result.metadata["convolution_jobs"] == p.convolution_job_count()

    def test_gradient_of_unused_variable_is_zero(self, rng):
        constant = PowerSeries.constant(Fraction(1), 2)
        p = Polynomial(3, constant, [Monomial.make(random_fraction_series(2, rng), [0, 1])])
        z = [random_fraction_series(2, rng) for _ in range(3)]
        result = PolynomialEvaluator(p, mode="staged").evaluate(z)
        assert result.gradient[2] == PowerSeries.zero(2, like=Fraction(1))

    def test_evaluator_is_reusable_across_inputs(self, rng):
        p = random_polynomial(4, 6, 2, degree=3, kind="fraction", rng=rng)
        evaluator = PolynomialEvaluator(p, mode="staged")
        reference = PolynomialEvaluator(p, mode="reference")
        for _ in range(3):
            z = [random_fraction_series(3, rng) for _ in range(4)]
            assert evaluator.evaluate(z).max_difference(reference.evaluate(z)) == 0.0
