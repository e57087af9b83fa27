"""Micro-benchmarks of the full evaluator on laptop-scale problems.

Measures the real host cost of three execution modes (sequential
reference, staged, simulated GPU) on a scaled-down version of the paper's
workload, plus the one-off cost of the data staging itself.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.testpolys import make_polynomial_from_structure, p1_structure, random_polynomial
from repro.core import PolynomialEvaluator, schedule_for_polynomial
from repro.series import random_md_series


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(5)
    n, supports = p1_structure()
    subset = supports[::130]  # 14 monomials of 4 variables in 16 variables
    polynomial = make_polynomial_from_structure(n, subset, degree=12, kind="md", precision=2, rng=rng)
    z = [random_md_series(12, 2, rng) for _ in range(n)]
    return polynomial, z


@pytest.mark.parametrize("mode", ("reference", "staged", "gpu"))
def test_evaluator_modes(benchmark, workload, mode):
    polynomial, z = workload
    evaluator = PolynomialEvaluator(polynomial, mode=mode)
    result = benchmark(evaluator.evaluate, z)
    assert len(result.gradient) == polynomial.dimension


def test_schedule_construction(benchmark, workload):
    polynomial, _ = workload
    schedule = benchmark(schedule_for_polynomial, polynomial)
    assert schedule.convolution_job_count == 9 * polynomial.n_monomials


def test_evaluator_reuse_amortises_staging(benchmark, workload):
    """Re-evaluating with fresh inputs reuses the staged schedule."""
    polynomial, z = workload
    evaluator = PolynomialEvaluator(polynomial, mode="staged")
    evaluator.evaluate(z)  # warm-up: schedule already built in __init__
    rng = random.Random(99)

    def fresh_evaluation():
        fresh = [random_md_series(12, 2, rng) for _ in range(polynomial.dimension)]
        return evaluator.evaluate(fresh)

    result = benchmark(fresh_evaluation)
    assert result.metadata["mode"] == "staged"


def test_dense_quadratic_polynomial(benchmark):
    """A p3-flavoured workload: many two-variable monomials."""
    rng = random.Random(17)
    polynomial = random_polynomial(20, 60, 2, degree=8, kind="float", rng=rng)
    z = [__import__("repro").series.random_float_series(8, rng) for _ in range(20)]
    evaluator = PolynomialEvaluator(polynomial, mode="staged")
    result = benchmark(evaluator.evaluate, z)
    assert len(result.gradient) == 20
