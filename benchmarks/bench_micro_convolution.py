"""Micro-benchmarks of the convolution kernels (real measured times).

Compares the two formulations of Section 2 on the host — the direct
sequential formula and the zero-insertion data-parallel formulation
(executed thread by thread) — with the row-batched
:func:`repro.core.convolve_rows` that the tensor sweep runs, on one pair.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import convolve_rows
from repro.series import (
    convolve_direct,
    convolve_zero_insertion,
    random_md_series,
)

DEGREE = 31


@pytest.fixture(scope="module")
def operands():
    rng = random.Random(11)
    x = random_md_series(DEGREE, 2, rng)
    y = random_md_series(DEGREE, 2, rng)
    # The same pair as one row of limb planes: shape (limbs, 1, degree+1).
    xv, yv = (
        np.array([[[c.limbs[i] for c in s.coefficients]] for i in range(2)]) for s in (x, y)
    )
    return x, y, xv, yv


def test_convolution_direct_dd_d31(benchmark, operands):
    x, y, _, _ = operands
    result = benchmark(convolve_direct, x.coefficients, y.coefficients)
    assert len(result) == DEGREE + 1


def test_convolution_zero_insertion_dd_d31(benchmark, operands):
    x, y, _, _ = operands
    result = benchmark(convolve_zero_insertion, x.coefficients, y.coefficients)
    assert len(result) == DEGREE + 1


def test_convolution_vectorized_dd_d31(benchmark, operands):
    _, _, xv, yv = operands
    (result,) = benchmark(convolve_rows, (xv,), (yv,), 2)
    assert result.shape == (2, 1, DEGREE + 1)


@pytest.mark.parametrize("degree", (8, 31, 63))
def test_convolution_scaling_with_degree(benchmark, degree):
    """The O(d^2) growth of one convolution (quadratic in the degree)."""
    rng = random.Random(degree)
    x = random_md_series(degree, 2, rng)
    y = random_md_series(degree, 2, rng)
    result = benchmark(convolve_direct, x.coefficients, y.coefficients)
    assert len(result) == degree + 1


@pytest.mark.parametrize("limbs", (1, 2, 4))
def test_convolution_scaling_with_precision(benchmark, limbs):
    """The cost overhead of multiple-double precision on one convolution."""
    rng = random.Random(limbs)
    x = random_md_series(16, limbs, rng)
    y = random_md_series(16, limbs, rng)
    result = benchmark(convolve_direct, x.coefficients, y.coefficients)
    assert len(result) == 17
