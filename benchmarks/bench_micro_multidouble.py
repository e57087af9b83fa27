"""Micro-benchmarks of the multiple-double arithmetic (real measured times).

These measure this library's own host implementation — the scalar
:class:`MultiDouble` and the row kernels of :mod:`repro.md.vecops` that the
tensor sweep runs — so the cost overhead of increasing precision can be
observed directly on the machine running the benchmarks (the Python
analogue of Figure 5's overhead factors).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.md import MultiDouble, md_add_rows, md_mul_rows

PRECISIONS = (1, 2, 4, 8, 10)


@pytest.mark.parametrize("limbs", PRECISIONS)
def test_scalar_multiplication(benchmark, limbs):
    rng = random.Random(limbs)
    a = MultiDouble.random(limbs, rng)
    b = MultiDouble.random(limbs, rng)
    result = benchmark(lambda: a * b)
    assert result.precision.limbs == limbs


@pytest.mark.parametrize("limbs", PRECISIONS)
def test_scalar_addition(benchmark, limbs):
    rng = random.Random(limbs)
    a = MultiDouble.random(limbs, rng)
    b = MultiDouble.random(limbs, rng)
    result = benchmark(lambda: a + b)
    assert result.precision.limbs == limbs


def _limb_rows(rng, limbs: int, size: int) -> list[np.ndarray]:
    """``size`` random multiple doubles as ``limbs`` rows, leading limb first."""
    lead = rng.standard_normal(size)
    return [lead] + [
        lead * rng.uniform(-1.0, 1.0, size) * 2.0 ** (-53 * i) for i in range(1, limbs)
    ]


@pytest.mark.parametrize("limbs", (2, 4, 10))
def test_vectorised_multiplication_1024_elements(benchmark, limbs):
    rng = np.random.default_rng(limbs)
    a = _limb_rows(rng, limbs, 1024)
    b = _limb_rows(rng, limbs, 1024)
    result = benchmark(md_mul_rows, a, b, limbs)
    assert len(result) == limbs and result[0].shape == (1024,)


@pytest.mark.parametrize("limbs", (2, 4, 10))
def test_vectorised_addition_1024_elements(benchmark, limbs):
    rng = np.random.default_rng(limbs)
    a = _limb_rows(rng, limbs, 1024)
    b = _limb_rows(rng, limbs, 1024)
    result = benchmark(md_add_rows, a, b, limbs)
    assert len(result) == limbs and result[0].shape == (1024,)


def test_scalar_division_quad_double(benchmark):
    rng = random.Random(7)
    a = MultiDouble.random(4, rng)
    b = MultiDouble.random(4, rng) + 2
    result = benchmark(lambda: a / b)
    assert result.precision.limbs == 4


def test_scalar_sqrt_deca_double(benchmark):
    x = MultiDouble.from_float(2.0, 10)
    result = benchmark(x.sqrt)
    assert abs((result * result - 2).to_float()) < 1e-100
