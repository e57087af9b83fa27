"""Micro-benchmarks of the batched system-evaluation engine.

Compares the pre-subsystem client pattern — a fresh per-polynomial
:class:`repro.core.PolynomialEvaluator` per equation per input vector, which
is exactly what the Newton/path-tracking layer did before the batched engine
(every system rebuild restaged every schedule) — against one
:class:`repro.core.SystemEvaluator` sweep over the same inputs with a warm
schedule cache.  Also records the schedule-cache hit rates and the launch
fusion factor (fused launches vs. the per-equation launch sequences summed).

The workload is the "mini-p1" system: equations drawn from the support set
of the paper's first test polynomial ``p1`` (16 variables, products of four
distinct variables), scaled to laptop size.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from conftest import emit
from repro.circuits.testpolys import make_polynomial_from_structure, p1_structure
from repro.core import PolynomialEvaluator, ScheduleCache, SystemEvaluator
from repro.series import random_series_vector

DEGREE = 8
EQUATIONS = 4
BATCH = 4
REPETITIONS = 5
# The speedup gate for the wall-clock comparison.  Locally the batched sweep
# lands around 1.6-2.0x; noisy shared CI runners export a relaxed threshold
# (see .github/workflows/ci.yml) so timing jitter cannot redden the build.
MIN_SPEEDUP = float(os.environ.get("BENCH_BATCHED_MIN_SPEEDUP", "1.2"))


@pytest.fixture(scope="module")
def workload():
    """The mini-p1 system: four equations of 14 four-variable monomials each."""
    rng = random.Random(5)
    n, supports = p1_structure()
    polynomials = [
        make_polynomial_from_structure(n, supports[e::130], DEGREE, kind="float", rng=rng)
        for e in range(EQUATIONS)
    ]
    zs = [random_series_vector(n, DEGREE, "float", 2, rng) for _ in range(BATCH)]
    return polynomials, zs


def scalar_loop(polynomials, zs):
    """The baseline: fresh per-polynomial evaluators, one call per (z, p)."""
    return [
        [PolynomialEvaluator(p, mode="staged").evaluate(z) for p in polynomials]
        for z in zs
    ]


def batched_sweep(polynomials, zs, cache):
    """The engine: one fused, cached schedule; one pass over the batch."""
    return SystemEvaluator(polynomials, mode="staged", cache=cache).evaluate_batch(zs)


def test_scalar_loop_baseline(benchmark, workload):
    polynomials, zs = workload
    results = benchmark(scalar_loop, polynomials, zs)
    assert len(results) == BATCH and len(results[0]) == EQUATIONS


def test_batched_sweep(benchmark, workload):
    polynomials, zs = workload
    cache = ScheduleCache()
    SystemEvaluator(polynomials, mode="staged", cache=cache)  # warm the cache
    results = benchmark(batched_sweep, polynomials, zs, cache)
    assert len(results) == BATCH and len(results[0]) == EQUATIONS


def test_batched_speedup_and_cache_hit_rate(workload):
    """The headline numbers: sweep speedup and schedule-cache accounting."""
    polynomials, zs = workload
    cache = ScheduleCache()
    evaluator = SystemEvaluator(polynomials, mode="staged", cache=cache)  # warm

    # Interleave the repetitions so machine noise (CI runners!) hits both
    # measurements alike; min-of-N is the usual microbenchmark estimator.
    scalar_times, batched_times = [], []
    for _ in range(REPETITIONS):
        scalar_times.append(_timed(scalar_loop, polynomials, zs))
        batched_times.append(_timed(batched_sweep, polynomials, zs, cache))
    scalar_s = min(scalar_times)
    batched_s = min(batched_times)
    speedup = scalar_s / batched_s

    # Parity: the sweep must reproduce the scalar loop to working precision.
    scalar_results = scalar_loop(polynomials, zs)
    batched_results = batched_sweep(polynomials, zs, cache)
    deviation = max(
        got.max_difference(expected)
        for batch_row, scalar_row in zip(batched_results, scalar_results)
        for got, expected in zip(batch_row, scalar_row)
    )
    assert deviation < 1e-12

    stats = cache.stats()
    summary = evaluator.job_summary()
    emit(
        "bench_batched_evaluator",
        "\n".join(
            [
                f"batched system evaluator (mini-p1: {EQUATIONS} equations x "
                f"{polynomials[0].n_monomials} monomials, degree {DEGREE}, doubles)",
                f"  batch size                 : {BATCH}",
                f"  scalar loop (staged)       : {scalar_s * 1e3:.2f} ms",
                f"  batched sweep (warm cache) : {batched_s * 1e3:.2f} ms",
                f"  speedup                    : {speedup:.2f} x",
                f"  max deviation vs loop      : {deviation:.3e}",
                f"  schedule cache             : hits={stats['hits']} misses={stats['misses']} "
                f"hit_rate={stats['hit_rate']:.2f}",
                f"  fused launches             : {summary['fused_launches']} "
                f"(vs {summary['unfused_launches']} unfused)",
            ]
        ),
    )
    assert stats["hits"] >= 1 and stats["misses"] == 1
    assert speedup >= MIN_SPEEDUP, (
        f"batched sweep only {speedup:.2f}x faster than the scalar loop "
        f"(required {MIN_SPEEDUP:.2f}x)"
    )


def _timed(func, *args):
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start
