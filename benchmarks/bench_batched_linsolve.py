"""Benchmark of the batched tensor linear solver inside Newton sweeps.

PR 5 moved the evaluation sweeps of a batched Newton refinement onto the
tensorized NumPy backend, which left the per-instance scalar
:func:`repro.homotopy.lu_solve` as the dominant cost of every iteration.
This benchmark gates its replacement: with ``solver="auto"`` the whole
linear solve runs as one batched lead-matrix solve on the packed limb
tensors (:mod:`repro.homotopy.batch_linsolve`), and on the complex mini-``p1``
workload the end-to-end Newton sweep must beat the PR 5 shape
(``solver="scalar"``: vectorized evaluation, scalar solves) by at least
**2x** while reproducing its solutions **bit for bit** at double-double
precision.

A batch-size sweep records how the advantage grows with width (the scalar
solve cost is linear in the batch, the batched solve is one set of
whole-tensor sweeps), and the GPU timing model's solve-launch prediction is
recorded for the same dimensions.  Results are persisted as a text table and
as machine-readable JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import random
import time
from itertools import combinations

from _schema import write_artifact
from conftest import emit
from repro.circuits.testpolys import make_polynomial_from_structure
from repro.core import ScheduleCache
from repro.gpusim.timing import TimingModel
from repro.homotopy import NewtonOptions, PolynomialSystem, newton_power_series_batch
from repro.md import ComplexMD, MultiDouble
from repro.series import PowerSeries

REPETITIONS = int(os.environ.get("BENCH_LINSOLVE_REPETITIONS", "2"))
#: Acceptance gate: batched solves must at least double the end-to-end
#: Newton throughput against the scalar-solve path.  Locally the headline
#: batch lands around 4x; the env override exists for very noisy runners.
MIN_SPEEDUP = float(os.environ.get("BENCH_LINSOLVE_MIN_SPEEDUP", "2.0"))

#: Headline workload: square mini-p1, degree 3, double doubles, batch 8.
DIMENSION = 6
DEGREE = 3
PRECISION = 2
BATCH = 8
ITERATIONS = 2


def _square_mini_p1():
    """All C(6, 4) quadrilinear monomials, one shifted equation per variable."""
    rng = random.Random(5)
    supports = [tuple(c) for c in combinations(range(DIMENSION), 4)]
    return [
        make_polynomial_from_structure(
            DIMENSION,
            supports[e:] + supports[:e],
            DEGREE,
            kind="complex_md",
            precision=PRECISION,
            rng=rng,
        )
        for e in range(DIMENSION)
    ]


def _unit_circle_initials(system, batch: int):
    rng = random.Random(11)
    return [
        [
            PowerSeries.constant(
                ComplexMD.unit_circle(rng.uniform(0.0, 6.28), PRECISION), system.degree
            )
            for _ in range(system.dimension)
        ]
        for _ in range(batch)
    ]


def _newton_sweep(system, initials, solver: str):
    """(min-of-N seconds, last results) of one batched Newton refinement."""
    best = float("inf")
    results = None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        results = newton_power_series_batch(
            system, initials, options=NewtonOptions(max_iterations=ITERATIONS, solver=solver)
        )
        best = min(best, time.perf_counter() - start)
    return best, results


def _limb_signature(series: PowerSeries):
    out = []
    for value in series.coefficients:
        if isinstance(value, ComplexMD):
            out.append((value.real.limbs, value.imag.limbs))
        elif isinstance(value, MultiDouble):
            out.append(value.limbs)
        else:
            out.append(repr(value))
    return tuple(out)


def _bit_identical(batch_a, batch_b) -> bool:
    return all(
        _limb_signature(sa) == _limb_signature(sb)
        for a, b in zip(batch_a, batch_b)
        for sa, sb in zip(a.solution, b.solution)
    )


def test_batched_linsolve_newton_sweep():
    """The 2x end-to-end gate plus the batch-size scaling sweep."""
    system = PolynomialSystem(
        _square_mini_p1(), mode="vectorized", cache=ScheduleCache()
    )
    initials = _unit_circle_initials(system, BATCH)

    scalar_s, scalar = _newton_sweep(system, initials, "scalar")
    batched_s, batched = _newton_sweep(system, initials, "auto")
    speedup = scalar_s / batched_s
    identical = _bit_identical(scalar, batched)

    scaling = []
    for batch in (2, 4, 16):
        starts = _unit_circle_initials(system, batch)
        row_scalar_s, row_scalar = _newton_sweep(system, starts, "scalar")
        row_batched_s, row_batched = _newton_sweep(system, starts, "auto")
        scaling.append(
            {
                "batch": batch,
                "scalar_seconds": row_scalar_s,
                "batched_seconds": row_batched_s,
                "speedup": row_scalar_s / row_batched_s,
                "bit_identical": _bit_identical(row_scalar, row_batched),
            }
        )

    model = TimingModel(device="V100", precision=PRECISION)
    solve_model = model.predict_solve(DIMENSION, DEGREE, batch=BATCH)

    payload = {
        "benchmark": "bench_batched_linsolve",
        "repetitions": REPETITIONS,
        "min_speedup_gate": MIN_SPEEDUP,
        "headline": {
            "system": "square mini-p1 (n=6, all C(6,4) monomials)",
            "ring": "complex_md (unit circle)",
            "degree": DEGREE,
            "precision": PRECISION,
            "batch": BATCH,
            "newton_iterations": ITERATIONS,
            "scalar_solver_seconds": scalar_s,
            "batched_solver_seconds": batched_s,
            "speedup_vs_scalar_solver": speedup,
            "bit_identical": identical,
        },
        "batch_scaling": scaling,
        "gpu_solve_model": {
            "device": "V100",
            "dimension": DIMENSION,
            "degree": DEGREE,
            "batch": BATCH,
            "kernel_ms": solve_model.sum_ms,
            "wall_clock_ms": solve_model.wall_clock_ms,
            "launches": len(solve_model.launches),
        },
    }
    write_artifact("bench_batched_linsolve", payload)

    lines = [
        "batched tensor linear solver: Newton sweeps on the square mini-p1 "
        f"(unit-circle ComplexMD, min of {REPETITIONS})",
        f"  headline (degree {DEGREE}, {PRECISION} limbs, batch {BATCH}, "
        f"{ITERATIONS} Newton iterations):",
        f"    solver='scalar' (PR 5 shape): {scalar_s:.3f} s",
        f"    solver='auto'   (batched)   : {batched_s:.3f} s "
        f"({speedup:.1f}x, bit-identical: {identical})",
        "  batch scaling:",
    ]
    for row in scaling:
        lines.append(
            f"    batch={row['batch']:3d}: scalar {row['scalar_seconds']:.3f} s, "
            f"batched {row['batched_seconds']:.3f} s ({row['speedup']:.1f}x, "
            f"bit-identical: {row['bit_identical']})"
        )
    lines.append(
        f"  V100 solve-launch model (n={DIMENSION}, degree {DEGREE}, batch {BATCH}): "
        f"{len(solve_model.launches)} launches, kernels {solve_model.sum_ms:.4f} ms, "
        f"wall {solve_model.wall_clock_ms:.4f} ms"
    )
    emit("bench_batched_linsolve", "\n".join(lines))

    assert identical, (
        "batched solver deviates from the scalar lu_solve path; double-double "
        "Newton sweeps must be bit-identical"
    )
    for row in scaling:
        assert row["bit_identical"]
    assert speedup >= MIN_SPEEDUP, (
        f"batched linear solves only {speedup:.2f}x faster than the scalar "
        f"path end to end (required {MIN_SPEEDUP:.2f}x)"
    )
