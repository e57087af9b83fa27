"""Benchmark of the adaptive masked many-path scheduler.

The production workload of the paper is thousands of independent solution
paths, a few percent of which are too stiff for the working precision.  The
baseline is a *fixed grid with a global restart*: ``track_paths`` with no
rejections and no precision ladder tracks the whole batch on one fixed grid
at double doubles, failing each stiff path at its first missed point, and,
if anything failed, the **whole batch** runs again at quad doubles.  The
adaptive scheduler instead gives a path two rejections (halving its step)
before failing it, and re-runs *only the failed paths* as one lifted fleet —
so the quad-double bill covers the hard subset alone.  Both sides run the
same masked resident fleets, so converged lanes cost neither of them a
sweep, and the margin is the quad-double re-run of the healthy paths.

The workload is the retry family ``(x - u(t)) (x - 1)`` with
``u(t) = 2 + B t^2``: the root ``x = u(t)`` carries a residual floor of
roughly ``u^2 eps`` that double doubles cannot push below the tolerance near
``t = 1`` (the hard 10%), while ``x = 1`` stays exact (the healthy 90%).
Two gates are enforced:

* the adaptive scheduler must beat the global-restart baseline by at least
  **2x** end to end, while converging every path and packing each fleet
  exactly once;
* the process-sharded runner (``--workers N`` /
  ``BENCH_MANYPATH_WORKERS``) must beat the single-process adaptive run by
  ``BENCH_MANYPATH_SHARD_MIN_SPEEDUP`` (2x on the multi-core CI runner;
  relaxed by default on boxes without enough cores to scale).

Results are persisted as text tables and machine-readable JSON (throughput,
retry counts, per-shard scaling) under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time

import pytest
from _schema import write_artifact
from conftest import emit
from repro.circuits import parse_polynomial
from repro.homotopy import PolynomialSystem, RetryPolicy, TrackOptions, track_paths
from repro.md import MultiDouble

#: Fleet size (the acceptance run uses >= 1000; CI smoke may shrink it).
PATHS = int(os.environ.get("BENCH_MANYPATH_PATHS", "1000"))
#: Fraction of paths started on the stiff root.
HARD_FRACTION = float(os.environ.get("BENCH_MANYPATH_HARD_FRACTION", "0.1"))
#: Acceptance gate: adaptive tracking must beat the fixed grid with a global
#: restart by this factor end to end.
MIN_SPEEDUP = float(os.environ.get("BENCH_MANYPATH_MIN_SPEEDUP", "2.0"))
#: Worker count of the sharded run (0 skips the sharded benchmark).
WORKERS = int(os.environ.get("BENCH_MANYPATH_WORKERS", str(os.cpu_count() or 1)))
#: Sharded gate: N workers must beat one process by this factor.  Enforced
#: at 2x on the multi-core CI runner; the local default only arms itself
#: when the box has enough cores for 2x to be physically reachable.
SHARD_MIN_SPEEDUP = float(
    os.environ.get(
        "BENCH_MANYPATH_SHARD_MIN_SPEEDUP",
        "2.0" if (os.cpu_count() or 1) >= 4 else "0.0",
    )
)

DEGREE = 8
STIFFNESS = 1.0e6
TOLERANCE = 1.0e-22
BASE_LIMBS = 2
RETRY_LIMBS = 4


class RetryFamily:
    """``(x - u(t)) (x - 1) = 0`` with ``u(t) = 2 + B t^2`` at ``precision``.

    A module-level class (not a closure) so instances pickle: the sharded
    runner ships the family to spawned worker processes.
    """

    def __init__(self, precision: int):
        self.precision = precision

    def _md(self, value: float) -> MultiDouble:
        return MultiDouble.from_float(float(value), self.precision)

    def __call__(self, t0: float, degree: int) -> PolynomialSystem:
        md = self._md
        poly = parse_polynomial(
            "x1^2 + x1", degree=degree, kind="md", precision=self.precision
        )
        u = [md(2.0 + STIFFNESS * t0 * t0), md(2.0 * STIFFNESS * t0), md(STIFFNESS)]
        u += [md(0.0)] * (degree + 1 - len(u))
        poly.constant.coefficients[:] = u
        linear = next(m for m in poly.monomials if m.exponents == ((0, 1),))
        negated = [-(c) for c in u]
        negated[0] = -(md(1.0) + u[0])
        linear.coefficient.coefficients[:] = negated
        return PolynomialSystem([poly])


def family(precision: int) -> RetryFamily:
    """The retry family at ``precision`` limbs (``bench_obs_overhead`` imports it)."""
    return RetryFamily(precision)


def _starts(paths: int, hard_fraction: float):
    """Hard starts interleaved through the batch (every ``1/fraction``-th)."""
    stride = max(1, round(1.0 / hard_fraction)) if hard_fraction > 0 else paths + 1
    return [[2.0] if i % stride == 0 else [1.0] for i in range(paths)]


def _options() -> TrackOptions:
    return TrackOptions().override(
        degree=DEGREE,
        mode="vectorized",
        step={"grow": 1.0},
        newton={"max_iterations": 6, "tolerance": TOLERANCE},
        retry=RetryPolicy(precision_ladder=(RETRY_LIMBS,), max_rejections=2),
    )


def _adaptive(starts):
    options = _options()
    begin = time.perf_counter()
    report = track_paths(RetryFamily(BASE_LIMBS), starts, options=options)
    return time.perf_counter() - begin, report


def _sharded(starts, workers: int):
    options = _options().override(shards=workers)
    begin = time.perf_counter()
    report = track_paths(RetryFamily(BASE_LIMBS), starts, options=options)
    return time.perf_counter() - begin, report


def _global_restart(starts):
    """The baseline: the fixed grid at dd, then the WHOLE batch again at qd.

    With no rejections and no precision ladder, every stiff path fails at
    dd; with no way to retry individuals, the recipe restarts the entire
    batch at the next precision and keeps the high-precision results.
    """
    options = _options().override(retry=RetryPolicy(precision_ladder=(), max_rejections=0))
    begin = time.perf_counter()
    first = track_paths(RetryFamily(BASE_LIMBS), starts, options=options)
    failed = first.failed_indices
    second = None
    if failed:
        second = track_paths(RetryFamily(RETRY_LIMBS), starts, options=options)
    elapsed = time.perf_counter() - begin
    converged = (second or first).n_converged
    return elapsed, {"first_failures": len(failed), "converged": converged}


def _tail(steps: list[int]) -> dict:
    ranked = sorted(steps)
    return {
        "min": ranked[0],
        "median": ranked[len(ranked) // 2],
        "p95": ranked[min(len(ranked) - 1, int(0.95 * len(ranked)))],
        "max": ranked[-1],
    }


def _shard_rows(report) -> list[dict]:
    """Per-shard throughput/retry rows for the JSON artifact."""
    rows = []
    for shard in report.shards:
        seconds = shard.get("elapsed_s", 0.0)
        rows.append(
            {
                "shard": shard["shard"],
                "paths": shard["paths"],
                "via": shard["via"],
                "seconds": seconds,
                "paths_per_second": shard["paths"] / seconds if seconds > 0 else None,
                "converged": shard["converged"],
                "retries": shard["retries"],
                "packs": shard["packs"],
                "adopted": shard["adopted"],
                "segment_bytes": shard["segment_bytes"],
            }
        )
    return rows


def test_many_paths_adaptive_vs_global_restart():
    """The 2x gate: masked adaptive fleets vs a fixed grid with a global restart."""
    starts = _starts(PATHS, HARD_FRACTION)
    hard = sum(1 for s in starts if s[0] == 2.0)

    adaptive_s, report = _adaptive(starts)
    baseline_s, baseline = _global_restart(starts)
    speedup = baseline_s / adaptive_s

    summary = report.summary()
    payload = {
        "benchmark": "bench_many_paths",
        "paths": PATHS,
        "hard_paths": hard,
        "min_speedup_gate": MIN_SPEEDUP,
        "adaptive": {
            "seconds": adaptive_s,
            "paths_per_second": PATHS / adaptive_s,
            "converged": report.n_converged,
            "retries": report.total_retries,
            "escalated": len(report.escalated_indices),
            "packs": report.total_packs,
            "fleets": summary["fleets"],
            "steps_tail": _tail(summary["steps"]),
            "rejections_total": sum(summary["rejections"]),
        },
        "global_restart": {
            "seconds": baseline_s,
            "paths_per_second": PATHS / baseline_s,
            "first_pass_failures": baseline["first_failures"],
            "converged": baseline["converged"],
        },
        "speedup": speedup,
    }
    write_artifact("bench_many_paths", payload)

    tail = payload["adaptive"]["steps_tail"]
    lines = [
        f"adaptive masked many-path tracker: {PATHS} paths ({hard} stiff), "
        f"degree {DEGREE}, dd -> qd ladder",
        f"  adaptive scheduler      : {adaptive_s:.2f} s "
        f"({payload['adaptive']['paths_per_second']:.0f} paths/s), "
        f"{report.total_retries} retries, {report.total_packs} packs "
        f"across {len(report.fleets)} fleets",
        f"  fixed grid+restart      : {baseline_s:.2f} s "
        f"({payload['global_restart']['paths_per_second']:.0f} paths/s), "
        f"{baseline['first_failures']} first-pass failures -> full re-run",
        f"  speedup                 : {speedup:.1f}x (gate {MIN_SPEEDUP:.1f}x)",
        f"  step-count tail         : min {tail['min']}, median {tail['median']}, "
        f"p95 {tail['p95']}, max {tail['max']}",
    ]
    emit("bench_many_paths", "\n".join(lines))

    assert report.n_converged == PATHS, (
        f"adaptive scheduler converged only {report.n_converged}/{PATHS} paths"
    )
    assert len(report.escalated_indices) == hard
    assert report.total_retries == hard
    # Masked residency: every fleet packs its slot tensor exactly once.
    assert all(fleet["packs"] == 1 for fleet in report.fleets)
    assert speedup >= MIN_SPEEDUP, (
        f"adaptive scheduler only {speedup:.2f}x faster than a fixed grid with "
        f"a global restart (required {MIN_SPEEDUP:.2f}x)"
    )


def test_many_paths_sharded_vs_single_process():
    """The scale-out gate: N worker processes vs the in-process scheduler."""
    if WORKERS < 1:
        pytest.skip("sharded benchmark disabled (BENCH_MANYPATH_WORKERS=0)")
    workers = WORKERS
    starts = _starts(PATHS, HARD_FRACTION)
    hard = sum(1 for s in starts if s[0] == 2.0)

    single_s, single = _adaptive(starts)
    sharded_s, sharded = _sharded(starts, workers)
    speedup = single_s / sharded_s

    payload = {
        "benchmark": "bench_many_paths_sharded",
        "paths": PATHS,
        "hard_paths": hard,
        "workers": workers,
        "min_speedup_gate": SHARD_MIN_SPEEDUP,
        "single_process": {
            "seconds": single_s,
            "paths_per_second": PATHS / single_s,
            "converged": single.n_converged,
            "retries": single.total_retries,
        },
        "sharded": {
            "seconds": sharded_s,
            "paths_per_second": PATHS / sharded_s,
            "converged": sharded.n_converged,
            "retries": sharded.total_retries,
            "packs": sharded.total_packs,
            "shards": _shard_rows(sharded),
        },
        "speedup": speedup,
    }
    write_artifact("bench_many_paths_sharded", payload)

    by_shard = ", ".join(
        f"#{row['shard']}: {row['paths']}p/"
        f"{row['seconds']:.2f}s/{row['retries']}r ({row['via']})"
        for row in payload["sharded"]["shards"]
    )
    lines = [
        f"process-sharded many-path tracker: {PATHS} paths ({hard} stiff), "
        f"{workers} workers, shared-memory limb tensors",
        f"  single process : {single_s:.2f} s "
        f"({payload['single_process']['paths_per_second']:.0f} paths/s)",
        f"  {workers} workers      : {sharded_s:.2f} s "
        f"({payload['sharded']['paths_per_second']:.0f} paths/s)",
        f"  per shard      : {by_shard}",
        f"  speedup        : {speedup:.2f}x (gate {SHARD_MIN_SPEEDUP:.1f}x)",
    ]
    emit("bench_many_paths_sharded", "\n".join(lines))

    assert sharded.n_converged == PATHS, (
        f"sharded runner converged only {sharded.n_converged}/{PATHS} paths"
    )
    assert [status.index for status in sharded.statuses] == list(range(PATHS))
    # One pack per shard, no repacking across the process boundary.
    assert all(fleet["packs"] == 1 for fleet in sharded.fleets)
    assert speedup >= SHARD_MIN_SPEEDUP, (
        f"sharded runner only {speedup:.2f}x faster than a single process "
        f"(required {SHARD_MIN_SPEEDUP:.2f}x with {workers} workers)"
    )


def main(argv: list[str] | None = None) -> None:
    """Command-line entry: ``python bench_many_paths.py --workers 4``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=WORKERS,
        help="worker processes for the sharded run (0 = adaptive gate only)",
    )
    parser.add_argument(
        "--paths", type=int, default=PATHS, help="fleet size (default %(default)s)"
    )
    arguments = parser.parse_args(argv)
    globals()["PATHS"] = arguments.paths
    globals()["WORKERS"] = arguments.workers
    test_many_paths_adaptive_vs_global_restart()
    if arguments.workers > 0:
        test_many_paths_sharded_vs_single_process()


if __name__ == "__main__":
    main()
