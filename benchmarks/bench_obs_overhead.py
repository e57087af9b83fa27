"""Overhead gate of the telemetry subsystem on the many-paths workload.

``repro.obs`` promises that an instrumented call site costs a *single
attribute check* when telemetry is disabled, and stays near-zero when
enabled (spans are cheap monotonic pairs; counters are dict bumps).  This
benchmark runs the same 1000-path stiff fleet as ``bench_many_paths``
twice per repetition — telemetry off, then telemetry on — alternating so
cache state and thermal drift hit both sides equally, and gates the
**relative overhead of the enabled run** at ``BENCH_OBS_MAX_OVERHEAD``
(default 2%, ``0`` disables the gate on noisy boxes).

The disabled run's *absolute* time is persisted in the JSON artifact (same
fleet and knobs as ``bench_many_paths``), so the CI perf trajectory across
commits catches a disabled-path regression that a single in-process A/B
cannot see.

The enabled run's merged trace and report are written to
``benchmarks/results/obs_trace.json`` / ``obs_report.json`` — the
``obs-smoke`` CI job uploads both, giving every CI run a loadable Perfetto
timeline of the full fleet.
"""

from __future__ import annotations

import os
import time

from _schema import RESULTS_DIR, write_artifact
from bench_many_paths import BASE_LIMBS, HARD_FRACTION, RetryFamily, _options, _starts
from conftest import emit
from repro import track_paths
from repro.obs import get_telemetry

#: Fleet size; the acceptance run uses the full 1000-path workload.
PATHS = int(os.environ.get("BENCH_OBS_PATHS", "1000"))
#: Off/on pairs to run; each side keeps its minimum.
REPETITIONS = int(os.environ.get("BENCH_OBS_REPETITIONS", "3"))
#: Relative overhead gate for the telemetry-enabled run (0 disables).
MAX_OVERHEAD = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD", "0.02"))


def _run(starts, telemetry: bool):
    begin = time.perf_counter()
    report = track_paths(
        RetryFamily(BASE_LIMBS), starts, options=_options(), telemetry=telemetry
    )
    return time.perf_counter() - begin, report


def test_obs_overhead_gate():
    """Telemetry on vs off on the 1000-path fleet: <= 2% wall-clock apart."""
    tel = get_telemetry()
    tel.reset()
    starts = _starts(PATHS, HARD_FRACTION)

    # One throwaway run builds the schedule caches both sides then share.
    _run(starts, telemetry=False)

    off_times, on_times = [], []
    baseline = traced = None
    for _ in range(REPETITIONS):
        seconds, baseline = _run(starts, telemetry=False)
        off_times.append(seconds)
        tel.reset()
        seconds, traced = _run(starts, telemetry=True)
        on_times.append(seconds)
        snapshot = tel.snapshot(reset=True)

    # Telemetry never changes results.
    assert traced.n_converged == baseline.n_converged == PATHS
    # The enabled run actually recorded the fleet.
    assert snapshot["events"] and snapshot["counters"]["solve.launches"] > 0

    off_s, on_s = min(off_times), min(on_times)
    overhead = on_s / off_s - 1.0

    from repro.obs import build_report, write_trace

    RESULTS_DIR.mkdir(exist_ok=True)
    write_trace(snapshot, RESULTS_DIR / "obs_trace.json")
    report = build_report(snapshot)
    write_artifact(
        "bench_obs_overhead",
        {
            "paths": PATHS,
            "repetitions": REPETITIONS,
            "max_overhead_gate": MAX_OVERHEAD,
            "telemetry_off_seconds": off_s,
            "telemetry_on_seconds": on_s,
            "telemetry_off_all": off_times,
            "telemetry_on_all": on_times,
            "overhead": overhead,
            "spans_recorded": len(snapshot["events"]),
            "counters": snapshot["counters"],
            "report": report,
        },
    )
    import json

    (RESULTS_DIR / "obs_report.json").write_text(json.dumps(report, indent=2) + "\n")

    emit(
        "bench_obs_overhead",
        "\n".join(
            [
                f"telemetry overhead on {PATHS} paths (min of {REPETITIONS}):",
                f"  telemetry off : {off_s:.3f} s",
                f"  telemetry on  : {on_s:.3f} s "
                f"({len(snapshot['events'])} spans recorded)",
                f"  overhead      : {overhead * 100:+.2f}% "
                f"(gate {'<= ' + format(MAX_OVERHEAD * 100, '.0f') + '%' if MAX_OVERHEAD > 0 else 'off'})",
            ]
        ),
    )

    if MAX_OVERHEAD > 0:
        assert overhead <= MAX_OVERHEAD, (
            f"telemetry-enabled run is {overhead * 100:.2f}% slower than disabled "
            f"(gate {MAX_OVERHEAD * 100:.0f}%): {on_s:.3f}s vs {off_s:.3f}s"
        )
