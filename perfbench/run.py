"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository (the directory holding
``src/repro``).  Each run starts fresh interpreters with BLAS/OpenMP pinned
to one thread, ``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` and no ``REPRO_*``
configuration, so no outside setting changes what is measured.  Every
process of a run is pinned to one CPU: with the service's event loop and
solver thread on different CPUs, each interpreter-lock handoff crossed CPUs,
and throughput came out lower and several times more variable.  A run is:

* untraced (``--trace 0``): a set-up-only process, one process that sets
  up and measures for ``--seconds``, then another set-up-only process.
  ``setup_s`` is the median of the three set-up times, which span the run;
  ``latency_ms``, ``throughput_per_s`` and ``peak_rss_mb`` come from the
  measuring process;
* traced (``--trace 1``): one process that wraps every layer entry point
  (see ``workloads.install_hooks``) and reports the per-layer metrics.

Times are speed-adjusted by the median probe of the run, taken by a probe
sidecar that runs on the same CPU from before the first set-up until the
last process has ended (see ``probe.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A line before it
records the seed, the speed factor and, in wall time, every operation
and set-up, with every probe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from statistics import median

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_eval", "newton", "fleet", "service")
#: the probe parts each workload's times are adjusted by (see probe.py):
#: paper_eval is large-array sweeps, which slow down less than call overhead
PROBE_PARTS = {
    "paper_eval": ("sweeps",),
    "newton": ("sweeps", "calls"),
    "fleet": ("sweeps", "calls"),
    "service": ("sweeps", "calls"),
}
#: set-up-only processes before and after the measuring one
SETUP_ONLY_EACH_SIDE = 1
#: how long the probe sidecar may take to stop
SIDECAR_STOP_S = 10.0
#: the whole run, set-ups included, must end well inside 180 s
DEADLINE_S = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _environment(source: str) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(PINNED)
    env["PYTHONPATH"] = source
    return env


def _pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _spawn(arguments: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process to completion; returns its last JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another benchmark process")
    command = [sys.executable, os.path.join(HERE, "worker.py"), *arguments]
    command += ["--spawned-ns", str(time.monotonic_ns())]
    completed = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _start_sidecar(parts: tuple[str, ...], env: dict) -> subprocess.Popen:
    """Start the probe sidecar on this process's CPU (see ``probe.py``)."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), *parts],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _stop_sidecar(sidecar: subprocess.Popen) -> list[float]:
    """Close the sidecar's input and wait for it; returns its probe times."""
    try:
        out, _ = sidecar.communicate(input="", timeout=SIDECAR_STOP_S)
    except subprocess.TimeoutExpired:
        sidecar.kill()
        sidecar.wait()
        raise
    if sidecar.returncode != 0:
        raise RuntimeError(f"probe sidecar exited with code {sidecar.returncode}")
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _environment(source)
    cpu = _pin_to_one_cpu()
    # the probe imports NumPy, which reads its thread settings at import
    os.environ.update(PINNED)
    from probe import speed

    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    parts = PROBE_PARTS[args.workload]
    setups = []
    setup_only = 0 if args.trace else SETUP_ONLY_EACH_SIDE
    sidecar = _start_sidecar(parts, env)
    try:
        try:
            for _ in range(setup_only):
                setups.append(_spawn([*common, "--setup-only"], env, deadline)["setup_s"])
            result = _spawn(common, env, deadline)
            setups.append(result["setup_s"])
            for _ in range(setup_only):
                setups.append(_spawn([*common, "--setup-only"], env, deadline)["setup_s"])
        finally:
            probes = _stop_sidecar(sidecar)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    factor = speed(probes, parts)
    if args.trace:
        metrics["host.probe_ms"] = median(probes)
    else:
        metrics["latency_ms"] *= factor
        metrics["throughput_per_s"] /= factor
        metrics["setup_s"] = median(setups) * factor
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    units = PER_LAYER if args.trace else END_TO_END
    print(
        "perfbench:",
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "cpu": cpu,
                "speed_factor": factor,
                "wall_setup_samples_s": setups,
                "probes_ms": [round(p, 3) for p in probes],
                "summary": result["summary"],
                "first_failure": result["first_failure"],
            }
        ),
    )
    attempted, failed = result["attempted"], result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                # a value that could not be measured (every request failed) is null
                "metrics": {
                    name: {
                        "value": metrics[name] if math.isfinite(metrics[name]) else None,
                        "unit": unit,
                    }
                    for name, unit in units.items()
                },
            },
            allow_nan=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
