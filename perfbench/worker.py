"""One benchmark process: set up one workload, measure it, print one JSON line.

Started by ``run.py`` in a fresh interpreter with a pinned environment.
``--spawned-ns`` is the launcher's ``time.monotonic_ns()`` just before it
started this interpreter, so set-up time covers interpreter start and
``import repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import measure
from tracing import Tracer, write_chrome_trace
from workloads import WORKLOADS, Checks, cache_misses, install_hooks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_hooks(tracer)
        tracer.install()

    checks = Checks()
    workload = WORKLOADS[args.workload]()
    misses_before = cache_misses()
    workload.setup(args.seed, checks)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        if hasattr(workload, "close"):
            workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    result = measure.run(workload, args.seconds, checks, tracer, misses_before)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    result["first_failure"] = checks.first_failure
    if tracer is not None:
        if tracer.missing:
            print(f"perfbench: hooks not found: {', '.join(tracer.missing)}", file=sys.stderr)
        tracer.clear()
        path = os.path.join(".perfbench_traces", f"{args.workload}-seed{args.seed}.json.gz")
        write_chrome_trace(tracer.archive, path)
        result["summary"]["trace_file"] = path
    print(json.dumps(result))


if __name__ == "__main__":
    main()
