"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``run.py`` prints exactly these.
"""

#: end-to-end metrics: name -> unit
END_TO_END = {
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: span name -> per-layer metric holding its self time (ms per operation)
SELF_MS = {
    "core.sweep": "core.sweep_ms",
    "core.update_inputs": "core.update_inputs_ms",
    "core.unpack": "core.unpack_ms",
    "core.newton_system": "core.newton_system_ms",
    "core.rebind": "core.rebind_ms",
    "core.pack": "core.pack_ms",
    "core.staging": "core.staging_ms",
    "circuits.common_factor": "circuits.common_factor_ms",
    "series.ops": "series.ops_ms",
    "linsolve.solve": "linsolve.solve_ms",
    "newton.loop": "newton.self_ms",
    "scheduler.track": "scheduler.self_ms",
    "scheduler.builder": "scheduler.builder_ms",
    "service.flush": "service.self_ms",
}

#: span name -> per-layer metric holding its call count (per operation)
CALLS = {
    "core.sweep": "core.sweeps",
    "core.pack": "core.packs",
    "circuits.common_factor": "circuits.common_factor_calls",
    "linsolve.solve": "linsolve.launches",
}

#: per-layer metrics: name -> unit, in report order
PER_LAYER = {
    "core.sweep_ms": "ms",
    "core.sweeps": "count",
    "core.active_density": "ratio",
    "core.update_inputs_ms": "ms",
    "core.unpack_ms": "ms",
    "core.newton_system_ms": "ms",
    "core.rebind_ms": "ms",
    "core.pack_ms": "ms",
    "core.packs": "count",
    "core.staging_ms": "ms",
    "core.cache_misses": "count",
    "core.setup_packs": "count",
    "core.setup_staging_ms": "ms",
    "core.setup_cache_misses": "count",
    "circuits.common_factor_ms": "ms",
    "circuits.common_factor_calls": "count",
    "series.ops_ms": "ms",
    "linsolve.solve_ms": "ms",
    "linsolve.launches": "count",
    "newton.self_ms": "ms",
    "newton.iterations": "count",
    "scheduler.self_ms": "ms",
    "scheduler.builder_ms": "ms",
    "scheduler.rounds": "count",
    "scheduler.retries": "count",
    "scheduler.rejections": "count",
    "service.self_ms": "ms",
    "service.flushes": "1/s",
    "service.fill_mean": "count",
    "service.fill_ratio": "ratio",
    "service.flush_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.latency_p95_ms": "ms",
    "service.latency_samples": "count",
    "service.pool_misses": "count",
    "service.failed": "count",
    "host.probe_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}
