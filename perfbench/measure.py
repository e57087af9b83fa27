"""Timed phases of one benchmark process and the metrics computed from them.

End-to-end metrics come from untraced operations only.  In a traced run
(``--trace 1``) the operations alternate untraced and traced (the service
runs an untraced window, then a traced one), so the same process also
yields ``trace.overhead``: the traced median over the untraced median,
minus one.  Per-layer times and counts are per timed operation of the
traced half; the ``core.setup_*`` metrics cover set-up instead.
"""

from __future__ import annotations

import gc
import math
import threading
from statistics import median, quantiles
from time import perf_counter_ns

from metrics import CALLS, PER_LAYER, SELF_MS
from tracing import ATTRS, END, ID, NAME, START, THREAD, layer_totals, self_times
from workloads import OpWorkload, cache_misses, window_metrics


def run(workload, seconds: float, checks, tracer, misses_before: int) -> dict:
    """Measure ``workload`` after its set-up; returns the process's raw result."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if tracer is not None:
        tracer.uninstall()
        totals = layer_totals(tracer.spans)
        layers["core.setup_packs"] = totals.get("core.pack", {}).get("calls", 0)
        layers["core.setup_staging_ms"] = totals.get("core.staging", {}).get("self_ns", 0) / 1e6
        layers["core.setup_cache_misses"] = cache_misses() - misses_before
        tracer.clear()
    if isinstance(workload, OpWorkload):
        summary = _run_ops(workload, seconds, checks, tracer, layers)
    else:
        summary = _run_service(workload, seconds, tracer, layers)
    result = {"summary": summary}
    if tracer is None:
        result["metrics"] = {
            "latency_ms": summary["latency_ms"],
            "throughput_per_s": summary["throughput_per_s"],
        }
    else:
        result["metrics"] = layers
        summary["spans"] = len(tracer.spans)
    return result


def _run_ops(workload, seconds: float, checks, tracer, layers: dict) -> dict:
    """Timed operations until ``seconds`` have passed (and enough were made)."""
    plain: list[int] = []
    traced: list[int] = []
    counts: list[dict] = []
    misses = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        inputs = workload.prepare()
        gc.collect()
        if trace_this:
            before = cache_misses()
            tracer.install()
            token = tracer.open("op")
        start = perf_counter_ns()
        outcome = workload.op(inputs)
        end = perf_counter_ns()
        if trace_this:
            tracer.close(token)
            tracer.uninstall()
            misses += cache_misses() - before
            counts.append(workload.counts(outcome))
            traced.append(end - start)
        else:
            plain.append(end - start)
        workload.check(inputs, outcome, checks)
        index += 1
        if tracer is None:
            enough = len(plain) >= workload.min_ops
        else:
            enough = bool(plain) and bool(traced)
        # stop at the deadline, or before an operation that would end past it
        if enough and end + median(plain + traced) > deadline:
            break
    latency_ms = median(plain) / 1e6
    summary = {
        "ops": len(plain),
        "op_ms": [round(t / 1e6, 3) for t in plain],
        "latency_ms": latency_ms,
        "throughput_per_s": workload.work_per_op / (latency_ms / 1000.0),
    }
    if tracer is not None:
        n = len(traced)
        _layer_metrics(tracer.spans, n, layers)
        layers["core.cache_misses"] = misses / n
        for name in {key for entry in counts for key in entry}:
            layers[name] = sum(entry.get(name, 0) for entry in counts) / n
        roots = [span for span in tracer.spans if span[NAME] == "op"]
        selfs = self_times(tracer.spans)
        layers["trace.unattributed_share"] = sum(selfs[s[ID]] for s in roots) / sum(
            s[END] - s[START] for s in roots
        )
        layers["trace.overhead"] = median(traced) / median(plain) - 1.0
        summary["traced_op_ms"] = [round(t / 1e6, 3) for t in traced]
    return summary


def _layer_metrics(spans: list[tuple], n_ops: int, layers: dict) -> None:
    """Self times and call counts per operation, plus sweep density."""
    totals = layer_totals(spans)
    for name, metric in SELF_MS.items():
        layers[metric] = totals.get(name, {}).get("self_ns", 0) / 1e6 / n_ops
    for name, metric in CALLS.items():
        layers[metric] = totals.get(name, {}).get("calls", 0) / n_ops
    densities = [s[ATTRS]["density"] for s in spans if s[NAME] == "core.sweep"]
    layers["core.active_density"] = sum(densities) / len(densities) if densities else 0.0


def _run_service(workload, seconds: float, tracer, layers: dict) -> dict:
    """Closed-loop windows: one untraced, plus a traced one in a traced run."""
    windows = [seconds] if tracer is None else [seconds, seconds]
    gc.collect()

    def on_window(index: int) -> None:
        if index == 1:
            tracer.clear()
            tracer.install()

    try:
        measured = workload.measure(windows, on_window if tracer is not None else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    untraced = window_metrics(measured[0])
    summary = {
        "requests": len(measured[0]["requests"]),
        "latency_ms": untraced["latency_ms"],
        "throughput_per_s": untraced["throughput"],
    }
    if tracer is not None:
        _service_layers(workload, measured[1], tracer, layers)
        traced = window_metrics(measured[1])
        layers["trace.overhead"] = traced["latency_ms"] / untraced["latency_ms"] - 1.0
        summary["traced_requests"] = len(measured[1]["requests"])
    return summary


def _service_layers(workload, window: dict, tracer, layers: dict) -> None:
    """Per-request layer times and the flush/queue statistics of one window."""
    begin, end = window["begin"], window["end"]
    # the event loop's thread also runs the clients, whose request building
    # is load generation, not service work: count the executor's spans only
    loop_thread = threading.get_ident()
    spans = [s for s in tracer.spans if begin <= s[START] <= end and s[THREAD] != loop_thread]
    requests = window["requests"]
    n = max(1, len(requests))
    _layer_metrics(spans, n, layers)
    flushes = [s for s in spans if s[NAME] == "service.flush"]
    flush_of = {}
    for span in tracer.spans:
        if span[NAME] == "service.flush":
            for request_id in span[ATTRS]["requests"]:
                flush_of[request_id] = span
    waits, latency_ns, uncovered_ns = [], 0, 0
    for _, _, submitted, replied, _, request, _ in requests:
        flush = flush_of.get(id(request))
        if flush is None:
            continue
        waits.append(flush[START] - submitted)
        latency_ns += replied - submitted
        uncovered_ns += (replied - submitted) - (flush[END] - submitted)
    fills = [s[ATTRS]["fill"] for s in flushes]
    latencies = window_metrics(window)["latencies"]
    layers["service.flushes"] = len(flushes) / ((end - begin) / 1e9)
    layers["service.fill_mean"] = sum(fills) / len(fills) if fills else 0.0
    layers["service.fill_ratio"] = layers["service.fill_mean"] / workload.engine.config.max_batch
    layers["service.flush_ms"] = (
        sum(s[END] - s[START] for s in flushes) / len(flushes) / 1e6 if flushes else 0.0
    )
    layers["service.queue_wait_ms"] = sum(waits) / len(waits) / 1e6 if waits else 0.0
    layers["service.latency_p95_ms"] = (
        quantiles(latencies, n=20)[-1] if len(latencies) >= 2 else math.inf
    )
    layers["service.latency_samples"] = len(latencies)
    layers["service.pool_misses"] = workload.engine.pool.misses
    layers["service.failed"] = sum(1 for entry in requests if not entry[4])
    layers["trace.unattributed_share"] = uncovered_ns / latency_ns if latency_ns else 1.0
    _label_requests(workload, window, tracer)
    iterations = [entry[6] for entry in requests if entry[4]]
    layers["newton.iterations"] = sum(iterations) / len(iterations) if iterations else 0.0


def _label_requests(workload, window: dict, tracer) -> None:
    """Give the window's requests spans, and flush spans readable request ids."""
    labels = {id(entry[5]): f"{entry[0]}.{entry[1]}" for entry in workload.done}
    for span in tracer.spans:
        if span[NAME] == "service.flush":
            span[ATTRS]["requests"] = [labels.get(key, "?") for key in span[ATTRS]["requests"]]
    for client, number, submitted, replied, ok, _, _ in window["requests"]:
        tracer.record(
            "service.request", submitted, replied, {"request": f"{client}.{number}", "ok": ok}
        )
