"""The coalescing asynchronous solve engine.

:class:`SolveEngine` is the long-running front door for heavy solve traffic:
callers :meth:`~SolveEngine.submit` Newton-solve or path-track requests and
await their :class:`repro.service.SolveResponse`.  Internally the engine

1. **admits** each request (bounded queue — admission beyond ``max_queue``
   raises :class:`repro.errors.ServiceOverloadedError`, the backpressure
   signal) and drops it into the *bucket* of its coalesce key — the same
   polynomial-structure key the process-wide
   :class:`repro.core.ScheduleCache` indexes on, refined by tensor ring and
   solve options (:meth:`repro.service.SolveRequest.coalesce_key`);
2. **coalesces**: the first request of a key opens a micro-batching window
   (``window_ms``); every structurally identical request arriving inside it
   joins the same bucket, which flushes when the window closes or the
   bucket reaches ``max_batch`` lanes, whichever comes first.  A window
   that closes while every executor worker is running a flush does not
   flush: its bucket stays open, later requests of its key keep joining it,
   and it flushes as soon as a running flush finishes (oldest deferred
   bucket first) or when it reaches ``max_batch``.  Queue wait thus turns
   into batch width instead of a line of one-request flushes; the
   ``service.deferred_buckets`` gauge counts the buckets waiting this way;
3. **packs-or-rebinds**: the flush checks a warm resident
   :class:`repro.core.EvalContext` out of the structure-keyed
   :class:`repro.service.ContextPool` and re-targets it with
   ``rebind_fleet`` — repeat traffic never repacks — masking unused lanes
   with ``set_active`` so short buckets waste no sweep work;
4. **solves** the whole bucket in one masked fleet
   (:func:`repro.service.fleet.coalesced_newton`, bit-identical per lane to
   solving each request alone) — one packed tensor batch in the two tensor
   modes, ``vectorized`` and ``gpu``, the delegating per-lane path (exact
   fractions, the ``staged`` and ``reference`` modes) otherwise — or merges
   track requests into one :func:`repro.track_paths` fleet;
5. **responds**, resolving every caller's future with its own lane's result.

Blocking NumPy sweeps run on a small thread-pool executor so the event loop
keeps admitting (and coalescing) while earlier buckets solve — that overlap
is where the heavy-traffic throughput comes from.  With telemetry enabled
(:mod:`repro.obs`) the request lifecycle is fully traced: ``service.admit``
/ ``service.flush`` / ``service.rebind`` / ``service.solve`` /
``service.respond`` spans, ``service.queue_depth``, ``service.batch_fill`` and
``service.deferred_buckets`` (buckets waiting for a worker) gauges, and a
``coalesce`` ledger entry pricing each flush against
:meth:`repro.gpusim.TimingModel.predict_coalesce`.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns as _perf_counter_ns
from typing import Optional

from ..errors import (
    ConvergenceError,
    ServiceError,
    ServiceOverloadedError,
    SingularSystemError,
)
from ..obs import get_telemetry
from .api import SolveRequest, SolveResponse, TrackRequest
from .config import ServiceConfig, coerce_service_layer, resolve_service_config
from .fleet import coalesced_newton
from .pool import ContextPool

__all__ = ["SolveEngine"]

_TELEMETRY = get_telemetry()


class _Bucket:
    """One open micro-batch: requests of one coalesce key, not yet flushed.

    ``ready`` marks a bucket whose window closed while every executor worker
    was busy; it flushes when a worker frees.  Readiness belongs to this
    object, not to its key: the next bucket of the key waits for its own
    window.
    """

    __slots__ = ("key", "items", "timer", "config", "opened_ns", "ready")

    def __init__(self, key, config: ServiceConfig):
        self.key = key
        self.items: list[tuple] = []  # (request, future, admitted_ns)
        self.timer = None
        self.config = config
        self.opened_ns = _perf_counter_ns()
        self.ready = False


class SolveEngine:
    """Asyncio engine coalescing structurally identical solve requests.

    Configuration is layered (defaults → ``REPRO_SERVICE_CONFIG`` file →
    ``REPRO_SERVICE_*`` environment → these constructor overrides → each
    request's own ``overrides`` mapping)::

        engine = SolveEngine(window_ms=2.0, max_batch=16)
        await engine.start()
        response = await engine.submit(SolveRequest(system, initial))
        await engine.stop()

    or, synchronously, ``engine.solve(request)`` / the ``asyncio.run``-based
    context manager in ``examples/serve_demo.py``.
    """

    def __init__(self, config: ServiceConfig | dict | None = None, **overrides):
        self.config = resolve_service_config(layer=config, **overrides)
        self.pool = ContextPool(
            slab=self.config.max_batch,
            max_structures=self.config.pool_structures,
        )
        self._buckets: dict[tuple, _Bucket] = {}
        self._queued = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._flushes: set[asyncio.Task] = set()
        # Flushes handed to the executor and not yet finished.  Like the
        # buckets, it is only touched on the event-loop thread.
        self._busy = 0
        self._started = False
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "responses": 0,
            "rejected": 0,
            "errors": 0,
            "flushes": 0,
            "coalesced_flushes": 0,
            "coalesced_requests": 0,
            "max_fill": 0,
            "fill_sum": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "SolveEngine":
        """Bind the engine to the running event loop and start the executor."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-solve"
        )
        self._started = True
        return self

    async def stop(self) -> None:
        """Flush every open bucket, deferred ones too, wait for in-flight solves, shut down."""
        if not self._started:
            return
        while self._buckets or self._flushes:
            for key in list(self._buckets):
                self._flush_now(key)
            await asyncio.gather(*list(self._flushes), return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._started = False
        self._loop = None
        self._executor = None

    async def __aenter__(self) -> "SolveEngine":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(self, request) -> SolveResponse:
        """Admit one request and await its response.

        Raises :class:`repro.errors.ServiceOverloadedError` when admission
        control rejects the request, and :class:`repro.errors.ServiceError`
        for malformed requests; solve-time failures (singular systems,
        missed tolerances under ``raise_on_failure``) come back *in* the
        response's ``error`` field so one bad lane cannot fail its batch
        siblings.
        """
        if not self._started:
            raise ServiceError("the engine is not running; call start() first")
        if not isinstance(request, (SolveRequest, TrackRequest)):
            raise ServiceError(
                f"submit takes a SolveRequest or TrackRequest, "
                f"got {type(request).__name__}"
            )
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        config = self.config
        if request.overrides is not None:
            try:
                config = coerce_service_layer(request.overrides).merged_onto(config)
            except (TypeError, ValueError) as exc:
                raise ServiceError(f"bad service overrides: {exc}") from exc
        if self._queued >= config.max_queue:
            with self._stats_lock:
                self._stats["rejected"] += 1
            if tel.enabled:
                tel.count("service.rejected")
            raise ServiceOverloadedError(
                f"queue depth {self._queued} at the admission limit "
                f"{config.max_queue}; retry later"
            )
        key = request.coalesce_key(config.mode)
        future: asyncio.Future = self._loop.create_future()
        admitted_ns = _perf_counter_ns()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(key, config)
            self._buckets[key] = bucket
            if config.window_ms > 0.0:
                bucket.timer = self._loop.call_later(
                    config.window_ms / 1000.0, self._window_closed, bucket
                )
        bucket.items.append((request, future, admitted_ns))
        self._queued += 1
        with self._stats_lock:
            self._stats["requests"] += 1
        if t0:
            tel.record_span(
                "service.admit", t0, _perf_counter_ns(), fill=len(bucket.items)
            )
            tel.count("service.requests")
            tel.gauge("service.queue_depth", self._queued)
        if len(bucket.items) >= bucket.config.max_batch or config.window_ms == 0.0:
            self._flush_now(key)
        return await future

    def solve(self, request) -> SolveResponse:
        """Synchronous convenience: run one request on a private loop."""

        async def _run():
            async with self:
                return await self.submit(request)

        return asyncio.run(_run())

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #
    def _window_closed(self, bucket: _Bucket) -> None:
        """Timer callback: flush ``bucket`` if a worker is free, else defer it."""
        if self._buckets.get(bucket.key) is not bucket:
            return
        if self._busy < self.config.workers:
            self._flush_now(bucket.key)
            return
        bucket.ready = True
        if _TELEMETRY.enabled:
            _TELEMETRY.gauge("service.deferred_buckets", self._deferred())

    def _deferred(self) -> int:
        """Open buckets waiting for a worker."""
        return sum(1 for bucket in self._buckets.values() if bucket.ready)

    def _flush_ready(self) -> None:
        """Flush deferred buckets, oldest first, while a worker is free."""
        for bucket in [b for b in self._buckets.values() if b.ready]:
            if self._busy >= self.config.workers:
                return
            self._flush_now(bucket.key)

    def _flush_now(self, key) -> None:
        """Close the bucket of ``key`` and hand it to the executor."""
        bucket = self._buckets.pop(key, None)
        if bucket is None or not bucket.items:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        if bucket.ready and _TELEMETRY.enabled:
            _TELEMETRY.gauge("service.deferred_buckets", self._deferred())
        # Busy from the hand-off, not from when the task first runs: two
        # windows closing in one loop iteration must not both see a free
        # worker.
        self._busy += 1
        task = self._loop.create_task(self._flush(bucket))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _flush(self, bucket: _Bucket) -> None:
        items = bucket.items
        k = len(items)
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        try:
            responses = await self._loop.run_in_executor(
                self._executor, self._solve_bucket, bucket
            )
        except Exception as error:  # a whole-bucket failure answers every lane
            responses = [
                SolveResponse(error=error, batch_fill=k, coalesced=k > 1)
                for _ in items
            ]
        finally:
            self._busy -= 1
            self._flush_ready()
        self._queued -= k
        respond_ns = _perf_counter_ns()
        for (request, future, admitted_ns), response in zip(items, responses):
            response.elapsed_ms = (respond_ns - admitted_ns) / 1e6
            if not future.done():
                future.set_result(response)
        with self._stats_lock:
            self._stats["responses"] += k
            self._stats["flushes"] += 1
            self._stats["fill_sum"] += k
            self._stats["max_fill"] = max(self._stats["max_fill"], k)
            self._stats["errors"] += sum(1 for r in responses if r.error is not None)
            if k > 1:
                self._stats["coalesced_flushes"] += 1
                self._stats["coalesced_requests"] += k
        if t0:
            tel.record_span(
                "service.respond", respond_ns, _perf_counter_ns(), fill=k
            )
            tel.gauge("service.queue_depth", self._queued)

    # ------------------------------------------------------------------ #
    # solving (executor thread)
    # ------------------------------------------------------------------ #
    def _solve_bucket(self, bucket: _Bucket) -> list[SolveResponse]:
        tel = _TELEMETRY
        t0 = tel.enabled and _perf_counter_ns()
        items = bucket.items
        k = len(items)
        if tel.enabled:
            tel.gauge("service.batch_fill", k / bucket.config.max_batch)
            if k > 1:
                tel.count("service.coalesced", k)
        first = items[0][0]
        if isinstance(first, TrackRequest):
            responses = self._solve_track_bucket(bucket)
        else:
            responses = self._solve_newton_bucket(bucket)
        if t0:
            tel.record_span(
                "service.flush",
                t0,
                _perf_counter_ns(),
                fill=k,
                kind="track" if isinstance(first, TrackRequest) else "newton",
            )
        return responses

    def _solve_newton_bucket(self, bucket: _Bucket) -> list[SolveResponse]:
        tel = _TELEMETRY
        requests = [request for request, _, _ in bucket.items]
        k = len(requests)
        options = requests[0].options
        mode = bucket.config.mode
        systems = [request.system.with_mode(mode) for request in requests]
        ring = bucket.key[3]
        t0 = tel.enabled and _perf_counter_ns()
        context = self.pool.checkout(
            bucket.key, lambda slab: systems[0].make_context(slab)
        )
        runs_before = context.runs
        try:
            span = tel.enabled and _perf_counter_ns()
            if span:
                tel.record_span(
                    "service.rebind", t0, span, fill=k, warm=context.packs > 0
                )
            results = coalesced_newton(
                context, systems, [r.initial for r in requests], options
            )
            sweeps = context.runs - runs_before
        except BaseException:
            # A half-updated context must not serve the next flush.
            self.pool.discard(bucket.key, context)
            raise
        self.pool.checkin(bucket.key, context)
        if tel.enabled:
            end = _perf_counter_ns()
            tel.record_span("service.solve", t0, end, fill=k, sweeps=sweeps)
            # The prediction prices a resident sweep-and-batched-solve flush;
            # delegating and forced-scalar flushes are timed but not paired.
            if context.resident and options.solver != "scalar":
                predicted = self._predict_coalesce(systems[0], k, sweeps, ring)
                if predicted is not None:
                    tel.ledger("coalesce", (end - t0) / 1e6, predicted)
        responses = []
        for index, result in enumerate(results):
            if result.singular:
                error = SingularSystemError(f"singular Newton system for request {index}")
                error.instances = [index]
                responses.append(
                    SolveResponse(error=error, batch_fill=k, coalesced=k > 1)
                )
                continue
            error = None
            if not result.converged and options.raise_on_failure:
                error = ConvergenceError(
                    f"Newton did not reach tolerance {options.tolerance} in "
                    f"{options.max_iterations} iterations"
                )
            responses.append(
                SolveResponse(
                    solution=result.solution,
                    converged=result.converged,
                    iterations=result.iterations,
                    residual=result.final_residual,
                    batch_fill=k,
                    coalesced=k > 1,
                    status=result,
                    error=error,
                )
            )
        return responses

    def _solve_track_bucket(self, bucket: _Bucket) -> list[SolveResponse]:
        from ..homotopy.scheduler import track_paths

        requests = [request for request, _, _ in bucket.items]
        k = len(requests)
        first = requests[0]
        report = track_paths(
            first.family,
            [request.start for request in requests],
            options=first.options,
            t_start=first.t_start,
            t_end=first.t_end,
        )
        responses = []
        for index in range(k):
            result = report.results[index]
            status = report.statuses[index]
            last = result.points[-1] if result.points else None
            responses.append(
                SolveResponse(
                    solution=list(last.values) if last is not None else None,
                    converged=status.converged,
                    iterations=status.steps,
                    residual=status.residual,
                    batch_fill=k,
                    coalesced=k > 1,
                    status=status,
                )
            )
        return responses

    def _predict_coalesce(self, system, requests: int, sweeps: int, ring):
        """Memo-free prediction hook for the measured-vs-predicted ledger."""
        try:
            from ..core.tensor import plane_count
            from ..gpusim.timing import TimingModel

            model = TimingModel(device=system.evaluator.device, precision=ring[1])
            return model.predict_coalesce(
                system.evaluator.fused,
                requests=requests,
                steps=max(1, sweeps),
                planes=plane_count(ring[0]),
            )["coalesced_wall_ms"]
        except Exception:
            return None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Live counters: traffic, coalescing, pool residency, cache."""
        from ..core.system import default_schedule_cache

        with self._stats_lock:
            stats = dict(self._stats)
        flushes = stats.pop("fill_sum"), stats["flushes"]
        stats["mean_fill"] = flushes[0] / flushes[1] if flushes[1] else 0.0
        stats["queued"] = self._queued
        stats["open_buckets"] = len(self._buckets)
        stats["deferred_buckets"] = self._deferred()
        stats["config"] = self.config.as_dict()
        stats["pool"] = self.pool.stats()
        stats["cache"] = default_schedule_cache().stats()
        return stats
