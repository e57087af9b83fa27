"""Process-sharded fleet execution on shared-memory limb tensors.

After PR 7 the whole resident fleet still runs in one Python process: the
masked many-path scheduler packs thousands of independent paths into one
limb tensor and sweeps it with NumPy on a single core.  The workload is
embarrassingly data-parallel — every path is independent, every tensor row
operation is elementwise per instance — so the natural scale-out is to
*shard the fleet across worker processes*, which is what this module does:

* :func:`partition_paths` splits the start vectors into contiguous shards
  (built on :func:`repro.parallel.chunk_evenly`, so shard sizes differ by at
  most one and every path lands in exactly one shard);
* the parent sizes one ``multiprocessing.shared_memory`` segment per shard
  from the fused layout and the inferred coefficient ring, and each worker's
  :class:`repro.core.EvalContext` packs its fleet **directly into the
  segment** (:meth:`SlotTensor.export_buffer` / :meth:`SlotTensor.from_buffer`
  — one pack per shard, no repacking across the process boundary);
* fused schedules and compiled tensor programs are staged **once in the
  parent** and shipped to the workers
  (:meth:`repro.core.ScheduleCache.export_entries` /
  :meth:`~repro.core.ScheduleCache.install_entries`), so workers restage
  nothing;
* a small control-plane protocol — spawn-safe worker entry, a readiness
  message, periodic heartbeats — lets the parent detect a crashed or hung
  worker and degrade that shard to an inline re-run instead of losing the
  fleet (:attr:`repro.homotopy.options.ShardOptions.fallback_inline`).

Sharding never changes results: per-path arithmetic is elementwise per
instance, so any shard assignment — including one worker, including the
inline fallback — produces limb-for-limb the bits of the in-process
:class:`repro.homotopy.PathScheduler`, which the test suite asserts.

The front door is :func:`repro.track_paths` with
``options.shard.workers != 0`` (or ``shards=N`` / the ``REPRO_WORKERS``
environment variable); :class:`ShardedFleetRunner` is the engine behind it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Sequence

from ..errors import ShardError
from ..obs import get_telemetry
from .partition import chunk_evenly

__all__ = ["ShardPlan", "partition_paths", "ShardedFleetRunner"]

#: Process-wide telemetry registry; ``enabled`` is a plain attribute so the
#: disabled hot path costs exactly one attribute check per call site.
_TELEMETRY = get_telemetry()


@dataclass(frozen=True)
class ShardPlan:
    """One shard's slice of the fleet: which global path indices it tracks."""

    shard: int
    indices: tuple[int, ...]

    @property
    def n_paths(self) -> int:
        return len(self.indices)


def partition_paths(
    n_paths: int, workers: int, max_shard_size: int | None = None
) -> list[ShardPlan]:
    """Partition ``range(n_paths)`` into contiguous, balanced shards.

    At most one shard per worker unless ``max_shard_size`` forces more
    (the runner then queues the surplus shards behind the worker budget).
    Every path lands in exactly one shard and shard sizes differ by at most
    one — the permutation-free-cover property the hypothesis suite checks.
    """
    if workers < 1:
        raise ValueError(f"partitioning needs workers >= 1, got {workers}")
    if n_paths == 0:
        return []
    parts = min(workers, n_paths)
    if max_shard_size is not None:
        if max_shard_size < 1:
            raise ValueError(f"max_shard_size must be >= 1, got {max_shard_size}")
        needed = -(-n_paths // max_shard_size)  # ceil division
        parts = min(n_paths, max(parts, needed))
    chunks = chunk_evenly(list(range(n_paths)), parts)
    return [ShardPlan(i, tuple(chunk)) for i, chunk in enumerate(chunks)]


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _shard_worker(task: dict, channel) -> None:
    """Spawn-safe worker entry: track one shard and report over the queue.

    ``task`` carries everything the shard needs — the (picklable) system
    family, its slice of start values, the worker-side options (sharding
    disabled so workers never recurse), the parent's staged schedule
    entries, and the name of the shared-memory segment to pack into.  The
    protocol on ``channel`` is ``ready`` → ``heartbeat``\\* → ``result`` |
    ``error``; the parent treats a silent or dead worker as a failed shard.
    """
    shard = task["shard"]
    segment = None
    stop = threading.Event()
    try:
        from ..core.system import default_schedule_cache
        from ..homotopy.scheduler import PathScheduler

        default_schedule_cache().install_entries(task["schedules"])
        if task["segment"] is not None:
            segment = shared_memory.SharedMemory(name=task["segment"])
        channel.put({"kind": "ready", "shard": shard})

        def beat() -> None:
            while not stop.wait(task["heartbeat_s"]):
                channel.put({"kind": "heartbeat", "shard": shard})

        threading.Thread(target=beat, daemon=True).start()
        # Workers record telemetry locally (enabled via the options' telemetry
        # layer or the inherited environment) and ship the snapshot home on
        # the result message; the parent merges it into one timeline.
        telemetry = get_telemetry()
        telemetry.label = f"shard {shard} worker"
        scheduler = PathScheduler(task["family"], task["options"])
        report = scheduler.track(
            task["starts"],
            task["t_start"],
            task["t_end"],
            context_buffer=segment.buf if segment is not None else None,
        )
        stop.set()
        snapshot = telemetry.snapshot(reset=True)
        if not (snapshot["events"] or snapshot["counters"] or snapshot["ledger"]):
            snapshot = None
        channel.put(
            {"kind": "result", "shard": shard, "report": report, "telemetry": snapshot}
        )
    except BaseException as error:  # report everything; the parent decides
        stop.set()
        try:
            channel.put({"kind": "error", "shard": shard, "message": repr(error)})
        except Exception:
            pass  # a broken channel degrades to the parent's liveness timeout
    finally:
        if segment is not None:
            # The report is already serialized onto the queue (its path points
            # hold plain ring scalars, not tensor views), so detaching here
            # cannot invalidate anything the parent will read.
            segment.close()


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class _ShardState:
    """Parent-side bookkeeping of one shard in flight (internal)."""

    __slots__ = (
        "plan",
        "starts",
        "segment",
        "segment_bytes",
        "process",
        "ready",
        "last_seen",
        "dead_since",
        "started_at",
        "span_ns",
        "telemetry",
        "report",
        "failure",
        "via",
        "elapsed_s",
    )

    def __init__(self, plan: ShardPlan, starts: list, segment, segment_bytes: int):
        self.plan = plan
        self.starts = starts
        self.segment = segment
        self.segment_bytes = segment_bytes
        self.process = None
        self.ready = False
        self.last_seen: float | None = None
        self.dead_since: float | None = None
        self.started_at: float | None = None
        self.span_ns: int | None = None
        self.telemetry: dict | None = None
        self.report = None
        self.failure: str | None = None
        self.via = "process"
        self.elapsed_s = 0.0


class ShardedFleetRunner:
    """Run one :func:`repro.track_paths` fleet sharded across processes.

    The runner is the multi-process analogue of
    :class:`repro.homotopy.PathScheduler`: same inputs, same
    :class:`repro.homotopy.TrackManyReport` out (statuses re-indexed to
    input order, fleet diagnostics tagged with their shard, per-shard
    summaries in ``report.shards``).  Workers are spawned — never forked —
    so the entry point works identically on every platform and no parent
    state leaks in; each worker runs one in-process scheduler over its
    shard with sharding disabled.
    """

    def __init__(
        self,
        system_family: Callable,
        options=None,
        **overrides,
    ):
        from ..homotopy.options import TrackOptions

        self.system_family = system_family
        self.options = TrackOptions.make(options, **overrides)

    # ------------------------------------------------------------------ #
    def track(
        self,
        start_values: Sequence[Sequence],
        t_start: float = 0.0,
        t_end: float = 1.0,
    ):
        from ..homotopy.scheduler import TrackManyReport, _check_t_range

        _check_t_range(t_start, t_end)
        starts = [list(start) for start in start_values]
        if not starts:
            return TrackManyReport()
        tel = _TELEMETRY
        with tel.overridden(self.options.telemetry):
            shard_options = self.options.shard
            workers = shard_options.resolve_workers()
            if workers < 1:
                return self._track_inline(starts, t_start, t_end)

            plans = partition_paths(len(starts), workers, shard_options.max_shard_size)
            worker_options = self.options.override(shard={"workers": 0})
            payload_error = self._payload_error(worker_options)
            if payload_error is not None:
                if not shard_options.fallback_inline:
                    raise ShardError(
                        f"the fleet cannot be sharded across processes: {payload_error}"
                    )
                if tel.enabled:
                    tel.count("shard.fallbacks")
                with tel.scope(fallback=True):
                    report = self._track_inline(starts, t_start, t_end)
                report.shards.append(
                    {
                        "shard": 0,
                        "paths": len(starts),
                        "via": "inline-fallback",
                        "reason": payload_error,
                    }
                )
                return report

            t0 = tel.enabled and time.perf_counter_ns()
            states = self._prepare(plans, starts, t_start, worker_options)
            if t0:
                tel.record_span(
                    "shard.prepare", t0, time.perf_counter_ns(), shards=len(states)
                )
            try:
                self._run_control_plane(states, t_start, t_end, worker_options, workers)
            finally:
                self._cleanup(states)
            self._resolve_failures(states, t_start, t_end, worker_options)
            return self._merge(states, len(starts))

    # ------------------------------------------------------------------ #
    def _track_inline(self, starts, t_start, t_end):
        """The single-process engine, with sharding disabled (no recursion)."""
        from ..homotopy.scheduler import PathScheduler

        options = self.options.override(shard={"workers": 0})
        return PathScheduler(self.system_family, options).track(starts, t_start, t_end)

    def _payload_error(self, worker_options) -> str | None:
        """Why the worker payload cannot cross the process boundary (or None).

        Spawned workers receive the system family by pickle; a closure or a
        lambda cannot make the trip, and the failure mode should be a clean
        inline fallback with a diagnostic, not a crash inside
        ``multiprocessing``.
        """
        try:
            pickle.dumps((self.system_family, worker_options))
        except Exception as error:
            return f"the system family/options do not pickle ({error!r})"
        return None

    # ------------------------------------------------------------------ #
    def _prepare(self, plans, starts, t_start: float, worker_options) -> list[_ShardState]:
        """Stage schedules once, size and allocate one segment per shard."""
        from ..core.tensor import (
            compile_tensor_program,
            infer_ring,
            join_rings,
            tensor_nbytes,
        )
        from ..series.series import PowerSeries

        options = self.options
        probe = self.system_family(t_start, options.degree).with_mode(options.mode)
        evaluator = probe.evaluator
        key = evaluator._structure_key
        program_key = (key, "tensor-program")
        evaluator.cache.get(program_key, lambda: compile_tensor_program(evaluator.fused))
        self._schedules = evaluator.cache.export_entries([key, program_key])

        ring = evaluator._ring_of_system()
        if ring is not None:
            input_ring = infer_ring(
                PowerSeries([value]) for start in starts for value in start
            )
            ring = None if input_ring is None else join_rings(ring, input_ring)
        width = evaluator.degree + 1
        stride = evaluator.fused.total_slots

        states = []
        for plan in plans:
            shard_starts = [starts[i] for i in plan.indices]
            segment, nbytes = None, 0
            if ring is not None:
                nbytes = tensor_nbytes(ring[0], ring[1], plan.n_paths * stride, width)
                try:
                    segment = shared_memory.SharedMemory(create=True, size=nbytes)
                except OSError:
                    segment, nbytes = None, 0  # worker packs locally instead
            states.append(_ShardState(plan, shard_starts, segment, nbytes))
        return states

    def _task_for(self, state: _ShardState, t_start, t_end, worker_options) -> dict:
        heartbeat_s = max(0.05, self.options.shard.heartbeat_timeout_s / 4.0)
        return {
            "shard": state.plan.shard,
            "family": self.system_family,
            "starts": state.starts,
            "options": worker_options,
            "schedules": self._schedules,
            "segment": state.segment.name if state.segment is not None else None,
            "t_start": t_start,
            "t_end": t_end,
            "heartbeat_s": heartbeat_s,
        }

    # ------------------------------------------------------------------ #
    def _run_control_plane(
        self, states: list[_ShardState], t_start, t_end, worker_options, workers: int
    ) -> None:
        """Spawn, watch and collect the shard workers.

        At most ``workers`` processes are live at a time (``max_shard_size``
        may have produced more shards than workers); the queue drains
        readiness/heartbeat/result messages, and a worker that dies or goes
        silent past its timeout is terminated and marked failed — resolution
        (inline re-run or raise) happens afterwards.
        """
        shard_opts = self.options.shard
        tel = _TELEMETRY
        context = multiprocessing.get_context("spawn")
        channel = context.Queue()
        by_shard = {state.plan.shard: state for state in states}
        waiting = list(states)
        live: dict[int, _ShardState] = {}
        try:
            while waiting or live:
                while waiting and len(live) < workers:
                    state = waiting.pop(0)
                    task = self._task_for(state, t_start, t_end, worker_options)
                    state.process = context.Process(
                        target=_shard_worker, args=(task, channel), daemon=True
                    )
                    state.started_at = time.monotonic()
                    state.last_seen = state.started_at
                    state.span_ns = time.perf_counter_ns()
                    state.process.start()
                    live[state.plan.shard] = state
                    if tel.enabled:
                        tel.count("shard.workers_spawned")
                try:
                    message = channel.get(timeout=0.2)
                except queue_module.Empty:
                    message = None
                if message is not None:
                    state = by_shard.get(message.get("shard"))
                    if state is not None and state.plan.shard in live:
                        now = time.monotonic()
                        kind = message["kind"]
                        if (
                            kind == "heartbeat"
                            and tel.enabled
                            and state.last_seen is not None
                        ):
                            # Gap since the worker's previous sign of life —
                            # the parent-observed heartbeat latency.
                            tel.gauge("shard.heartbeat_latency_s", now - state.last_seen)
                        state.last_seen = now
                        if kind == "ready":
                            state.ready = True
                        elif kind == "result":
                            state.report = message["report"]
                            state.telemetry = message.get("telemetry")
                            state.elapsed_s = now - state.started_at
                            live.pop(state.plan.shard)
                            self._record_worker_span(state, "result")
                        elif kind == "error":
                            state.failure = message["message"]
                            state.elapsed_s = now - state.started_at
                            live.pop(state.plan.shard)
                            self._record_worker_span(state, "error")
                for shard, state in list(live.items()):
                    reason = self._liveness_failure(state, shard_opts)
                    if reason is not None:
                        state.failure = reason
                        state.elapsed_s = time.monotonic() - state.started_at
                        live.pop(shard)
                        self._record_worker_span(state, "dead")
        finally:
            channel.close()
            channel.join_thread()

    @staticmethod
    def _record_worker_span(state: _ShardState, outcome: str) -> None:
        """One parent-side span covering a worker's whole lifecycle."""
        tel = _TELEMETRY
        if tel.enabled and state.span_ns is not None:
            tel.record_span(
                "shard.worker",
                state.span_ns,
                time.perf_counter_ns(),
                shard=state.plan.shard,
                paths=state.plan.n_paths,
                outcome=outcome,
            )

    @staticmethod
    def _liveness_failure(state: _ShardState, shard_opts) -> str | None:
        now = time.monotonic()
        if state.process is not None and not state.process.is_alive():
            # A finished worker's result may still sit in the queue's feeder
            # pipe: give the drain loop a grace window before declaring the
            # shard dead, so a fast exit is not misread as a crash.
            if state.dead_since is None:
                state.dead_since = now
                return None
            if now - state.dead_since > 5.0:
                code = state.process.exitcode
                return f"worker process died (exit code {code}) before reporting"
            return None
        timeout = (
            shard_opts.heartbeat_timeout_s if state.ready else shard_opts.start_timeout_s
        )
        if now - state.last_seen > timeout:
            stage = "heartbeat" if state.ready else "readiness"
            return f"worker went silent ({stage} timeout of {timeout:g}s exceeded)"
        return None

    # ------------------------------------------------------------------ #
    def _resolve_failures(self, states, t_start, t_end, worker_options) -> None:
        """Re-run failed shards inline (or raise, per the fallback policy)."""
        from ..homotopy.scheduler import PathScheduler

        tel = _TELEMETRY
        for state in states:
            if state.report is not None:
                continue
            if not self.options.shard.fallback_inline:
                raise ShardError(
                    f"shard {state.plan.shard} failed without inline fallback: "
                    f"{state.failure or 'no result received'}"
                )
            if tel.enabled:
                tel.count("shard.fallbacks")
            began = time.monotonic()
            scheduler = PathScheduler(self.system_family, worker_options)
            # Every span the re-run records — sweeps, solves, rounds — is
            # stamped ``fallback=True`` so the merged trace keeps the
            # degraded shard distinguishable from healthy worker lanes.
            with tel.scope(fallback=True, shard=state.plan.shard):
                state.report = scheduler.track(state.starts, t_start, t_end)
            state.elapsed_s = time.monotonic() - began
            state.via = "inline-fallback"

    def _cleanup(self, states: list[_ShardState]) -> None:
        for state in states:
            process = state.process
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
            if state.segment is not None:
                state.segment.close()
                try:
                    state.segment.unlink()
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------ #
    def _merge(self, states: list[_ShardState], n_paths: int):
        """Stitch the per-shard reports back together in input order."""
        from ..homotopy.scheduler import TrackManyReport

        tel = _TELEMETRY
        merged = TrackManyReport(results=[None] * n_paths, statuses=[None] * n_paths)
        cache_totals = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "build_waits": 0,
            "per_shard": [],
        }
        for state in states:
            report = state.report
            # Fold the worker's telemetry snapshot into the parent registry:
            # same monotonic clock, own pid lane, shard attribute stamped on
            # every span — one merged timeline across the whole fleet.
            if state.telemetry is not None:
                tel.merge(state.telemetry, shard=state.plan.shard)
            if report.cache:
                for key in ("hits", "misses", "evictions", "build_waits"):
                    cache_totals[key] += report.cache.get(key, 0)
                cache_totals["per_shard"].append(
                    {"shard": state.plan.shard, **report.cache}
                )
            for local_index, global_index in enumerate(state.plan.indices):
                merged.results[global_index] = report.results[local_index]
                merged.statuses[global_index] = dataclasses.replace(
                    report.statuses[local_index], index=global_index
                )
            for fleet in report.fleets:
                merged.fleets.append({**fleet, "shard": state.plan.shard})
            merged.shards.append(
                {
                    "shard": state.plan.shard,
                    "paths": state.plan.n_paths,
                    "via": state.via,
                    "failure": state.failure,
                    "converged": report.n_converged,
                    "retries": report.total_retries,
                    "packs": report.total_packs,
                    "adopted": bool(
                        report.fleets and report.fleets[0].get("adopted", False)
                    ),
                    "segment_bytes": state.segment_bytes,
                    "elapsed_s": state.elapsed_s,
                }
            )
        merged.cache = cache_totals
        return merged
