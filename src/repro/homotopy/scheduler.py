"""The path tracker: an adaptive masked many-path scheduler with retries.

The production workload of the paper is thousands to millions of
independent solution paths; this module tracks them, and a single path is a
fleet of one.  It is the package's only tracker:

* **per-path adaptive steps** — every path carries its own step size ``h``,
  grown when Newton converges fast (few iterations) and shrunk when a trial
  point is rejected, under the :class:`repro.homotopy.options.StepControl`
  policy.  ``grow = 1.0`` with an empty precision ladder and
  ``max_rejections = 0`` is the fixed-grid tracker: every path steps on one
  grid of the initial step and fails at its first rejected point;
* **warm starts** — a path's first refinement starts from the constant
  series of its start values; every later one from its accepted series
  shifted by the path's step (:func:`repro.homotopy.pathtrack._shift`),
  ``x(t + h + s)`` up to truncation, so Newton keeps the coefficients the
  accepted series already holds instead of rebuilding them from a constant.
  A rejected trial re-shifts the same accepted series by the shrunk step;
* **resident Newton state** — on a resident context every path's iterate,
  accepted series and next trial input stay limb rows: Newton corrects the
  context's state rows in place, and the predictor shifts each accepted
  series by that path's own step with a row replica of ``_shift``
  (:func:`repro.md.replica.series_shift`) that equals it limb for limb,
  writing the next round's inputs straight into the rows.
  :class:`PathPoint` values are unpacked into scalars only when read.  A
  path whose state is still the caller's plain floats (an exact start)
  keeps them: its corrections coerce them as ``PowerSeries.__add__`` does
  and its predictions run in floats.  Start values of other types (ints,
  NumPy scalars) are carried in the ring they promote into, so their points
  read back as that ring's scalars.  Delegating contexts (staged,
  fractions) and ``solver="scalar"`` keep the object path, the oracle the
  rows are tested against;
* **masked residency** — the whole fleet stays packed in one resident
  :class:`repro.core.EvalContext` for the entire track, and every round
  refines the running paths through the one Newton iteration,
  :func:`repro.homotopy.newton.refine_lanes`.  Paths that converge,
  fail, or merely sit out a Newton iteration are masked out of the sweeps
  (:meth:`repro.core.EvalContext.set_active`) and of the batched linear solve
  (the ``active`` mask of :func:`repro.homotopy.batch_linsolve.solve_packed`)
  instead of being repacked away — the surviving batch packs its slot tensor
  **once**, which the test suite asserts.  Because every tensor row operation
  is elementwise per instance, masking cannot change any surviving path's
  bits;
* **a fleet of local systems in one tensor** — after the first rejection the
  paths sit at *different* parameter values, so each instance needs its own
  local system.  :meth:`repro.core.EvalContext.rebind_fleet` rewrites each
  instance's constant/coefficient rows in place (grouped by shared system, so
  synchronized paths cost one write per series), keeping the tensor and the
  compiled program resident;
* **divergence, singularity and path-crossing detection** — residuals or
  solution values beyond :attr:`RetryPolicy.divergence_threshold` fail a path
  immediately, singular Newton systems drop only the offending instances from
  the batched solve (the rest of the fleet solves on), and optionally
  converged paths that land on the same endpoint are flagged as crossings;
* **precision escalation** — every failed path is collected and re-run as a
  fresh fleet at the next limb count of :attr:`RetryPolicy.precision_ladder`,
  with the system family and start values lifted exactly
  (:func:`repro.homotopy.systems.lift_value`).  Lifted systems share the
  original's polynomial structure, so they hit the same memoised schedules
  and compiled tensor programs — escalation restages nothing.

Every path's journey is recorded in a :class:`PathStatus` (steps, rejections,
retries, final precision, failure reason) and the fleet's in a
:class:`TrackManyReport`; the front door is :func:`track_paths` (exported as
``repro.track_paths``), configured by one frozen
:class:`repro.homotopy.options.TrackOptions` object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter_ns as _perf_counter_ns
from typing import Callable, Sequence

import numpy as np

from ..core.tensor import infer_ring, ring_planes, unpack_scalars
from ..errors import ConvergenceError
from ..md import replica
from ..md.complexmd import ComplexMD
from ..md.multidouble import MultiDouble
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .newton import NewtonResult, keeps_state, refine_lanes
from .options import TrackOptions
from .pathtrack import PathPoint, PathTrackResult, _advance, _shift
from .systems import PolynomialSystem, lift_value

__all__ = ["PathStatus", "TrackManyReport", "PathScheduler", "track_paths"]

#: Process-wide telemetry registry; ``enabled`` is a plain attribute so the
#: disabled hot path costs exactly one attribute check per call site.
_TELEMETRY = get_telemetry()


@dataclass(frozen=True)
class PathStatus:
    """The per-path diagnostics record of one scheduled track.

    ``reason`` is ``None`` for converged paths and otherwise one of
    ``"newton"`` (the refinement missed the tolerance with no accepted point
    to retreat to), ``"diverged"``, ``"singular"``, ``"step-underflow"``,
    ``"rejection-budget"``, or ``"crossing"``.
    """

    index: int
    converged: bool
    reason: str | None
    steps: int
    rejections: int
    retries: int
    limbs: int | None
    residual: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "converged": self.converged,
            "reason": self.reason,
            "steps": self.steps,
            "rejections": self.rejections,
            "retries": self.retries,
            "limbs": self.limbs,
            "residual": self.residual,
        }


@dataclass
class TrackManyReport:
    """Everything one :func:`track_paths` call produced, in input order.

    ``results[i]`` and ``statuses[i]`` always describe the ``i``-th start
    vector; ``fleets`` records one entry per executed fleet (the base run
    plus one per used precision-ladder rung) with its limb count, path count,
    pack count and round count.
    """

    results: list[PathTrackResult] = field(default_factory=list)
    statuses: list[PathStatus] = field(default_factory=list)
    fleets: list[dict] = field(default_factory=list)
    #: One entry per worker shard when the run was process-sharded
    #: (:mod:`repro.parallel.shard`); empty for inline runs.
    shards: list[dict] = field(default_factory=list)
    #: :meth:`repro.core.ScheduleCache.stats` of the cache the fleets used —
    #: hits/misses/evictions/build-waits as of the end of the run.  Sharded
    #: runs aggregate the workers' counts (plus one sub-dict per shard).
    cache: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return len(self.results)

    @property
    def n_converged(self) -> int:
        return sum(1 for status in self.statuses if status.converged)

    @property
    def failed_indices(self) -> list[int]:
        return [status.index for status in self.statuses if not status.converged]

    @property
    def escalated_indices(self) -> list[int]:
        """Paths that needed at least one precision-escalation retry."""
        return [status.index for status in self.statuses if status.retries > 0]

    @property
    def total_packs(self) -> int:
        """Slot-tensor packs across every fleet (base fleet packs exactly once)."""
        return sum(fleet["packs"] for fleet in self.fleets)

    @property
    def total_retries(self) -> int:
        return sum(status.retries for status in self.statuses)

    def summary(self) -> dict:
        """A JSON-friendly digest (the shape the benchmark emits)."""
        return {
            "paths": self.n_paths,
            "converged": self.n_converged,
            "failed": self.failed_indices,
            "escalated": self.escalated_indices,
            "retries": self.total_retries,
            "packs": self.total_packs,
            "fleets": list(self.fleets),
            "shards": list(self.shards),
            "cache": dict(self.cache),
            "steps": [status.steps for status in self.statuses],
            "rejections": [status.rejections for status in self.statuses],
        }


class _PathState:
    """Mutable per-path bookkeeping of one fleet (internal)."""

    __slots__ = (
        "index",
        "start_values",
        "t_trial",
        "t_accepted",
        "series",
        "h",
        "points",
        "rejections",
        "retries",
        "limbs",
        "status",
        "reason",
        "residual",
    )

    def __init__(self, index: int, start_values: Sequence, h: float, limbs: int | None):
        self.index = index
        self.start_values = list(start_values)
        self.t_trial = 0.0
        self.t_accepted: float | None = None
        self.series: list[PowerSeries] | None = None
        self.h = h
        self.points: list[PathPoint] = []
        self.rejections = 0
        self.retries = 0
        self.limbs = limbs
        self.status = "running"
        self.reason: str | None = None
        self.residual = math.inf

    def fail(self, reason: str) -> None:
        self.status = "failed"
        self.reason = reason

    def relaunch(self, start_values: Sequence, h: float, limbs: int | None) -> None:
        """Reset for a fresh attempt at the next precision rung."""
        self.start_values = list(start_values)
        self.t_accepted = None
        self.series = None
        self.h = h
        self.points = []
        self.rejections = 0
        self.retries += 1
        self.limbs = limbs
        self.status = "running"
        self.reason = None
        self.residual = math.inf


def _magnitude(value) -> float:
    """A plain-double magnitude of any coefficient-ring value."""
    if isinstance(value, ComplexMD):
        return abs(value.to_complex())
    if isinstance(value, complex):
        return abs(value)
    return abs(float(value))


def _endpoint(state: _PathState) -> tuple[complex, ...]:
    values = state.points[-1].values if state.points else ()
    out = []
    for value in values:
        if isinstance(value, ComplexMD):
            out.append(value.to_complex())
        elif isinstance(value, MultiDouble):
            out.append(complex(value.to_float()))
        else:
            out.append(complex(value))
    return tuple(out)


class _RowValues:
    """One accepted point's values, unpacked from its round's constant terms
    when :class:`PathPoint` first reads them.  The round's limb block and
    ring list are shared by all its points, so a point costs one small
    object until it is read."""

    __slots__ = ("constants", "rings", "index")

    def __init__(self, constants: tuple, rings: list, index: int):
        self.constants = constants
        self.rings = rings
        self.index = index

    def __call__(self) -> list:
        i = self.index
        return unpack_scalars(tuple(plane[:, i] for plane in self.constants), self.rings[i])


def _hold_accepted(context, lanes: list[int], accepted):
    """Keep the accepted lanes' Newton state rows as the fleet's accepted series.

    ``accepted`` is ``(planes, rings)``: the accepted series of every lane,
    in the context's state layout, and the ring of each lane's scalars
    (``None`` before the first call).  Returns it updated, together with each
    accepted lane's point values for :class:`PathPoint`.
    """
    rows, rings = context.state(lanes)
    if accepted is None:
        shape = (context.batch,) + rows[0].shape[2:]
        accepted = (
            tuple(np.zeros(rows[0].shape[:1] + shape) for _ in rows),
            [None] * context.batch,
        )
    planes, accepted_rings = accepted
    for plane, block in zip(planes, rows):
        plane[:, lanes] = block
    constants = tuple(np.ascontiguousarray(block[..., 0]) for block in rows)
    values = {}
    for i, (p, ring) in enumerate(zip(lanes, rings)):
        accepted_rings[p] = ring
        values[p] = _RowValues(constants, rings, i)
    return accepted, values


def _predict_rows(context, accepted, steps: list[tuple[int, float]]) -> None:
    """Seed each stepping lane's next trial from its accepted series rows.

    One Taylor shift per ring of accepted scalars, replicating
    ``_shift(series, h)`` limb for limb at each lane's own ``h``
    (:func:`repro.md.replica.series_shift`); the shifted series become the
    lanes' next inputs, written straight into the context's state rows.
    """
    planes, rings = accepted
    by_ring: dict = {}
    for p, h in steps:
        by_ring.setdefault(rings[p], []).append((p, h))
    for ring, members in by_ring.items():
        lanes = np.asarray([p for p, _ in members], dtype=np.int64)
        h = np.asarray([h for _, h in members])[:, None]
        series = tuple(plane[:, lanes] for plane in ring_planes(planes, ring))
        context.set_state(lanes, replica.series_shift(series, h, ring), ring)


class PathScheduler:
    """Track many solution paths adaptively through one resident fleet.

    Parameters
    ----------
    system_builder:
        Callable ``(t0, degree) -> PolynomialSystem`` returning the local
        system whose series variable is the offset ``s = t - t0``.  Every
        local system must share the first one's monomial structure: the
        fleet rebinds one resident context, and a structure change raises
        :class:`repro.errors.StagingError`.
    options:
        A :class:`repro.homotopy.options.TrackOptions`; keyword overrides
        are layered on top via :meth:`TrackOptions.make`.
    """

    #: Hard bound on scheduler rounds per fleet.
    _ROUND_GUARD = 10_000

    def __init__(
        self,
        system_builder: Callable[[float, int], PolynomialSystem],
        options: TrackOptions | None = None,
        **overrides,
    ):
        self.system_builder = system_builder
        self.options = TrackOptions.make(options, **overrides)

    # ------------------------------------------------------------------ #
    def track(
        self,
        start_values: Sequence[Sequence],
        t_start: float = 0.0,
        t_end: float = 1.0,
        context_buffer=None,
    ) -> TrackManyReport:
        """Track one path per start vector and aggregate the fleet report.

        The base fleet runs every path at the family's own precision; paths
        that fail are collected and re-run — as one fresh fleet per rung —
        at each higher limb count of the options' precision ladder, with
        system and starts lifted exactly.  Successful paths are **never**
        re-run: their results come from the fleet that finished them, so a
        healthy path's output is independent of its neighbours' failures.

        ``context_buffer`` optionally backs the *base* fleet's packed limb
        tensor with a caller-provided writable buffer — the sharded runner
        passes each worker its shared-memory segment here, so the shard
        packs exactly once, straight into shared memory.  Retry-ladder
        fleets run at higher limb counts than the buffer was sized for and
        always allocate locally.

        Raises :class:`ValueError` unless ``t_start <= t_end`` are both
        finite.
        """
        _check_t_range(t_start, t_end)
        tel = _TELEMETRY
        with tel.overridden(self.options.telemetry):
            t0 = tel.enabled and _perf_counter_ns()
            report = self._track(start_values, t_start, t_end, context_buffer)
            if t0:
                tel.record_span(
                    "scheduler.track",
                    t0,
                    _perf_counter_ns(),
                    paths=report.n_paths,
                    converged=report.n_converged,
                )
            return report

    def _track(
        self, start_values, t_start: float, t_end: float, context_buffer
    ) -> TrackManyReport:
        tel = _TELEMETRY
        report = TrackManyReport()
        starts = [list(start) for start in start_values]
        if not starts:
            return report
        options = self.options
        working_limbs = self._working_limbs(starts, t_start)
        states = [
            _PathState(i, start, options.step.initial, working_limbs)
            for i, start in enumerate(starts)
        ]
        self._run_fleet(
            self.system_builder, states, t_start, t_end, report, buffer=context_buffer
        )

        if working_limbs is not None:
            for limbs in options.retry.precision_ladder:
                if limbs <= working_limbs:
                    continue
                retry = [s for s in states if s.status == "failed"]
                if not retry:
                    break
                if tel.enabled:
                    tel.count("scheduler.retries", len(retry))
                    tel.count(f"scheduler.retries.limbs{limbs}", len(retry))
                builder = self._lifted_builder(limbs)
                for state in retry:
                    lifted = [lift_value(v, limbs) for v in state.start_values]
                    state.relaunch(lifted, options.step.initial, limbs)
                self._run_fleet(builder, retry, t_start, t_end, report)

        for state in states:
            result = PathTrackResult(
                points=state.points, success=state.status == "converged"
            )
            report.results.append(result)
            report.statuses.append(
                PathStatus(
                    index=state.index,
                    converged=state.status == "converged",
                    reason=state.reason,
                    steps=len(state.points),
                    rejections=state.rejections,
                    retries=state.retries,
                    limbs=state.limbs,
                    residual=state.residual,
                )
            )
        return report

    # ------------------------------------------------------------------ #
    def _working_limbs(self, starts, t_start: float) -> int | None:
        """The limb count of the family's own ring (None = exact/unsupported).

        Probes one local system plus the start values with the tensor
        backend's ring inference; ladder rungs at or below this count are
        skipped (they would not add precision).
        """
        probe = self.system_builder(t_start, self.options.degree)
        series = []
        for polynomial in probe.polynomials:
            series.append(polynomial.constant)
            series.extend(m.coefficient for m in polynomial.monomials)
        series.extend(PowerSeries([v]) for start in starts for v in start)
        ring = infer_ring(series)
        return None if ring is None else ring[1]

    def _lifted_builder(self, limbs: int):
        base = self.system_builder
        degree_cache: dict[float, PolynomialSystem] = {}

        def builder(t: float, degree: int) -> PolynomialSystem:
            key = (t, degree)
            if key not in degree_cache:
                degree_cache[key] = base(t, degree).with_precision(limbs)
            return degree_cache[key]

        return builder

    # ------------------------------------------------------------------ #
    def _run_fleet(
        self,
        builder,
        states: list[_PathState],
        t_start: float,
        t_end: float,
        report: TrackManyReport,
        buffer=None,
    ) -> None:
        """Run one fleet of paths to completion against one resident context."""
        options = self.options
        degree = options.degree
        batch = len(states)
        tel = _TELEMETRY
        f0 = tel.enabled and _perf_counter_ns()
        for state in states:
            state.t_trial = float(t_start)
        solutions: list = [
            [PowerSeries.constant(v, degree) for v in state.start_values] for state in states
        ]
        context = None
        accepted = None
        evaluators: list = [None] * batch
        rounds = 0
        while True:
            r0 = tel.enabled and _perf_counter_ns()
            running = [p for p, state in enumerate(states) if state.status == "running"]
            if not running:
                break
            rounds += 1
            if rounds > self._ROUND_GUARD:
                raise ConvergenceError("path scheduling exceeded the round guard")
            # One local system per distinct trial parameter value; paths in
            # sync share the object, so the fleet rebind groups their row
            # writes and the schedule cache sees one structure throughout.
            local: dict[float, PolynomialSystem] = {}
            for p in running:
                t = states[p].t_trial
                if t not in local:
                    local[t] = builder(t, degree).with_mode(options.mode)
                evaluators[p] = local[t].evaluator
            if context is None:
                context = local[states[running[0]].t_trial].make_context(
                    batch, buffer=buffer
                )
            context.rebind_fleet(list(evaluators))

            results = refine_lanes(context, solutions, running, options.newton)
            rows = keeps_state(context, options.newton)
            if rows:
                done = [p for p, result in zip(running, results) if result.converged]
                accepted, values = _hold_accepted(context, done, accepted)
            steps: list[tuple[int, float]] = []
            for p, result in zip(running, results):
                state = states[p]
                state.residual = result.final_residual
                if result.singular:
                    state.fail("singular")
                    continue
                if not result.converged:
                    stepping = self._reject(state, result.solution)
                elif rows:
                    stepping = self._accept(state, result, values[p], t_end)
                else:
                    point = tuple(series.constant_term() for series in result.solution)
                    stepping = self._accept(state, result, point, t_end)
                    state.series = result.solution
                if stepping:
                    steps.append((p, self._step(state, t_end)))
            if rows:
                _predict_rows(context, accepted, steps)
                for p, _ in steps:
                    solutions[p] = None
            else:
                for p, h in steps:
                    solutions[p] = [_shift(series, h) for series in states[p].series]
            if r0:
                tel.record_span(
                    "scheduler.round",
                    r0,
                    _perf_counter_ns(),
                    round=rounds,
                    active=len(running),
                    limbs=states[0].limbs,
                )
        if options.retry.detect_crossings:
            self._flag_crossings(states)
        report.cache = context.evaluator.cache.stats()
        report.fleets.append(
            {
                "limbs": states[0].limbs,
                "paths": batch,
                "packs": context.packs,
                "rounds": rounds,
                "resident": context.resident,
                "adopted": context.adopted,
            }
        )
        if f0:
            tel.record_span(
                "scheduler.fleet",
                f0,
                _perf_counter_ns(),
                limbs=states[0].limbs,
                paths=batch,
                rounds=rounds,
                packs=context.packs,
            )

    # ------------------------------------------------------------------ #
    def _accept(self, state: _PathState, result: NewtonResult, values, t_end: float) -> bool:
        """Record the accepted trial point; True when the path steps on."""
        step = self.options.step
        state.points.append(
            PathPoint(
                t=state.t_trial,
                values=values,
                residual=result.final_residual,
                newton_iterations=result.iterations,
            )
        )
        state.t_accepted = state.t_trial
        if state.t_accepted >= t_end:
            state.status = "converged"
            return False
        if result.iterations <= step.fast_iterations:
            state.h = min(state.h * step.grow, step.max)
        return True

    def _reject(self, state: _PathState, solution) -> bool:
        """Shrink the step to retreat to the last accepted point — or fail;
        True when the path steps on."""
        retry = self.options.retry
        step = self.options.step
        residual = state.residual
        diverged = not math.isfinite(residual) or residual > retry.divergence_threshold
        if not diverged:
            for series in solution:
                magnitude = _magnitude(series.constant_term())
                if not math.isfinite(magnitude) or magnitude > retry.divergence_threshold:
                    diverged = True
                    break
        if diverged:
            state.fail("diverged")
            return False
        if state.t_accepted is None:
            # The refinement at the very start failed: there is no accepted
            # point to retreat to, so a smaller step cannot help.
            state.fail("newton")
            return False
        state.rejections += 1
        if state.rejections > retry.max_rejections:
            state.fail("rejection-budget")
            return False
        state.h = state.h * step.shrink
        if state.h < step.min:
            state.fail("step-underflow")
            return False
        return True

    @staticmethod
    def _step(state: _PathState, t_end: float) -> float:
        """Set the next trial parameter; return the (clamped) step to it."""
        h = min(state.h, t_end - state.t_accepted)
        state.t_trial = _advance(state.t_accepted, h, t_end)
        return h

    # ------------------------------------------------------------------ #
    def _flag_crossings(self, states: list[_PathState]) -> None:
        """Demote later-indexed duplicates among the converged endpoints.

        Two paths landing on the same endpoint (relative tolerance
        ``crossing_tolerance``) means at least one of them jumped tracks on
        the way; the later-indexed one is failed with reason ``"crossing"``
        so the precision ladder re-runs it at higher precision.
        """
        tolerance = self.options.retry.crossing_tolerance
        converged = [s for s in states if s.status == "converged"]
        endpoints = {id(s): _endpoint(s) for s in converged}
        for i, first in enumerate(converged):
            if first.status != "converged":
                continue
            a = endpoints[id(first)]
            for second in converged[i + 1 :]:
                if second.status != "converged":
                    continue
                b = endpoints[id(second)]
                if len(a) != len(b) or not a:
                    continue
                scale = max(1.0, max(abs(x) for x in a))
                if all(abs(x - y) <= tolerance * scale for x, y in zip(a, b)):
                    second.fail("crossing")


def track_paths(
    system_family: Callable[[float, int], PolynomialSystem],
    starts: Sequence[Sequence],
    options: TrackOptions | None = None,
    t_start: float = 0.0,
    t_end: float = 1.0,
    **overrides,
) -> TrackManyReport:
    """Track one solution path per start vector — the package's front door.

    ``system_family`` is the usual local-system builder ``(t0, degree) ->
    PolynomialSystem``; ``starts`` holds one start vector per path; the
    behaviour is configured entirely by ``options`` (a frozen
    :class:`repro.homotopy.options.TrackOptions`, defaulting to
    :data:`repro.homotopy.options.DEFAULT_TRACK_OPTIONS`) plus flat keyword
    ``overrides`` layered on top, e.g.::

        report = repro.track_paths(
            family, starts,
            step={"initial": 0.1, "grow": 1.5},
            precision_ladder=(4, 8),
        )

    The :class:`PathScheduler` runs the masked resident fleet with per-path
    steps and the precision-escalation retry ladder, in this process or —
    with ``options.shard`` — across worker processes
    (:class:`repro.parallel.shard.ShardedFleetRunner`).  A fixed step grid
    is the configuration ``step={"grow": 1.0}`` with
    ``retry=RetryPolicy(precision_ladder=(), max_rejections=0)``.
    """
    options = TrackOptions.make(options, **overrides)
    tel = _TELEMETRY
    with tel.overridden(options.telemetry):
        report = _dispatch_track(system_family, starts, options, t_start, t_end)
        if tel.enabled and tel.config.sink:
            tel.write_sink()
        return report


def _dispatch_track(
    system_family, starts, options: TrackOptions, t_start: float, t_end: float
) -> TrackManyReport:
    """Route a resolved options object to the sharded or the inline runner."""
    workers = options.shard.resolve_workers()
    if workers > 0 and len(starts) > 0:
        from ..parallel.shard import ShardedFleetRunner

        runner = ShardedFleetRunner(system_family, options)
        return runner.track(starts, t_start, t_end)
    return PathScheduler(system_family, options).track(starts, t_start, t_end)


def _check_t_range(t_start: float, t_end: float) -> None:
    """Raise :class:`ValueError` unless ``t_start <= t_end`` are both finite.

    A path steps forward from ``t_start`` until it reaches ``t_end``; a
    reversed range would end at its first point, and a NaN or infinite end
    is never reached.  ``t_start == t_end`` is a one-point track.
    """
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_start <= t_end):
        raise ValueError(
            f"a track needs finite t_start <= t_end, got t_start={t_start!r}, "
            f"t_end={t_end!r}"
        )
