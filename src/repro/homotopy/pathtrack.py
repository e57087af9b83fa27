"""A small Taylor-series path tracker built on the evaluator.

Numerical continuation follows a solution path ``x(t)`` of a family of
polynomial systems ``H(x, t) = 0`` from ``t = 0`` towards ``t = 1``.  The
power-series approach of the paper's motivating reference expands ``x`` as a
truncated series around the current parameter value, refines the expansion
with Newton's method on power series, advances the parameter by a step ``h``
by evaluating the series, and repeats.

The tracker is deliberately compact — fixed step size, residual-based
acceptance — because its purpose here is to exercise the evaluation and
differentiation machinery the way the real application does, not to compete
with PHCpack.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from ..errors import ConvergenceError
from ..series.series import PowerSeries
from .newton import _ensure_context, newton_power_series, newton_power_series_batch
from .options import TrackOptions
from .systems import PolynomialSystem

__all__ = [
    "PathPoint",
    "PathTrackResult",
    "TaylorPathTracker",
    "align_path_points",
]

#: Relative slack within which an accumulated parameter value is considered
#: to have reached the end of the track.  Repeated ``t += h`` accumulation
#: drifts by a few ulps per step; without the snap, a track like step 0.1
#: over [0, 1] can stop just short of ``t_end`` and emit a spurious
#: micro-step at an off-grid parameter value.
_SNAP_EPSILON = 1.0e-12


class PathPoint:
    """One accepted point of the tracked path (immutable).

    ``values`` may be given as a zero-argument callable returning them
    instead of a tuple: the many-path scheduler passes one that unpacks the
    point from limb rows, so the coordinates become ring scalars only when
    first read.
    """

    __slots__ = ("t", "_values", "residual", "newton_iterations")

    def __init__(self, t: float, values, residual: float, newton_iterations: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "newton_iterations", newton_iterations)

    @property
    def values(self) -> tuple:
        values = self._values
        if callable(values):
            values = tuple(values())
            object.__setattr__(self, "_values", values)
        return values

    def _fields(self) -> tuple:
        return self.t, self.values, self.residual, self.newton_iterations

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PathPoint):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return PathPoint, self._fields()

    def __repr__(self) -> str:
        return (
            f"PathPoint(t={self.t!r}, values={self.values!r}, residual={self.residual!r}, "
            f"newton_iterations={self.newton_iterations!r})"
        )


@dataclass
class PathTrackResult:
    """The accepted points and the final status of one tracked path."""

    points: list[PathPoint] = field(default_factory=list)
    success: bool = False

    @property
    def final_values(self):
        return self.points[-1].values if self.points else ()


class TaylorPathTracker:
    """Track one solution path of a parameterised polynomial system.

    Parameters
    ----------
    system_builder:
        Callable ``(t0, degree) -> PolynomialSystem`` returning the local
        system whose series variable is the offset ``s = t - t0``.
    options:
        A :class:`repro.homotopy.options.TrackOptions` carrying every knob
        (series degree, step size, Newton iteration bound and tolerance,
        execution mode).  Defaults to the tracker's historical settings.
    """

    def __init__(
        self,
        system_builder: Callable[[float, int], PolynomialSystem],
        *,
        options: TrackOptions | None = None,
    ):
        self.system_builder = system_builder
        self.options = options if options is not None else TrackOptions()

    # Historical read-only attribute names, derived from the options object.
    @property
    def degree(self) -> int:
        return self.options.degree

    @property
    def step(self) -> float:
        return self.options.step.initial

    @property
    def newton_iterations(self) -> int:
        return self.options.newton.max_iterations

    @property
    def tolerance(self) -> float:
        return self.options.newton.tolerance

    @property
    def mode(self) -> str | None:
        return self.options.mode

    def _build_system(self, t: float) -> PolynomialSystem:
        """The local system at ``t``, re-targeted at the tracker's mode."""
        return self.system_builder(t, self.degree).with_mode(self.mode)

    # ------------------------------------------------------------------ #
    def track(self, start_values: Sequence, t_start: float = 0.0, t_end: float = 1.0) -> PathTrackResult:
        """Follow the path from ``t_start`` to ``t_end``.

        ``start_values`` are the solution coordinates at ``t_start`` (plain
        numbers in the coefficient ring of the systems produced by the
        builder).  One resident evaluation context is held across *all* path
        steps and Newton iterations, so the whole track packs its slot
        tensor once.
        """
        result = PathTrackResult()
        t = float(t_start)
        values = list(start_values)
        context = None
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise ConvergenceError("path tracking exceeded the iteration guard")
            system = self._build_system(t)
            # Consecutive local systems share their structure, so the previous
            # step's context (and its packed tensor) is rebound, not rebuilt.
            context = _ensure_context(system, 1, context)
            initial = [PowerSeries.constant(v, self.degree) for v in values]
            newton = newton_power_series(
                system,
                initial,
                options=self.options.newton,
                context=context,
            )
            residual = newton.final_residual
            if not newton.converged:
                result.success = False
                return result
            result.points.append(
                PathPoint(
                    t=t,
                    values=tuple(series.constant_term() for series in newton.solution),
                    residual=residual,
                    newton_iterations=newton.iterations,
                )
            )
            if t >= t_end:
                result.success = True
                return result
            h = min(self.step, t_end - t)
            values = [series.evaluate(_promote_step(series, h)) for series in newton.solution]
            t = _advance(t, h, t_end)

    # ------------------------------------------------------------------ #
    def track_many(
        self,
        start_values: Sequence[Sequence],
        t_start: float = 0.0,
        t_end: float = 1.0,
    ) -> list[PathTrackResult]:
        """Follow several solution paths in lockstep, batching the Newton work.

        All paths share the fixed parameter grid, so at every accepted ``t``
        the local system is built **once** and the Newton refinements of all
        still-active paths run through one batched evaluation sweep
        (:func:`repro.homotopy.newton_power_series_batch`) against a
        resident context carried across path steps — the slot tensor of the
        whole batch is packed once for the entire track (plus once per
        batch shrink when a path drops out).  A path whose refinement misses
        the tolerance is marked failed and dropped; the remaining paths
        continue.  Returns one :class:`PathTrackResult` per start vector, in
        order.
        """
        results = [PathTrackResult() for _ in start_values]
        values = [list(start) for start in start_values]
        active = list(range(len(values)))
        t = float(t_start)
        context = None
        guard = 0
        while active:
            guard += 1
            if guard > 10_000:
                raise ConvergenceError("path tracking exceeded the iteration guard")
            system = self._build_system(t)
            # The batch changes only when paths drop out: one repack each.
            context = _ensure_context(system, len(active), context)
            initials = [
                [PowerSeries.constant(v, self.degree) for v in values[index]]
                for index in active
            ]
            newtons = newton_power_series_batch(
                system,
                initials,
                options=self.options.newton,
                context=context,
            )
            at_end = t >= t_end
            h = 0.0 if at_end else min(self.step, t_end - t)
            survivors: list[int] = []
            for index, newton in zip(active, newtons):
                residual = newton.final_residual
                if not newton.converged:
                    results[index].success = False
                    continue
                results[index].points.append(
                    PathPoint(
                        t=t,
                        values=tuple(series.constant_term() for series in newton.solution),
                        residual=residual,
                        newton_iterations=newton.iterations,
                    )
                )
                if at_end:
                    results[index].success = True
                    continue
                values[index] = [
                    series.evaluate(_promote_step(series, h)) for series in newton.solution
                ]
                survivors.append(index)
            if at_end:
                break
            active = survivors
            t = _advance(t, h, t_end)
        return results


def align_path_points(
    results: Sequence[PathTrackResult], fill=None
) -> list[list[PathPoint | None]]:
    """Align per-path :class:`PathPoint` histories into one rectangular table.

    ``results`` is the input-ordered list a many-path run returns
    (:meth:`TaylorPathTracker.track_many` or the adaptive scheduler's
    report).  Paths finish at different step counts — failed paths stop
    early, adaptive paths reject and re-step — so the histories are ragged;
    this pads every column to the longest history with ``fill``.  Row ``k``
    of the returned table holds the ``k``-th accepted point of every path
    (still in input order), the shape plotting and tail-latency analyses
    want.
    """
    longest = max((len(result.points) for result in results), default=0)
    return [
        [
            result.points[k] if k < len(result.points) else fill
            for result in results
        ]
        for k in range(longest)
    ]


def _advance(t: float, h: float, t_end: float) -> float:
    """Advance the parameter by ``h``, snapping onto ``t_end`` when reached."""
    t = t + h
    if abs(t_end - t) <= _SNAP_EPSILON * max(1.0, abs(t_end)):
        return t_end
    return t


def _promote_step(series: PowerSeries, h: float):
    """Promote the step size into the coefficient ring of ``series``.

    The promotion goes through the ring's own conversion so exact rings stay
    exact: ``zero + h`` for a :class:`~fractions.Fraction` coefficient would
    demote the whole evaluation to float, so ``h`` is lifted to an (exact)
    ``Fraction`` first.  Floating-point rings (float, complex, multidouble)
    absorb the plain double unchanged.
    """
    zero = series.coefficients[0] * 0
    if isinstance(zero, Fraction):
        return zero + Fraction(h)
    return zero + h
