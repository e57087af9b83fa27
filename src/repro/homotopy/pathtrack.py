"""The records of a tracked path and the stepping helpers of the tracker.

Numerical continuation follows a solution path ``x(t)`` of a family of
polynomial systems ``H(x, t) = 0`` from ``t = 0`` towards ``t = 1``.  The
power-series approach of the paper's motivating reference expands ``x`` as a
truncated series around the current parameter value, refines the expansion
with Newton's method on power series, advances the parameter by a step ``h``,
and starts the next refinement from the refined series shifted by the step,
``x(t + h + s)``.  The one tracker that does this is
:func:`repro.homotopy.track_paths` (:mod:`repro.homotopy.scheduler`); a
fixed step grid is its configuration ``step={"grow": 1.0}`` with
``retry=RetryPolicy(precision_ladder=(), max_rejections=0)``.

This module holds what that tracker reports and shares: the accepted
:class:`PathPoint` records, the per-path :class:`PathTrackResult`, the
:func:`align_path_points` table, and the stepping helpers ``_advance``,
``_promote_step`` and ``_shift``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Sequence

from ..series.series import PowerSeries

__all__ = [
    "PathPoint",
    "PathTrackResult",
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


def align_path_points(
    results: Sequence[PathTrackResult], fill=None
) -> list[list[PathPoint | None]]:
    """Align per-path :class:`PathPoint` histories into one rectangular table.

    ``results`` is the input-ordered list a many-path run returns
    (:attr:`repro.homotopy.TrackManyReport.results`).  Paths finish at
    different step counts — failed paths stop early, adaptive paths reject
    and re-step — so the histories are ragged; this pads every column to
    the longest history with ``fill``.  Row ``k`` of the returned table
    holds the ``k``-th accepted point of every path (still in input order),
    the shape plotting and tail-latency analyses want.
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


def _shift(series: PowerSeries, h: float) -> PowerSeries:
    """The Taylor shift of ``series`` by the step: ``x(h + s)`` from ``x(s)``.

    The accepted series of a path expands ``x`` around the accepted
    parameter value; shifted by the step it expands ``x`` around the next
    trial value up to truncation, the warm start of the next refinement.
    Synthetic division with the step promoted into the ring
    (:func:`_promote_step`) as ``t``: for ``i = 0..d-1`` and ``k = d-1`` down
    to ``i``, ``c[k] = c[k] + t * c[k+1]``; the first pass leaves ``x(h)``
    in ``c[0]``.  :func:`repro.md.replica.series_shift` replays these
    operations on limb rows, operand order included.
    """
    t = _promote_step(series, h)
    c = list(series.coefficients)
    d = len(c) - 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            c[k] = c[k] + t * c[k + 1]
    return PowerSeries(c)
