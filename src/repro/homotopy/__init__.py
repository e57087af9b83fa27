"""The motivating application: power-series Newton and path tracking."""

from .systems import PolynomialSystem, lift_value
from .linsolve import lu_solve, matrix_vector_product, residual_norm
from .batch_linsolve import (
    batch_lu_solve,
    batch_lu_solve_tensor,
    solve_packed,
)
from .options import (
    DEFAULT_TRACK_OPTIONS,
    NewtonOptions,
    RetryPolicy,
    ShardOptions,
    StepControl,
    TrackOptions,
)
from .newton import NewtonStep, NewtonResult, newton_power_series, newton_power_series_batch
from .pathtrack import PathPoint, PathTrackResult, align_path_points
from .scheduler import PathScheduler, PathStatus, TrackManyReport, track_paths

__all__ = [
    "PolynomialSystem",
    "lift_value",
    "lu_solve",
    "matrix_vector_product",
    "residual_norm",
    "batch_lu_solve",
    "batch_lu_solve_tensor",
    "solve_packed",
    "DEFAULT_TRACK_OPTIONS",
    "NewtonOptions",
    "RetryPolicy",
    "ShardOptions",
    "StepControl",
    "TrackOptions",
    "NewtonStep",
    "NewtonResult",
    "newton_power_series",
    "newton_power_series_batch",
    "PathPoint",
    "PathTrackResult",
    "align_path_points",
    "PathScheduler",
    "PathStatus",
    "TrackManyReport",
    "track_paths",
]
