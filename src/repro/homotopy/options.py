"""Layered configuration objects for Newton refinement and path tracking.

Every knob of the homotopy layer used to travel as its own keyword argument —
``max_iterations`` and ``tolerance`` on the Newton drivers, ``solver`` on the
batched driver, ``mode``/``step``/``newton_iterations`` on the tracker — and
each new capability (adaptive steps, precision escalation, masked residency)
would have kept sprouting more.  This module collects them into three small
frozen dataclasses plus one umbrella:

* :class:`NewtonOptions` — the refinement loop (iterations, tolerance,
  linear-solver path, execution-mode override);
* :class:`StepControl` — the per-path adaptive step-size controller of the
  many-path scheduler (initial/min/max step, grow/shrink factors, and the
  convergence-rate threshold that triggers growth);
* :class:`RetryPolicy` — what happens when a path fails (precision-escalation
  ladder, rejection budget, divergence ceiling, path-crossing detection);
* :class:`TrackOptions` — the single object the public tracking API takes,
  composing the three above and :class:`ShardOptions` with the tracker-level
  knobs (series degree, execution mode, telemetry).

The layering is *defaults → options object → per-call overrides*: every class
is immutable, :meth:`TrackOptions.override` produces a derived copy from flat
keyword overrides (nested fields are addressable either with an options
sub-object, a dict merged into the current sub-object, or one of the flat
aliases like ``step=0.25`` / ``newton_iterations=6``).  The Newton functions
and :func:`repro.homotopy.track_paths` take these objects only.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass, field
from typing import Mapping

from ..core.system import check_mode
from ..md.precision import PRECISIONS
from ..obs.config import ObsConfig, coerce_layer

__all__ = [
    "NewtonOptions",
    "StepControl",
    "RetryPolicy",
    "ShardOptions",
    "TrackOptions",
    "DEFAULT_TRACK_OPTIONS",
]

_SOLVERS = ("auto", "batched", "scalar")


@dataclass(frozen=True)
class NewtonOptions:
    """Configuration of one power-series Newton refinement.

    :func:`repro.homotopy.newton_power_series` and
    :func:`repro.homotopy.newton_power_series_batch` honour every field.
    The many-path scheduler and the solve service honour the iteration
    bound, the tolerance and the solver; the scheduler takes its mode from
    :attr:`TrackOptions.mode` and records failures per path, and the
    service takes its mode from its own configuration.
    """

    max_iterations: int = 8
    tolerance: float = 0.0
    raise_on_failure: bool = False
    solver: str = "auto"
    mode: str | None = None

    def __post_init__(self):
        if isinstance(self.max_iterations, bool) or not isinstance(
            self.max_iterations, numbers.Integral
        ):
            raise TypeError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not isinstance(self.tolerance, numbers.Real):
            raise TypeError(f"tolerance must be a real number, got {self.tolerance!r}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if not isinstance(self.raise_on_failure, bool):
            raise TypeError(f"raise_on_failure must be a bool, got {self.raise_on_failure!r}")
        if self.solver not in _SOLVERS:
            raise ValueError(
                f"solver must be 'auto', 'batched' or 'scalar', got {self.solver!r}"
            )
        if self.mode is not None:
            if not isinstance(self.mode, str):
                raise TypeError(f"mode must be None or a string, got {self.mode!r}")
            check_mode(self.mode)

    def override(self, **overrides) -> "NewtonOptions":
        """A derived copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class StepControl:
    """Per-path adaptive step-size policy of the many-path scheduler.

    The controller is the classic accept/reject shape: a path that converges
    quickly (within ``fast_iterations`` Newton steps) grows its step by
    ``grow`` up to ``max``; a refinement that misses the tolerance rejects
    the step, shrinks it by ``shrink`` and re-predicts from the last accepted
    point; a step that would fall below ``min`` declares the path failed
    (and hands it to the :class:`RetryPolicy`).  Every refinement after a
    path's first point starts from the accepted series shifted by the step,
    so Newton only corrects what the shift left wrong: at the default degree
    8 a smooth path converges in 3 iterations, within the default
    ``fast_iterations``, where a constant start takes about
    ``log2(degree + 1) + 1`` = 5.  ``grow = 1.0`` disables
    growth; with ``RetryPolicy(precision_ladder=(), max_rejections=0)`` on
    top, every path steps on the one fixed grid of ``initial`` and fails at
    its first rejected point — the fixed-grid tracker, which the test suite
    holds bit for bit to a plain Newton-and-advance loop.
    """

    initial: float = 0.1
    min: float = 1.0e-6
    max: float = 0.5
    grow: float = 2.0
    shrink: float = 0.5
    fast_iterations: int = 3

    def __post_init__(self):
        if not self.initial > 0.0:
            raise ValueError("the step must be positive")
        if not 0.0 < self.min <= self.initial:
            raise ValueError(
                f"step min must satisfy 0 < min <= initial, got min={self.min}, "
                f"initial={self.initial}"
            )
        if self.max < self.initial:
            raise ValueError(
                f"step max must be >= initial, got max={self.max}, initial={self.initial}"
            )
        if self.grow < 1.0:
            raise ValueError(f"step grow factor must be >= 1, got {self.grow}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"step shrink factor must be in (0, 1), got {self.shrink}")
        if self.fast_iterations < 1:
            raise ValueError(f"fast_iterations must be >= 1, got {self.fast_iterations}")

    def override(self, **overrides) -> "StepControl":
        """A derived copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class RetryPolicy:
    """What the scheduler does with paths that fail at the working precision.

    ``precision_ladder`` lists the limb counts tried, in order, for paths the
    base fleet could not finish: each rung collects every failed path into
    one fresh batch, lifts the system family and the start values to that
    many limbs (exact zero-padding for multiple doubles) and re-runs the
    whole track — the multidouble stack makes escalation a one-knob retry.
    An empty ladder disables escalation.  ``max_rejections`` bounds the
    step-shrink retries of a single path within one fleet;
    ``divergence_threshold`` declares a path divergent as soon as a residual
    or a solution coordinate exceeds it (no point shrinking the step
    further); ``detect_crossings`` additionally flags pairs of paths that
    land on the same endpoint (within ``crossing_tolerance``, relative) and
    sends the duplicates up the ladder too.
    """

    precision_ladder: tuple[int, ...] = (4, 8)
    max_rejections: int = 40
    divergence_threshold: float = 1.0e8
    detect_crossings: bool = False
    crossing_tolerance: float = 1.0e-10

    def __post_init__(self):
        object.__setattr__(self, "precision_ladder", tuple(self.precision_ladder))
        for limbs in self.precision_ladder:
            if limbs not in PRECISIONS:
                raise ValueError(
                    f"precision ladder entry {limbs} is not a registered limb count "
                    f"({sorted(PRECISIONS)})"
                )
        if list(self.precision_ladder) != sorted(set(self.precision_ladder)):
            raise ValueError(
                f"the precision ladder must be strictly increasing, got {self.precision_ladder}"
            )
        if self.max_rejections < 0:
            raise ValueError(f"max_rejections must be >= 0, got {self.max_rejections}")
        if not self.divergence_threshold > 0.0:
            raise ValueError("divergence_threshold must be positive")
        if not self.crossing_tolerance > 0.0:
            raise ValueError("crossing_tolerance must be positive")

    def override(self, **overrides) -> "RetryPolicy":
        """A derived copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class ShardOptions:
    """Process-sharding policy of the many-path front door.

    ``workers`` selects how many worker processes the sharded runner spawns:

    * ``0`` (the default) — sharding disabled, the fleet runs inline in the
      calling process exactly as before;
    * ``n >= 1`` — spawn ``n`` workers (``1`` still crosses the process
      boundary, which is how the bit-parity guarantee is exercised);
    * ``None`` — auto-detect: the ``REPRO_WORKERS`` environment variable if
      set, else ``os.cpu_count()``.

    ``max_shard_size`` caps how many paths one shard may carry; a cap that
    yields more shards than workers simply queues the extra shards — the
    runner keeps at most ``workers`` processes live.  ``fallback_inline``
    controls what happens when a worker dies or sharding is impossible (the
    family does not pickle, shared memory unavailable): re-run the affected
    shards inline in the parent (default) or raise.  The two timeouts bound
    how long the parent waits for a worker's first readiness message and
    between heartbeats before declaring it dead.
    """

    workers: int | None = 0
    max_shard_size: int | None = None
    fallback_inline: bool = True
    start_timeout_s: float = 120.0
    heartbeat_timeout_s: float = 60.0

    def __post_init__(self):
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"shard workers must be >= 0 or None, got {self.workers}")
        if self.max_shard_size is not None and self.max_shard_size < 1:
            raise ValueError(
                f"max_shard_size must be >= 1 or None, got {self.max_shard_size}"
            )
        if not self.start_timeout_s > 0.0:
            raise ValueError("start_timeout_s must be positive")
        if not self.heartbeat_timeout_s > 0.0:
            raise ValueError("heartbeat_timeout_s must be positive")

    def resolve_workers(self) -> int:
        """The concrete worker count: 0 means inline, >= 1 means sharded."""
        if self.workers is not None:
            return self.workers
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            count = int(env)
            if count < 0:
                raise ValueError(f"REPRO_WORKERS must be >= 0, got {count}")
            return count
        return os.cpu_count() or 1

    def override(self, **overrides) -> "ShardOptions":
        """A derived copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)


#: Flat legacy aliases accepted by :meth:`TrackOptions.override`, mapping the
#: historical tracker/Newton keywords onto their nested new home.
_FLAT_ALIASES = {
    "shards": ("shard", "workers"),
    "workers": ("shard", "workers"),
    "step": ("step", "initial"),
    "newton_iterations": ("newton", "max_iterations"),
    "max_newton_iter": ("newton", "max_iterations"),
    "max_iterations": ("newton", "max_iterations"),
    "tolerance": ("newton", "tolerance"),
    "solver": ("newton", "solver"),
    "precision_ladder": ("retry", "precision_ladder"),
}


@dataclass(frozen=True)
class TrackOptions:
    """Everything the path-tracking front door needs, in one frozen object.

    Build one directly, or derive from the defaults with
    :meth:`TrackOptions.override`::

        options = TrackOptions().override(
            degree=6,
            mode="vectorized",
            step={"initial": 0.25, "grow": 1.5},
            newton={"max_iterations": 6, "tolerance": 1e-12},
            precision_ladder=(4, 8),
        )

    ``telemetry`` is a per-call override layered onto the process-wide
    :mod:`repro.obs` configuration for the duration of the call: ``None``
    inherits it unchanged, ``True``/``False`` flips recording on or off, and
    a mapping (``telemetry={"enabled": True, "sample": 0.5}``) or
    :class:`repro.obs.ObsConfig` overrides the named fields.  The override
    travels with the options object into sharded workers, so one knob
    switches the whole fleet.
    """

    degree: int = 8
    mode: str | None = None
    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(max_iterations=6, tolerance=1.0e-10)
    )
    step: StepControl = field(default_factory=StepControl)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    shard: ShardOptions = field(default_factory=ShardOptions)
    telemetry: ObsConfig | bool | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("the tracker needs degree >= 1 to advance")
        if self.mode is not None:
            check_mode(self.mode)
        # Normalise mappings (and validate everything else) into the frozen,
        # picklable ObsConfig shape, so options objects stay hashable-ish and
        # spawn workers receive the exact same layer.
        object.__setattr__(self, "telemetry", coerce_layer(self.telemetry))

    # ------------------------------------------------------------------ #
    def override(self, **overrides) -> "TrackOptions":
        """Layer per-call overrides on top of this options object.

        Accepts, per keyword:

        * a top-level field name (``degree=6``, ``mode="vectorized"``);
        * a nested options object (``newton=NewtonOptions(...)``) replacing
          the whole sub-object, or a mapping (``step={"initial": 0.25}``)
          merged into the current one;
        * a flat legacy alias (``step=0.25``, ``newton_iterations=6``,
          ``max_newton_iter=6``, ``tolerance=1e-12``, ``solver="batched"``,
          ``precision_ladder=(4,)``) mapped onto its nested field.
        """
        changes: dict = {}
        nested: dict[str, dict] = {}
        for key, value in overrides.items():
            if key in ("newton", "step", "retry", "shard") and isinstance(value, Mapping):
                nested.setdefault(key, {}).update(value)
            elif key == "step" and isinstance(value, (int, float)):
                nested.setdefault("step", {})["initial"] = float(value)
            elif key in ("newton", "step", "retry", "shard"):
                expected = {
                    "newton": NewtonOptions,
                    "step": StepControl,
                    "retry": RetryPolicy,
                    "shard": ShardOptions,
                }[key]
                if not isinstance(value, expected):
                    raise TypeError(
                        f"option {key!r} takes a {expected.__name__} or a mapping, "
                        f"got {type(value).__name__}"
                    )
                changes[key] = value
            elif key in _FLAT_ALIASES:
                holder, leaf = _FLAT_ALIASES[key]
                nested.setdefault(holder, {})[leaf] = value
            elif key in _TRACK_FIELDS:
                changes[key] = value
            else:
                raise TypeError(f"TrackOptions.override got an unknown option {key!r}")
        for holder, fields in nested.items():
            current = changes.get(holder, getattr(self, holder))
            if holder == "step" and "initial" in fields:
                # Moving only the initial step widens the [min, max] window
                # around it, so ``step=0.7`` (the legacy flat knob) never
                # trips the window invariants it knew nothing about.
                initial = float(fields["initial"])
                if initial > 0.0:
                    fields.setdefault("min", min(current.min, initial))
                    fields.setdefault("max", max(current.max, initial))
            changes[holder] = current.override(**fields)
        return dataclasses.replace(self, **changes)

    @classmethod
    def make(cls, options: "TrackOptions | None" = None, **overrides) -> "TrackOptions":
        """Resolve the defaults/object/overrides layering in one call."""
        return (options if options is not None else cls()).override(**overrides)


_TRACK_FIELDS = {f.name for f in dataclasses.fields(TrackOptions)}

#: The process-wide baseline every tracking call starts from.
DEFAULT_TRACK_OPTIONS = TrackOptions()
