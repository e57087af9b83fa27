"""Layered configuration of the coalescing solve service.

The resolution order mirrors :mod:`repro.obs.config` (which itself follows
the IPS configuration design: a defaults layer, a persistent file, then
increasingly specific overrides):

1. **defaults** — :data:`DEFAULT_SERVICE_CONFIG`;
2. **file** — JSON file named by ``REPRO_SERVICE_CONFIG`` (absent → skipped);
3. **environment** — ``REPRO_SERVICE_WINDOW_MS``, ``REPRO_SERVICE_MAX_BATCH``,
   ``REPRO_SERVICE_MAX_QUEUE``, ``REPRO_SERVICE_POOL_STRUCTURES``,
   ``REPRO_SERVICE_MODE``, ``REPRO_SERVICE_WORKERS``, ``REPRO_SERVICE_HOST``,
   ``REPRO_SERVICE_PORT``;
4. **engine** — keyword overrides passed to
   :class:`repro.service.SolveEngine`;
5. **per-request** — ``SolveRequest.overrides`` (a mapping layered on top of
   the engine's resolved config for that request's micro-batch bucket).

Every layer is a partial :class:`ServiceConfig` whose ``None`` fields mean
"inherit from the layer below" (:meth:`ServiceConfig.merged_onto`, exactly
the :meth:`repro.obs.ObsConfig.merged_onto` shape); a fully resolved config
never contains ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.system import check_mode

__all__ = [
    "ServiceConfig",
    "DEFAULT_SERVICE_CONFIG",
    "coerce_service_layer",
    "resolve_service_config",
]

@dataclass(frozen=True)
class ServiceConfig:
    """One layer of solve-service configuration (``None`` = inherit).

    Fields
    ------
    window_ms:
        The micro-batching window: the first request of a structure opens a
        bucket that flushes after this many milliseconds (or as soon as the
        bucket holds ``max_batch`` requests, whichever comes first).  A
        window that closes while all ``workers`` are running flushes leaves
        its bucket open to later requests of the structure until a worker
        frees (the ``service.deferred_buckets`` gauge counts such buckets).
        ``0`` flushes every request immediately — coalescing off.
    max_batch:
        Lane count of the pooled resident contexts, and the largest number
        of requests one flush merges.  Short buckets mask the unused lanes
        (:meth:`repro.core.EvalContext.set_active`) instead of repacking.
    max_queue:
        Admission bound: requests admitted while this many are already
        queued or in flight are rejected with
        :class:`repro.errors.ServiceOverloadedError` (backpressure).
    pool_structures:
        LRU bound on how many distinct system structures the resident
        context pool keeps warm.
    mode:
        Execution mode requests are re-targeted to, one of
        :data:`repro.core.system.MODES`.  ``"vectorized"`` and ``"gpu"``
        (which also prices each sweep) are the resident fast path;
        ``"staged"`` and ``"reference"`` still coalesce, but every sweep
        delegates to the per-call path and every lane solves with the
        scalar :func:`repro.homotopy.lu_solve`.
    workers:
        Threads of the flush executor — how many structure buckets may
        solve concurrently.
    host, port:
        Bind address of the HTTP front end (``port`` 0 = ephemeral).
    """

    window_ms: Optional[float] = None
    max_batch: Optional[int] = None
    max_queue: Optional[int] = None
    pool_structures: Optional[int] = None
    mode: Optional[str] = None
    workers: Optional[int] = None
    host: Optional[str] = None
    port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_ms is not None:
            window = float(self.window_ms)
            if window < 0.0:
                raise ValueError(f"window_ms must be >= 0, got {window!r}")
            object.__setattr__(self, "window_ms", window)
        for name, minimum in (
            ("max_batch", 1),
            ("max_queue", 1),
            ("pool_structures", 1),
            ("workers", 1),
            ("port", 0),
        ):
            value = getattr(self, name)
            if value is not None:
                value = int(value)
                if value < minimum:
                    raise ValueError(f"{name} must be >= {minimum}, got {value}")
                object.__setattr__(self, name, value)
        if self.mode is not None:
            check_mode(self.mode)

    def merged_onto(self, base: "ServiceConfig") -> "ServiceConfig":
        """Return ``base`` with this layer's non-``None`` fields applied."""
        changes = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        }
        return dataclasses.replace(base, **changes)

    def override(self, **overrides) -> "ServiceConfig":
        """Layer flat keyword overrides (``None`` values are ignored)."""
        return coerce_service_layer(overrides).merged_onto(self)

    def as_dict(self) -> dict:
        """The config as a plain dict (for ``stats()`` and the CLI)."""
        return dataclasses.asdict(self)


DEFAULT_SERVICE_CONFIG = ServiceConfig(
    window_ms=2.0,
    max_batch=16,
    max_queue=1024,
    pool_structures=32,
    mode="vectorized",
    workers=4,
    host="127.0.0.1",
    port=8750,
)

_FIELDS = {field.name for field in dataclasses.fields(ServiceConfig)}


def coerce_service_layer(layer) -> ServiceConfig:
    """Normalise a per-call override into a partial :class:`ServiceConfig`."""
    if layer is None:
        return ServiceConfig()
    if isinstance(layer, ServiceConfig):
        return layer
    if isinstance(layer, Mapping):
        unknown = set(layer) - _FIELDS
        if unknown:
            raise TypeError(
                f"unknown service option(s): {sorted(unknown)}; "
                f"expected a subset of {sorted(_FIELDS)}"
            )
        return ServiceConfig(**{k: v for k, v in layer.items() if v is not None})
    raise TypeError(
        "a service config layer must be None, a mapping, or a ServiceConfig, "
        f"got {type(layer).__name__}"
    )


def _file_layer(environ: Mapping[str, str]) -> ServiceConfig:
    path = environ.get("REPRO_SERVICE_CONFIG")
    if not path:
        return ServiceConfig()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return ServiceConfig()
    if not isinstance(data, Mapping):
        return ServiceConfig()
    known = {key: data[key] for key in _FIELDS if key in data}
    return ServiceConfig(**known)


_ENV_KEYS = {
    "REPRO_SERVICE_WINDOW_MS": ("window_ms", float),
    "REPRO_SERVICE_MAX_BATCH": ("max_batch", int),
    "REPRO_SERVICE_MAX_QUEUE": ("max_queue", int),
    "REPRO_SERVICE_POOL_STRUCTURES": ("pool_structures", int),
    "REPRO_SERVICE_MODE": ("mode", str),
    "REPRO_SERVICE_WORKERS": ("workers", int),
    "REPRO_SERVICE_HOST": ("host", str),
    "REPRO_SERVICE_PORT": ("port", int),
}


def _env_layer(environ: Mapping[str, str]) -> ServiceConfig:
    values: dict = {}
    for key, (name, parse) in _ENV_KEYS.items():
        raw = environ.get(key)
        if raw is not None and raw.strip() != "":
            values[name] = parse(raw)
    return ServiceConfig(**values)


def resolve_service_config(
    environ: Optional[Mapping[str, str]] = None, layer=None, **overrides
) -> ServiceConfig:
    """Resolve defaults → config file → environment (→ explicit overrides).

    ``layer`` and keyword ``overrides`` are applied last, in that order —
    this is what :class:`repro.service.SolveEngine` calls with its
    constructor arguments.
    """
    environ = os.environ if environ is None else environ
    config = DEFAULT_SERVICE_CONFIG
    config = _file_layer(environ).merged_onto(config)
    config = _env_layer(environ).merged_onto(config)
    if layer is not None:
        config = coerce_service_layer(layer).merged_onto(config)
    if overrides:
        config = coerce_service_layer(overrides).merged_onto(config)
    return config
