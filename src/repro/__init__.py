"""repro — accelerated polynomial evaluation and differentiation at power series.

A Python reproduction of

    Jan Verschelde, "Accelerated Polynomial Evaluation and Differentiation at
    Power Series in Multiple Double Precision", IPDPS Workshops (PDSEC) 2021,
    arXiv:2101.10881.

The package is organised in layers (README lists them, and its "Paper
fidelity" section says where the model departs from the paper):

``repro.md``
    Multiple-double arithmetic: error-free transformations, renormalisation,
    the scalar types, the row kernels over separate limb arrays, the
    precision registry and the double-operation cost model.
``repro.series``
    Truncated power series and the convolution algorithms of Section 2.
``repro.circuits``
    Monomials, polynomials, the sequential reference evaluator and the
    paper's test polynomials ``p1``, ``p2``, ``p3``.
``repro.core``
    The paper's contribution: the data layout of the flat array ``A``, the
    data staging of convolution and addition jobs into layers, and the
    evaluators that run the staged schedule — :class:`SystemEvaluator` for
    whole systems and batches, :class:`PolynomialEvaluator` as its
    one-equation front end — in the reference, staged, gpu and vectorized
    modes.
``repro.gpusim``
    The simulated GPU substrate: Table 1 device specs, the shared-memory
    capacity model and the calibrated timing model that prices the ``gpu``
    mode's launches.
``repro.parallel``
    Process-sharded path fleets on shared-memory limb tensors.
``repro.obs``
    Fleet telemetry: spans, counters/gauges, Chrome/Perfetto trace export
    and the measured-vs-predicted timing ledger (default-off).
``repro.homotopy``
    The motivating application: power-series Newton and a small path tracker.
``repro.service``
    The coalescing asynchronous solve service: micro-batched Newton/track
    requests merged into packed tensor batches on pooled resident contexts.
``repro.analysis``
    Drivers that regenerate every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import parse_polynomial, PolynomialEvaluator
>>> from repro.series import random_md_series
>>> p = parse_polynomial("1 + x1*x2*x3 + x2*x4", degree=8, kind="md", precision=4)
>>> z = [random_md_series(8, precision=4) for _ in range(4)]
>>> result = PolynomialEvaluator(p, mode="staged").evaluate(z)
>>> len(result.gradient)
4
"""

from ._version import __version__
from .errors import (
    ReproError,
    PrecisionError,
    TruncationError,
    StagingError,
    DeviceCapacityError,
    ConvergenceError,
    SingularSystemError,
    ParseError,
    ShardError,
    ServiceError,
    ServiceOverloadedError,
)
from .md import MultiDouble, ComplexMD, Precision, get_precision
from .series import PowerSeries
from .circuits import (
    Monomial,
    Polynomial,
    EvaluationResult,
    evaluate_reference,
    parse_polynomial,
    make_p1,
    make_p2,
    make_p3,
    random_polynomial,
)
from .core import (
    PolynomialEvaluator,
    SystemEvaluator,
    ScheduleCache,
    FusedSystemSchedule,
    default_schedule_cache,
    JobSchedule,
    DataLayout,
    build_schedule,
    schedule_for_polynomial,
)
from .gpusim import DeviceSpec, TABLE1_DEVICES, get_device, GPUSimulator, TimingModel, TimingReport
from .homotopy import (
    NewtonOptions,
    PathScheduler,
    PathStatus,
    RetryPolicy,
    ShardOptions,
    StepControl,
    TrackManyReport,
    TrackOptions,
    track_paths,
)
from .parallel import ShardedFleetRunner
from .obs import ObsConfig, Telemetry, get_telemetry
from .service import (
    ContextPool,
    ServiceConfig,
    SolveEngine,
    SolveRequest,
    SolveResponse,
    TrackRequest,
    resolve_service_config,
)

__all__ = [
    "__version__",
    "ReproError",
    "PrecisionError",
    "TruncationError",
    "StagingError",
    "DeviceCapacityError",
    "ConvergenceError",
    "SingularSystemError",
    "ParseError",
    "ShardError",
    "ServiceError",
    "ServiceOverloadedError",
    "MultiDouble",
    "ComplexMD",
    "Precision",
    "get_precision",
    "PowerSeries",
    "Monomial",
    "Polynomial",
    "EvaluationResult",
    "evaluate_reference",
    "parse_polynomial",
    "make_p1",
    "make_p2",
    "make_p3",
    "random_polynomial",
    "PolynomialEvaluator",
    "SystemEvaluator",
    "ScheduleCache",
    "FusedSystemSchedule",
    "default_schedule_cache",
    "JobSchedule",
    "DataLayout",
    "build_schedule",
    "schedule_for_polynomial",
    "DeviceSpec",
    "TABLE1_DEVICES",
    "get_device",
    "GPUSimulator",
    "TimingModel",
    "TimingReport",
    "NewtonOptions",
    "PathScheduler",
    "PathStatus",
    "RetryPolicy",
    "ShardOptions",
    "ShardedFleetRunner",
    "StepControl",
    "TrackManyReport",
    "TrackOptions",
    "track_paths",
    "ObsConfig",
    "Telemetry",
    "get_telemetry",
    "SolveEngine",
    "SolveRequest",
    "SolveResponse",
    "TrackRequest",
    "ServiceConfig",
    "ContextPool",
    "resolve_service_config",
]
