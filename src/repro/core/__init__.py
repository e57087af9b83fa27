"""The paper's primary contribution: data staging and the accelerated evaluator."""

from .jobs import ConvolutionJob, AdditionJob, ScaleJob
from .layout import DataLayout
from .staging import ConvolutionStage, MonomialProducts, stage_convolutions
from .addition_tree import AdditionStage, stage_additions
from .schedule import JobSchedule, build_schedule, schedule_for_polynomial
from .evaluator import PolynomialEvaluator
from .system import (
    MODES,
    FusedSystemSchedule,
    ScheduleCache,
    SystemEvaluator,
    collect_result,
    default_schedule_cache,
    fuse_schedules,
    prepare_slots,
    system_structure_key,
)
from .tensor import (
    CommonFactorPlan,
    SlotTensor,
    TensorLayer,
    TensorProgram,
    compile_tensor_program,
    convolve_rows,
    infer_ring,
    join_rings,
)
from .context import EvalContext

__all__ = [
    "ConvolutionJob",
    "AdditionJob",
    "ScaleJob",
    "DataLayout",
    "ConvolutionStage",
    "MonomialProducts",
    "stage_convolutions",
    "AdditionStage",
    "stage_additions",
    "JobSchedule",
    "build_schedule",
    "schedule_for_polynomial",
    "PolynomialEvaluator",
    "prepare_slots",
    "collect_result",
    "MODES",
    "FusedSystemSchedule",
    "ScheduleCache",
    "SystemEvaluator",
    "default_schedule_cache",
    "fuse_schedules",
    "system_structure_key",
    "SlotTensor",
    "CommonFactorPlan",
    "TensorLayer",
    "TensorProgram",
    "compile_tensor_program",
    "convolve_rows",
    "infer_ring",
    "join_rings",
    "EvalContext",
]
