"""Simulated GPU substrate: devices, memory model, timing model.

The ``gpu`` evaluation mode computes with the tensorized sweep of
:mod:`repro.core.tensor` and prices its launches with
:class:`GPUSimulator`; this package holds no second arithmetic.
"""

from .device import DeviceSpec, TABLE1_DEVICES, get_device, DEFAULT_DEVICE
from .memory import shared_memory_needed, max_degree_for_precision, check_block_fits
from .events import KernelLaunchTiming, TimingReport
from .flops import (
    FlopCount,
    convolution_double_ops,
    addition_double_ops,
    evaluation_double_ops,
    tflops,
)
from .calibration import (
    PAPER_V100_P1_CONVOLUTION_MS,
    efficiency_for,
    efficiency_table,
    calibration_degree,
)
from .timing import TimingModel, predict_schedule
from .executor import GPUSimulator

__all__ = [
    "DeviceSpec",
    "TABLE1_DEVICES",
    "get_device",
    "DEFAULT_DEVICE",
    "shared_memory_needed",
    "max_degree_for_precision",
    "check_block_fits",
    "KernelLaunchTiming",
    "TimingReport",
    "FlopCount",
    "convolution_double_ops",
    "addition_double_ops",
    "evaluation_double_ops",
    "tflops",
    "PAPER_V100_P1_CONVOLUTION_MS",
    "efficiency_for",
    "efficiency_table",
    "calibration_degree",
    "TimingModel",
    "predict_schedule",
    "GPUSimulator",
]
