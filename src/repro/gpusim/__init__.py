"""Simulated GPU substrate: devices, memory model, timing model.

The ``gpu`` evaluation mode runs the resident tensor context of the
``vectorized`` mode (:class:`repro.core.EvalContext`) and prices each of
its runs with :class:`TimingModel`, the one entry point of the timing
model: the sweep's launches at the active instances and the host-to-device
copy of the last update.  The timings are model predictions, not
measurements on a CUDA device; README's "Paper fidelity" section says how
they compare with the paper.  This package holds no second arithmetic.
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
from .timing import TimingModel

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
]
