"""The GPU simulator: functional execution plus timing prediction.

:class:`GPUSimulator` plays the role of the CUDA runtime in the paper's
pipeline.  Given a fused :class:`repro.core.FusedSystemSchedule` (one
polynomial is a one-equation system) and the host-side slot contents of a
batch of instances, :meth:`GPUSimulator.run_system`

1. allocates the device data array (one flat array per limb, Section 5),
2. transfers the inputs (constants, coefficients, input series),
3. launches the convolution kernels layer by layer, then the optional scale
   kernel, then the addition kernels level by level — one simulated block per
   job and instance, using the vectorised block implementations of
   :mod:`repro.gpusim.kernels`,
4. attaches the :class:`repro.gpusim.TimingReport` predicted by the analytic
   model for the selected device, each fused layer being one launch of
   ``batch`` times its jobs' blocks.

The numerical results are bit-for-bit what the host ``staged`` mode produces
(same error-free transformations in the same order), which the integration
tests assert; the timings are model predictions (this machine has no CUDA
device), which EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StagingError
from ..md.multidouble import MultiDouble
from ..md.precision import get_precision
from ..series.series import PowerSeries
from .device import DeviceSpec, get_device
from .events import TimingReport
from .kernels import DeviceData, addition_block, convolution_block, scale_block
from .memory import check_block_fits
from .timing import TimingModel

__all__ = ["SimulationOutcome", "GPUSimulator"]


@dataclass
class SimulationOutcome:
    """What one simulated evaluation returns."""

    slots: list[PowerSeries]
    timings: TimingReport
    limbs: int


class GPUSimulator:
    """Functional + timing simulation of the accelerated evaluation."""

    def __init__(self, device: DeviceSpec | str | None = None):
        self.device = get_device(device)

    # ------------------------------------------------------------------ #
    def run_system(self, fused, slots: list[PowerSeries], batch: int = 1) -> SimulationOutcome:
        """Execute a fused system schedule for a whole batch of instances.

        ``fused`` is a :class:`repro.core.system.FusedSystemSchedule`;
        ``slots`` is the flat host-side slot array of all ``batch`` instances
        (batch stride = ``fused.total_slots``) with every input region
        filled; the product region is ignored (assumed zero).  Each fused
        layer is accounted as **one** kernel launch of ``batch * layer_size``
        blocks — the wide launches the paper's throughput tables are about —
        and executed block by block with the vectorised kernels of
        :mod:`repro.gpusim.kernels`.  Real coefficients only — plain floats
        or :class:`repro.md.MultiDouble`; complex and exact data run in the
        host modes.
        """
        if batch < 1:
            raise StagingError(f"batch must be >= 1, got {batch}")
        limbs = self._infer_limbs(slots)
        degree = fused.degree
        check_block_fits(degree, limbs, self.device)

        total = fused.total_slots
        data = DeviceData(limbs, total * batch, degree)
        stride = degree + 1
        # Host-to-device transfer of every instance's input regions.
        for b in range(batch):
            for slot in fused.input_slots():
                data.load_series(b * total + slot, slots[b * total + slot].coefficients)

        flat_bases = [b * total * stride for b in range(batch)]
        for layer in fused.convolution_layers:
            for base in flat_bases:
                for job in layer:
                    offset1, offset2, offset_out = job.offsets(degree)
                    convolution_block(data, base + offset1, base + offset2, base + offset_out)
        for base in flat_bases:
            for scale in fused.scale_jobs:
                scale_block(data, base + scale.slot * stride, scale.factor)
        for layer in fused.addition_layers:
            for base in flat_bases:
                for job in layer:
                    offset_source, offset_target = job.offsets(degree)
                    addition_block(data, base + offset_source, base + offset_target)

        timings = TimingModel(device=self.device, precision=limbs).predict(fused, batch=batch)
        out_slots = [PowerSeries(data.read_series(slot)) for slot in range(total * batch)]
        return SimulationOutcome(slots=out_slots, timings=timings, limbs=limbs)

    # ------------------------------------------------------------------ #
    def predict(self, schedule, precision=2, batch: int = 1) -> TimingReport:
        """Timing-only prediction (no numerical execution)."""
        return TimingModel(device=self.device, precision=precision).predict(schedule, batch=batch)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _infer_limbs(slots: list[PowerSeries]) -> int:
        for series in slots:
            for coefficient in series.coefficients:
                if isinstance(coefficient, MultiDouble):
                    return coefficient.precision.limbs
                if isinstance(coefficient, float):
                    return 1
                if isinstance(coefficient, (int,)):
                    continue
                raise StagingError(
                    "the GPU simulator handles real coefficients only "
                    f"(float or MultiDouble), got {type(coefficient).__name__}; "
                    "use mode='staged' for complex or exact coefficients"
                )
        return get_precision(2).limbs
