"""The GPU simulator: per-device timing prediction.

:class:`GPUSimulator` plays the role of the CUDA runtime in the paper's
pipeline.  The ``gpu`` mode of :class:`repro.core.SystemEvaluator` computes
its numbers with the tensorized sweep of the ``vectorized`` mode — one
limb plane per multiple double, one whole-layer call per fused layer, the
host-side analogue of the paper's kernel launches — and asks
:meth:`GPUSimulator.predict` what those launches would cost on the selected
device: the :class:`repro.gpusim.TimingReport` of the analytic model, each
fused layer being one launch of ``batch`` times its jobs' blocks.

The timings are model predictions, not measurements on a CUDA device;
README's "Paper fidelity" section says how they compare with the paper.
"""

from __future__ import annotations

from .device import DeviceSpec, get_device
from .events import TimingReport
from .timing import TimingModel

__all__ = ["GPUSimulator"]


class GPUSimulator:
    """Timing simulation of the accelerated evaluation on one device."""

    def __init__(self, device: DeviceSpec | str | None = None):
        self.device = get_device(device)

    def predict(self, schedule, precision=2, batch: int = 1) -> TimingReport:
        """Timing-only prediction (no numerical execution)."""
        return TimingModel(device=self.device, precision=precision).predict(schedule, batch=batch)
