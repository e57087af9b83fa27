"""Calibration of the timing model against the paper's V100 measurements.

The analytic timing model (see :mod:`repro.gpusim.timing`) needs one
empirical ingredient: the *efficiency* with which a streaming multiprocessor
turns its peak double-precision rate into useful multiple-double work.  That
efficiency depends on the precision (higher precisions have more instruction-
level parallelism per coefficient and amortise memory traffic better) but is
assumed independent of the polynomial, the degree and the device — the single
most important simplification of the model, documented in README's "Paper
fidelity" section.

The efficiencies are derived *programmatically* from one published column:
the convolution-kernel times of ``p1`` at degree 152 on the V100 (Table 5 of
the paper), reproduced verbatim in :data:`PAPER_V100_P1_CONVOLUTION_MS`.
Every other table and figure is then predicted with these seven numbers held
fixed; README's "Paper fidelity" section reports how far that single-point
calibration carries, and ``benchmarks/results/`` holds every regenerated
table.
"""

from __future__ import annotations

from functools import lru_cache
import math

from ..md.opcounts import opcounts_for
from ..md.precision import PAPER_PRECISIONS
from .device import TABLE1_DEVICES

__all__ = [
    "PAPER_V100_P1_CONVOLUTION_MS",
    "P1_CONVOLUTION_LAUNCHES",
    "calibration_degree",
    "efficiency_for",
    "efficiency_table",
]

#: Convolution-kernel times (ms) of p1 at degree 152 on the V100, per
#: precision (Table 5 of the paper).
PAPER_V100_P1_CONVOLUTION_MS: dict[int, float] = {
    1: 0.39,
    2: 7.20,
    3: 38.70,
    4: 65.76,
    5: 114.57,
    8: 359.68,
    10: 635.42,
}

#: Blocks per convolution kernel launch for p1 (Section 6.1).
P1_CONVOLUTION_LAUNCHES: tuple[int, ...] = (3640, 5460, 5460, 1820)


def calibration_degree() -> int:
    """The degree the calibration column was measured at."""
    return 152


@lru_cache(maxsize=None)
def _calibrate() -> dict[int, float]:
    """Solve the model for the efficiency of each precision.

    The model for one launch of ``B`` blocks at degree ``d`` is::

        waves        = ceil(B / #SM)
        warp_time    = warps_per_block * warp_overhead_cycles / clock
        compute_time = block_double_ops / (per_sm_rate * efficiency)
        kernel_time  = waves * (warp_time + compute_time)

    Summing over the four launches of p1 and equating with the published
    time yields one linear equation per precision, solved here for the
    efficiency.  Values are clamped to (0, 1].
    """
    device = TABLE1_DEVICES["V100"]
    degree = calibration_degree()
    warps_per_block = math.ceil((degree + 1) / device.warp_size)
    warp_time_s = warps_per_block * device.warp_overhead_cycles / (device.clock_ghz * 1.0e9)
    total_waves = sum(math.ceil(b / device.multiprocessors) for b in P1_CONVOLUTION_LAUNCHES)
    per_sm_rate = device.per_sm_gflops * 1.0e9  # double flop/s of one SM

    ring_mul = (degree + 1) ** 2
    ring_add = degree * (degree + 1)

    table: dict[int, float] = {}
    for limbs, measured_ms in PAPER_V100_P1_CONVOLUTION_MS.items():
        counts = opcounts_for(limbs)
        block_ops = ring_mul * counts.mul_ops + ring_add * counts.add_ops
        measured_s = measured_ms * 1.0e-3
        compute_budget_s = measured_s / total_waves - warp_time_s
        if compute_budget_s <= 0:
            # The launch overhead already explains the measurement (only
            # plausible in plain double precision); treat the kernel as
            # overhead-bound with nominal efficiency.
            table[limbs] = 1.0
            continue
        efficiency = block_ops / (per_sm_rate * compute_budget_s)
        table[limbs] = min(1.0, max(1.0e-4, efficiency))
    return table


def efficiency_for(precision_limbs: int) -> float:
    """Efficiency of one SM at the given precision (interpolated if needed)."""
    table = _calibrate()
    if precision_limbs in table:
        return table[precision_limbs]
    known = sorted(table)
    if precision_limbs < known[0]:
        return table[known[0]]
    if precision_limbs > known[-1]:
        return table[known[-1]]
    lower = max(k for k in known if k < precision_limbs)
    upper = min(k for k in known if k > precision_limbs)
    weight = (precision_limbs - lower) / (upper - lower)
    return table[lower] * (1 - weight) + table[upper] * weight


def efficiency_table() -> dict[int, float]:
    """The calibrated efficiencies for the seven paper precisions."""
    return {limbs: efficiency_for(limbs) for limbs in PAPER_PRECISIONS}
