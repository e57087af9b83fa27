"""Drivers that regenerate every table and figure of the evaluation section.

Each function returns plain dictionaries (no printing, no plotting) so the
benchmark harness (whose outputs land in ``benchmarks/results/``) and the
tests can share them.  The launch structure of the three test polynomials is computed once
from the staging algorithm and cached; the timings come from the calibrated
analytic model of :mod:`repro.gpusim.timing`.

Functions named ``table*_model`` / ``figure*_data`` mirror the paper's
numbering; the corresponding published values live in
:mod:`repro.analysis.paperdata`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from ..circuits.testpolys import structure_for
from ..core.schedule import build_schedule
from ..errors import DeviceCapacityError
from ..gpusim.flops import evaluation_double_ops
from ..gpusim.memory import max_degree_for_precision
from ..gpusim.timing import TimingModel
from ..md.precision import PAPER_PRECISIONS
from .paperdata import PAPER_DEGREES

__all__ = [
    "LaunchStructure",
    "launch_structure",
    "table2_model",
    "table3_model",
    "table4_model",
    "scaling_table_model",
    "table5_model",
    "table6_model",
    "table7_model",
    "table8_model",
    "figure2_data",
    "figure3_data",
    "figure4_data",
    "figure5_data",
    "figure6_data",
    "section62_model",
]


@dataclass(frozen=True)
class LaunchStructure:
    """Degree-independent launch structure of one test polynomial."""

    name: str
    dimension: int
    max_variables: int
    n_monomials: int
    convolution_jobs: int
    addition_jobs: int
    convolution_launches: tuple[int, ...]
    addition_launches: tuple[int, ...]


@lru_cache(maxsize=None)
def launch_structure(name: str) -> LaunchStructure:
    """Launch sizes and job counts of ``p1``/``p2``/``p3`` (degree independent)."""
    dimension, supports = structure_for(name)
    schedule = build_schedule(dimension, supports, degree=0)
    return LaunchStructure(
        name=name,
        dimension=dimension,
        max_variables=max(len(s) for s in supports),
        n_monomials=len(supports),
        convolution_jobs=schedule.convolution_job_count,
        addition_jobs=schedule.addition_job_count,
        convolution_launches=tuple(schedule.convolution_launches),
        addition_launches=tuple(schedule.addition_launches),
    )


def _predict(name: str, device, limbs: int, degree: int):
    structure = launch_structure(name)
    model = TimingModel(device=device, precision=limbs)
    return model.predict_from_launch_sizes(
        structure.convolution_launches, structure.addition_launches, degree
    )


# --------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------- #
def table2_model() -> dict[str, dict[str, int]]:
    """Job counts of the three test polynomials (Table 2)."""
    out = {}
    for name in ("p1", "p2", "p3"):
        structure = launch_structure(name)
        out[name] = {
            "n": structure.dimension,
            "m": structure.max_variables,
            "N": structure.n_monomials,
            "#cnv": structure.convolution_jobs,
            "#add": structure.addition_jobs,
        }
    return out


def table3_model(degree: int = 152, limbs: int = 10) -> dict[str, dict[str, float]]:
    """Predicted Table 3: p1 at degree 152 in deca doubles on the five GPUs."""
    out = {}
    for device in ("C2050", "K20C", "P100", "V100", "RTX2080"):
        out[device] = _predict("p1", device, limbs, degree).as_row()
    return out


def table4_model(degree: int = 152, limbs: int = 10) -> dict[str, dict[str, dict[str, float]]]:
    """Predicted Table 4: p2 and p3 at degree 152 in deca doubles."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for name in ("p2", "p3"):
        out[name] = {}
        for device in ("P100", "V100"):
            out[name][device] = _predict(name, device, limbs, degree).as_row()
    return out


def scaling_table_model(
    name: str,
    device: str = "V100",
    degrees=PAPER_DEGREES,
    precisions=PAPER_PRECISIONS,
) -> dict[int, dict[int, dict[str, float]]]:
    """Predicted Table 5/6/7: one polynomial, degree x precision grid.

    Combinations that do not fit in shared memory (deca doubles beyond degree
    152, like in the paper) are omitted.
    """
    out: dict[int, dict[int, dict[str, float]]] = {}
    for limbs in precisions:
        ceiling = max_degree_for_precision(limbs, device)
        for degree in degrees:
            if degree > ceiling:
                continue
            try:
                report = _predict(name, device, limbs, degree)
            except DeviceCapacityError:  # pragma: no cover - guarded above
                continue
            out.setdefault(limbs, {})[degree] = report.as_row()
    return out


def table5_model(device: str = "V100"):
    """Predicted Table 5 (p1 on the V100)."""
    return scaling_table_model("p1", device)


def table6_model(device: str = "V100"):
    """Predicted Table 6 (p2 on the V100)."""
    return scaling_table_model("p2", device)


def table7_model(device: str = "V100"):
    """Predicted Table 7 (p3 on the V100)."""
    return scaling_table_model("p3", device)


def table8_model(
    runs: int = 10,
    fixed_seed: bool = True,
    seed: int = 1,
    jitter_ms: float = 1.1,
    device: str = "V100",
) -> dict[int, int]:
    """Wall-clock fluctuation histogram (Table 8).

    The analytic model is deterministic; run-to-run fluctuation on real
    hardware comes from clock boost, scheduling and host noise.  The paper
    observes a spread of about five milliseconds over ten runs of ``p3`` in
    deca double precision at degree 152; we model it as Gaussian noise with
    ``jitter_ms`` standard deviation around the predicted wall clock, using
    one RNG for the "fixed seed" row (the input data is identical every run)
    and a reseeded RNG per run otherwise (mimicking different random inputs).
    """
    base = _predict("p3", device, 10, 152).wall_clock_ms
    rng = random.Random(seed)
    histogram: dict[int, int] = {}
    for run in range(runs):
        generator = rng if fixed_seed else random.Random(seed + 1000 + run)
        wall = base + generator.gauss(0.0, jitter_ms)
        bucket = int(round(wall))
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))


# --------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------- #
def figure2_data(device: str = "V100") -> dict[int, dict[int, float]]:
    """Figure 2: addition-kernel times of p1 vs degree, per precision."""
    table = table5_model(device)
    return {
        limbs: {degree: row["addition"] for degree, row in degrees.items() if degree <= 152}
        for limbs, degrees in table.items()
    }


def figure3_data(degree: int = 152, device: str = "V100") -> dict[str, dict[int, float]]:
    """Figure 3: addition-kernel times of p1, p2, p3 at degree 152, per precision."""
    out: dict[str, dict[int, float]] = {}
    for name in ("p1", "p2", "p3"):
        out[name] = {
            limbs: _predict(name, device, limbs, degree).addition_ms
            for limbs in PAPER_PRECISIONS
        }
    return out


def figure4_data(degree: int = 152, device: str = "V100") -> dict[str, dict[int, float]]:
    """Figure 4: percentage of wall clock spent in kernels, per polynomial/precision."""
    out: dict[str, dict[int, float]] = {}
    for name in ("p1", "p2", "p3"):
        out[name] = {
            limbs: 100.0 * _predict(name, device, limbs, degree).kernel_fraction
            for limbs in PAPER_PRECISIONS
        }
    return out


def figure5_data(degree: int = 191, device: str = "V100") -> dict[str, dict[int, float]]:
    """Figure 5: log2 of the wall clock at degree 191 for 1d/2d/4d/8d."""
    out: dict[str, dict[int, float]] = {}
    for name in ("p1", "p2", "p3"):
        out[name] = {
            limbs: math.log2(_predict(name, device, limbs, degree).wall_clock_ms)
            for limbs in (1, 2, 4, 8)
        }
    return out


def figure6_data(device: str = "V100") -> dict[int, dict[int, float]]:
    """Figure 6: log2 of the p1 wall clock for 4d/5d/8d/10d at degrees 31/63/127."""
    out: dict[int, dict[int, float]] = {}
    for limbs in (4, 5, 8, 10):
        out[limbs] = {
            degree: math.log2(_predict("p1", device, limbs, degree).wall_clock_ms)
            for degree in (31, 63, 127)
        }
    return out


# --------------------------------------------------------------------- #
# Section 6.2 flop analysis
# --------------------------------------------------------------------- #
def section62_model(milliseconds: float = 1066.0, degree: int = 152, limbs: int = 10) -> dict[str, float]:
    """The TFLOPS bookkeeping of Section 6.2 for p1 on the P100."""
    structure = launch_structure("p1")
    flops = evaluation_double_ops(
        structure.convolution_jobs, structure.addition_jobs, degree, limbs
    )
    return {
        "total_double_ops": float(flops.total),
        "convolution_double_ops": float(flops.convolution_ops),
        "addition_double_ops": float(flops.addition_ops),
        "seconds": milliseconds / 1000.0,
        "tflops": flops.tflops(milliseconds),
    }
