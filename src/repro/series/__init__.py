"""Truncated power series arithmetic (the paper's data type).

* :class:`PowerSeries` — generic truncated series over any coefficient ring;
* :mod:`repro.series.convolution` — the sequential and zero-insertion
  convolution algorithms of Section 2 (the row-batched convolution of the
  tensor backend is :func:`repro.core.convolve_rows`);
* :mod:`repro.series.random` — random test series (PHCpack style).
"""

from .series import PowerSeries
from .convolution import (
    convolve_direct,
    convolve_zero_insertion,
    add_coefficients,
    convolution_operation_count,
    addition_operation_count,
)
from .random import (
    random_float_series,
    random_complex_series,
    random_md_series,
    random_complex_md_series,
    random_fraction_series,
    random_series_vector,
)

__all__ = [
    "PowerSeries",
    "convolve_direct",
    "convolve_zero_insertion",
    "add_coefficients",
    "convolution_operation_count",
    "addition_operation_count",
    "random_float_series",
    "random_complex_series",
    "random_md_series",
    "random_complex_md_series",
    "random_fraction_series",
    "random_series_vector",
]
