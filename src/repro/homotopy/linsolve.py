"""Linear algebra over truncated power series.

Newton's method on power series solves, at every step, a linear system whose
matrix entries and right-hand side are truncated power series.  Gaussian
elimination works verbatim in this ring as long as every pivot has an
invertible (non-zero) constant term — division of series is multiplication by
the series inverse (:meth:`repro.series.PowerSeries.inverse`).

The pivot choice maximises the magnitude of the constant term (partial
pivoting), which keeps the elimination stable for floating-point coefficient
rings and is a no-op for exact rings.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SingularSystemError
from ..series.series import PowerSeries, max_magnitude

__all__ = ["lu_solve", "matrix_vector_product", "residual_norm"]


def _constant_magnitude(series: PowerSeries) -> float:
    value = series.coefficients[0]
    if hasattr(value, "abs"):
        return float(value.abs().to_float())
    if hasattr(value, "to_float"):
        return abs(value.to_float())
    return abs(complex(value)) if isinstance(value, complex) else abs(float(value))


def lu_solve(matrix: Sequence[Sequence[PowerSeries]], rhs: Sequence[PowerSeries]) -> list[PowerSeries]:
    """Solve ``matrix * x = rhs`` by Gaussian elimination over the series ring.

    Raises :class:`repro.errors.SingularSystemError` when a pivot's constant
    term vanishes (the linearised system is singular at ``t = 0``); a
    non-square input is a usage error and raises :class:`ValueError`.
    """
    n = len(rhs)
    if any(len(row) != n for row in matrix) or len(matrix) != n:
        raise ValueError("lu_solve expects a square system")
    a = [list(row) for row in matrix]
    b = list(rhs)
    # Per-column pivot inverses from elimination, reused by back substitution
    # (each series inversion costs a full recursion over the coefficients).
    inverses: list[PowerSeries | None] = [None] * n

    for column in range(n):
        # Partial pivoting on the constant coefficients.
        pivot_row = max(range(column, n), key=lambda r: _constant_magnitude(a[r][column]))
        if _constant_magnitude(a[pivot_row][column]) == 0.0:
            raise SingularSystemError(f"zero pivot in column {column}")
        if pivot_row != column:
            a[column], a[pivot_row] = a[pivot_row], a[column]
            b[column], b[pivot_row] = b[pivot_row], b[column]
        pivot_inverse = a[column][column].inverse()
        inverses[column] = pivot_inverse
        for row in range(column + 1, n):
            factor = a[row][column] * pivot_inverse
            for k in range(column, n):
                a[row][k] = a[row][k] - factor * a[column][k]
            b[row] = b[row] - factor * b[column]

    # Back substitution.
    x: list[PowerSeries | None] = [None] * n
    for row in range(n - 1, -1, -1):
        accumulator = b[row]
        for k in range(row + 1, n):
            accumulator = accumulator - a[row][k] * x[k]
        x[row] = accumulator * inverses[row]
    return list(x)  # type: ignore[arg-type]


def matrix_vector_product(
    matrix: Sequence[Sequence[PowerSeries]], vector: Sequence[PowerSeries]
) -> list[PowerSeries]:
    """``matrix * vector`` over the series ring (used to verify solves)."""
    out = []
    for row in matrix:
        accumulator = row[0] * vector[0]
        for a, v in zip(row[1:], vector[1:]):
            accumulator = accumulator + a * v
        out.append(accumulator)
    return out


def residual_norm(series_vector: Sequence[PowerSeries]) -> float:
    """Largest coefficient magnitude across a vector of series (as a double).

    Any NaN coefficient gives NaN, and otherwise an infinite one gives inf —
    the fold of :meth:`repro.core.EvalContext.residual_norms`, so a
    diverged Newton iterate never reads as converged.
    """
    return max_magnitude(series.max_abs() for series in series_vector)
