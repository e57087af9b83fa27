"""Linear algebra over truncated power series.

Newton's method on power series solves, at every step, a linear system
``A(t) x(t) = b(t)`` whose matrix entries and right-hand side are truncated
power series.  Matching the powers of ``t`` turns it into a block lower
triangular (Toeplitz) system in the coefficients: coefficient ``k`` of the
solution solves

    ``A_0 x_k = b_k - sum_{i=1..k} A_i x_{k-i}``,

so only the lead matrix ``A_0`` — the constant terms of the entries — is
ever factored.  This is the linearised formulation of Bliss and Verschelde
(*The method of Gauss-Newton to compute power series solutions of polynomial
homotopies*, Linear Algebra Appl., 2018): ``O(n^3)`` ring operations for
the factorisation plus ``O(n^2 d^2)`` for the coefficients, where Gaussian
elimination over the series ring costs ``O(n^3 d^2)`` and ``n`` series
inverses.

Partial pivoting maximises the magnitude of the constant term, so the pivots
— and the singular systems — are exactly those of Gaussian elimination over
the series ring; pivoting keeps the solve stable for floating-point rings and
is a no-op for exact ones.  The batched row driver
:func:`repro.homotopy.batch_lu_solve_tensor` runs the same operations in the
same order on packed limb tensors.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SingularSystemError, TruncationError
from ..series.series import PowerSeries, max_magnitude

__all__ = ["lu_solve", "matrix_vector_product", "residual_norm"]


def _magnitude(value) -> float:
    if hasattr(value, "abs"):
        return float(value.abs().to_float())
    if hasattr(value, "to_float"):
        return abs(value.to_float())
    return abs(complex(value)) if isinstance(value, complex) else abs(float(value))


def _tree_sum(terms: Sequence):
    """Sum ``terms`` (at least one) in a fixed pairwise tree.

    Each level adds the pairs ``(0, 1), (2, 3), ...`` and carries an odd
    last term up a level — the order the batched solver sums its stacked
    products in, one row addition per level.
    """
    while len(terms) > 1:
        paired = [a + b for a, b in zip(terms[0::2], terms[1::2])]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


def _lead_inverse(lead: list[list]) -> list[list]:
    """``A_0^{-1}`` by Gaussian elimination on ``[A_0 | I]`` with partial
    pivoting, then back substitution of all ``n`` columns at once."""
    n = len(lead)
    a = [list(row) for row in lead]
    zero = a[0][0] * 0
    b = [[zero + 1 if i == j else zero for j in range(n)] for i in range(n)]
    inverses = []
    for column in range(n):
        pivot_row = max(range(column, n), key=lambda r: _magnitude(a[r][column]))
        if _magnitude(a[pivot_row][column]) == 0.0:
            raise SingularSystemError(f"zero pivot in column {column}")
        a[column], a[pivot_row] = a[pivot_row], a[column]
        b[column], b[pivot_row] = b[pivot_row], b[column]
        pivot = a[column][column]
        # (p / p) / p, the reciprocal of PowerSeries.inverse
        inverses.append((pivot / pivot) / pivot)
        for row in range(column + 1, n):
            factor = a[row][column] * inverses[column]
            for k in range(column + 1, n):
                a[row][k] = a[row][k] - factor * a[column][k]
            b[row] = [target - factor * source for target, source in zip(b[row], b[column])]
    x: list = [None] * n
    for row in range(n - 1, -1, -1):
        accumulator = b[row]
        for k in range(row + 1, n):
            accumulator = [total - a[row][k] * value for total, value in zip(accumulator, x[k])]
        x[row] = [total * inverses[row] for total in accumulator]
    return x


def lu_solve(matrix: Sequence[Sequence[PowerSeries]], rhs: Sequence[PowerSeries]) -> list[PowerSeries]:
    """Solve ``matrix * x = rhs`` over the series ring on the lead matrix.

    Factors the constant-term matrix ``A_0`` once and forms ``A_0^{-1}``.
    Then for ``k = 0 .. d`` each row sums its ``n k`` products
    ``A_i[row][j] * x_{k-i}[j]`` (``j`` major, ``i = 1 .. k`` minor) with
    a fixed pairwise tree and subtracts the sum from ``b_k[row]`` once,
    which gives ``r_k[row]``; ``x_k[row]`` is the same tree's sum of
    ``A_0^{-1}[row][j] * r_k[j]`` over ``j``.  :func:`repro.homotopy.batch_lu_solve_tensor` follows the
    same order, so the two agree bit for bit at double-double precision, and
    at quad-double precision in the real ring.

    Raises :class:`repro.errors.SingularSystemError` when a pivot of ``A_0``
    vanishes (the linearised system is singular at ``t = 0``); a non-square
    input is a usage error and raises :class:`ValueError`, and entries of
    different degrees raise :class:`repro.errors.TruncationError`.
    """
    n = len(rhs)
    if any(len(row) != n for row in matrix) or len(matrix) != n:
        raise ValueError("lu_solve expects a square system")
    if not n:
        return []
    width = len(rhs[0])
    if any(len(series) != width for series in (*rhs, *(entry for row in matrix for entry in row))):
        raise TruncationError("lu_solve expects entries of one degree")
    a = [[entry.coefficients for entry in row] for row in matrix]
    inverse = _lead_inverse([[entry[0] for entry in row] for row in a])
    x: list[list] = [[] for _ in range(n)]
    for k in range(width):
        residual = [series.coefficients[k] for series in rhs]
        if k:
            residual = [
                b - _tree_sum([a[row][j][i] * x[j][k - i] for j in range(n) for i in range(1, k + 1)])
                for row, b in enumerate(residual)
            ]
        for row in range(n):
            x[row].append(_tree_sum([inverse[row][j] * residual[j] for j in range(n)]))
    return [PowerSeries(coefficients) for coefficients in x]


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
