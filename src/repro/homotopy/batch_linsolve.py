"""Batched Gaussian elimination directly on packed limb tensors.

Scalar :func:`repro.homotopy.lu_solve` eliminates one
:class:`repro.series.PowerSeries` operation at a time — once the evaluation
sweeps run on the tensorized NumPy backend, that Python-level solve is the
dominant cost of a batched Newton step.  This module applies the
same whole-array multidouble strategy to the solve itself: the matrices and
right-hand sides of *all* batch instances live in one
``(limbs, batch, n, n, degree+1)`` limb tensor (split real/imaginary planes
for complex rings, the :mod:`repro.md.cvecops` layout), and every elimination
step runs as a handful of batched series convolutions
(:func:`repro.core.tensor.convolve_rows` /
:func:`repro.core.tensor.convolve_rows_complex`) and whole-array
multiple-double sweeps — never a per-instance Python loop over ring
operations.

The algorithm mirrors the scalar one operation for operation:

* per-instance partial pivoting by constant-term magnitude, selected with one
  ``np.argmax`` per column (first maximum wins, like Python's ``max``);
* pivot series inverted once per column via the standard recursion
  (``b_0 = 1/a_0``, ``b_k = -(1/a_0) * sum a_i b_{k-i}``) on whole batch
  rows, with the reciprocal from :func:`repro.md.vecops.md_reciprocal_rows` /
  :func:`repro.md.cvecops.cmd_reciprocal_rows`; the inverses are cached and
  reused by back substitution (the scalar solver does the same);
* the solve is bound by its count of Python-level row operations, not their
  width, so independent products share one call: one multiply per inverse
  coefficient, one convolution per back-substitution row, and one multiply
  per convolution whose products fit the convolution budget of
  :func:`repro.core.tensor.convolve_rows`.  A 6x6 degree-15 solve of a few
  instances makes 201 multiplies, 966 additions and 20 subtractions.  Row
  operations are elementwise, so stacking moves no bit; only the sums run
  sequentially;
* row updates and back substitution accumulate in exactly the scalar
  operand order, so for multiple-double rings at **double-double** precision
  the results are bit-identical to per-instance :func:`lu_solve` — the parity
  the test suite asserts limb by limb.  Higher precisions and one-limb rings
  agree to rounding (the vectorised renormalisation is faithful, not
  bit-reproducing, beyond two limbs; plain-complex division uses the naive
  formula where Python uses Smith's algorithm).  Complex rings can differ in
  the last limb once a unit-circle entry is a pivot candidate: *selection*
  compares ``|z|`` of collapsed doubles, not the scalar multidouble
  ``sqrt``, so two candidates tied within one ulp may pick different rows,
  and the reciprocal's ``|b|^2`` lands just above 1.0, where the sweep
  renormalisation can round differently from the scalar one.

A singular instance raises :class:`repro.errors.SingularSystemError` naming
every failing batch position (``exc.instances``); a non-square input is a
usage error and raises :class:`ValueError`, exactly like the scalar solver.
The solvers run with NumPy's floating-point warnings off
(:func:`repro.core.tensor.quiet_fp`): a diverged instance computes NaNs and
infinities silently instead of failing its batch through a warning filter.
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_counter_ns
from typing import Sequence

import numpy as np

from ..core.tensor import (
    ComplexSlotTensor,
    SlotTensor,
    collapse_limbs,
    convolve_rows,
    convolve_rows_complex,
    infer_ring,
    make_tensor,
    quiet_fp,
)
from ..errors import SingularSystemError
from ..md.cvecops import cmd_add_rows, cmd_mul_rows, cmd_reciprocal_rows, cmd_sub_rows
from ..md.vecops import md_add_rows, md_mul_rows, md_reciprocal_rows, md_sub_rows
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .linsolve import lu_solve

__all__ = [
    "batch_lu_solve",
    "batch_lu_solve_tensor",
    "batch_lu_solve_tensor_complex",
    "series_inverse_rows",
    "series_inverse_rows_complex",
    "solve_packed",
]

#: Process-wide telemetry registry; ``enabled`` is a plain attribute so the
#: disabled hot path costs exactly one attribute check per call site.
_TELEMETRY = get_telemetry()

#: Memoised ``TimingModel.predict_solve`` wall-clock estimates, keyed on
#: ``(dimension, degree, batch, limbs)`` — solves recur at identical shapes
#: throughout a Newton run, so each shape is priced once.
_SOLVE_PREDICTIONS: dict[tuple, float | None] = {}


def _predicted_solve_ms(
    dimension: int, degree: int, batch: int, limbs: int
) -> float | None:
    key = (dimension, degree, batch, limbs)
    if key not in _SOLVE_PREDICTIONS:
        if len(_SOLVE_PREDICTIONS) > 4096:
            _SOLVE_PREDICTIONS.clear()
        try:
            from ..gpusim.timing import TimingModel

            model = TimingModel(precision=limbs)
            _SOLVE_PREDICTIONS[key] = model.predict_solve(
                dimension, degree, batch
            ).wall_clock_ms
        except Exception:
            _SOLVE_PREDICTIONS[key] = None
    return _SOLVE_PREDICTIONS[key]


# --------------------------------------------------------------------- #
# batched series inversion
# --------------------------------------------------------------------- #
@quiet_fp
def series_inverse_rows(c: np.ndarray, limbs: int) -> np.ndarray:
    """Invert many real power series at once.

    ``c`` is a ``(limbs, m, degree+1)`` limb tensor of series with invertible
    constant terms; the result holds ``1 / c`` row by row, computed with the
    recursion of :meth:`repro.series.PowerSeries.inverse` in the exact scalar
    accumulation order.  Coefficient ``k`` forms its ``k`` products
    ``c_i * b_(k-i)`` in one multiply; only their sum runs in sequence.
    """
    limb_list = list(range(limbs))
    out = np.zeros_like(c)
    inv0 = md_reciprocal_rows([c[i, :, 0] for i in limb_list], limbs)
    for i in limb_list:
        out[i, :, 0] = inv0[i]
    for k in range(1, c.shape[2]):
        products = md_mul_rows(
            [c[i, :, 1 : k + 1] for i in limb_list],
            [out[i, :, k - 1 :: -1] for i in limb_list],
            limbs,
        )
        acc = [p[:, 0] for p in products]
        for j in range(1, k):
            acc = md_add_rows(acc, [p[:, j] for p in products], limbs)
        coeff = md_mul_rows(inv0, acc, limbs)
        for i in limb_list:
            out[i, :, k] = -coeff[i]
    return out


@quiet_fp
def series_inverse_rows_complex(
    cr: np.ndarray, ci: np.ndarray, limbs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert many complex power series at once (split real/imaginary planes)."""
    limb_list = list(range(limbs))
    out_r = np.zeros_like(cr)
    out_i = np.zeros_like(ci)
    inv0_r, inv0_i = cmd_reciprocal_rows(
        [cr[i, :, 0] for i in limb_list], [ci[i, :, 0] for i in limb_list], limbs
    )
    for i in limb_list:
        out_r[i, :, 0] = inv0_r[i]
        out_i[i, :, 0] = inv0_i[i]
    for k in range(1, cr.shape[2]):
        products_r, products_i = cmd_mul_rows(
            [cr[i, :, 1 : k + 1] for i in limb_list],
            [ci[i, :, 1 : k + 1] for i in limb_list],
            [out_r[i, :, k - 1 :: -1] for i in limb_list],
            [out_i[i, :, k - 1 :: -1] for i in limb_list],
            limbs,
        )
        acc_r = [p[:, 0] for p in products_r]
        acc_i = [p[:, 0] for p in products_i]
        for j in range(1, k):
            acc_r, acc_i = cmd_add_rows(
                acc_r,
                acc_i,
                [p[:, j] for p in products_r],
                [p[:, j] for p in products_i],
                limbs,
            )
        coeff_r, coeff_i = cmd_mul_rows(inv0_r, inv0_i, acc_r, acc_i, limbs)
        for i in limb_list:
            out_r[i, :, k] = -coeff_r[i]
            out_i[i, :, k] = -coeff_i[i]
    return out_r, out_i


# --------------------------------------------------------------------- #
# shared elimination helpers
# --------------------------------------------------------------------- #
def _check_shapes(matrix_shape, rhs_shape) -> tuple[int, int, int, int, int]:
    if len(matrix_shape) != 5 or len(rhs_shape) != 4:
        raise ValueError(
            "expected a (limbs, batch, n, n, degree+1) matrix tensor and a "
            f"(limbs, batch, n, degree+1) rhs tensor, got {matrix_shape} and {rhs_shape}"
        )
    limbs, batch, rows, columns, width = matrix_shape
    if rows != columns:
        raise ValueError(
            f"batched lu solve expects square systems, got {rows} x {columns}"
        )
    if rhs_shape != (limbs, batch, rows, width):
        raise ValueError(
            f"rhs tensor shape {rhs_shape} does not match matrix shape {matrix_shape}"
        )
    return limbs, batch, rows, columns, width


def _check_pivots(magnitudes: np.ndarray, column: int) -> None:
    """Raise for every instance whose best pivot magnitude vanishes."""
    singular = np.nonzero(magnitudes == 0.0)[0]
    if singular.size:
        instances = [int(i) for i in singular]
        error = SingularSystemError(
            f"zero pivot in column {column} for batch instance(s) "
            + ", ".join(map(str, instances))
        )
        error.instances = instances
        raise error


def _swap_rows(a: np.ndarray, b: np.ndarray, column: int, pivot: np.ndarray) -> None:
    """Per-instance row swap ``column <-> pivot[instance]``, in place."""
    moved = np.nonzero(pivot != column)[0]
    if not moved.size:
        return
    rows = pivot[moved]
    matrix_tmp = a[:, moved, column].copy()
    rhs_tmp = b[:, moved, column].copy()
    a[:, moved, column] = a[:, moved, rows]
    b[:, moved, column] = b[:, moved, rows]
    a[:, moved, rows] = matrix_tmp
    b[:, moved, rows] = rhs_tmp


def _flat(planes: np.ndarray, limbs: int, width: int) -> np.ndarray:
    """Collapse the middle axes to one row axis for the row-op kernels."""
    return np.ascontiguousarray(planes).reshape(limbs, -1, width)


# --------------------------------------------------------------------- #
# the real batched solver
# --------------------------------------------------------------------- #
@quiet_fp
def batch_lu_solve_tensor(matrix: np.ndarray, rhs: np.ndarray, limbs: int) -> np.ndarray:
    """Solve many real series systems in one whole-tensor elimination.

    ``matrix`` is a ``(limbs, batch, n, n, degree+1)`` limb tensor (instance
    ``b``, row ``i``, column ``j``), ``rhs`` a ``(limbs, batch, n, degree+1)``
    tensor; the result has the shape of ``rhs`` and holds the per-instance
    solutions.  The inputs are not modified.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    _, batch, n, _, width = _check_shapes(matrix.shape, rhs.shape)
    a = matrix.copy()
    b = rhs.copy()
    limb_list = list(range(limbs))
    inverses = np.zeros((limbs, batch, n, width), dtype=np.float64)

    for column in range(n):
        # Partial pivoting on the constant coefficients, one argmax per
        # instance; |sum of limbs in reversed order| is exactly the scalar
        # abs(MultiDouble.to_float()) magnitude, ties break to the first row
        # in both stacks.
        magnitudes = np.abs(collapse_limbs(a[:, :, column:, column, 0]))
        relative = np.argmax(magnitudes, axis=1)
        _check_pivots(magnitudes[np.arange(batch), relative], column)
        _swap_rows(a, b, column, relative + column)

        inverse = series_inverse_rows(
            np.ascontiguousarray(a[:, :, column, column, :]), limbs
        )
        inverses[:, :, column, :] = inverse
        remaining = n - column - 1
        if not remaining:
            continue
        # factor[row] = a[row][column] * pivot_inverse, all rows at once
        entries = _flat(a[:, :, column + 1 :, column, :], limbs, width)
        tiled = np.broadcast_to(
            inverse[:, :, None, :], (limbs, batch, remaining, width)
        )
        factors = convolve_rows(entries, _flat(tiled, limbs, width), limbs).reshape(
            limbs, batch, remaining, width
        )
        # a[row][k] -= factor[row] * a[column][k] for every row > column and
        # every k >= column, with the rhs riding along as column n.
        span = n - column
        source = np.concatenate(
            [a[:, :, column, column:, :], b[:, :, column, None, :]], axis=2
        )
        targets = np.concatenate(
            [a[:, :, column + 1 :, column:, :], b[:, :, column + 1 :, None, :]], axis=3
        )
        shape = (limbs, batch, remaining, span + 1, width)
        products = convolve_rows(
            _flat(np.broadcast_to(factors[:, :, :, None, :], shape), limbs, width),
            _flat(np.broadcast_to(source[:, :, None, :, :], shape), limbs, width),
            limbs,
        )
        flat_targets = _flat(targets, limbs, width)
        updated = md_sub_rows(
            [flat_targets[i] for i in limb_list], [products[i] for i in limb_list], limbs
        )
        eliminated = np.stack(updated).reshape(shape)
        a[:, :, column + 1 :, column:, :] = eliminated[:, :, :, :span, :]
        b[:, :, column + 1 :, :] = eliminated[:, :, :, span, :]

    # Back substitution: the products a[row][k] * x[k] of one row form in one
    # convolution, their subtraction from b[row] stays sequential (scalar
    # order, increasing k); pivot inverses are reused from elimination.
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        accumulator = [b[i, :, row, :] for i in limb_list]
        later = n - 1 - row
        if later:
            products = convolve_rows(
                _flat(a[:, :, row, row + 1 :, :], limbs, width),
                _flat(x[:, :, row + 1 :, :], limbs, width),
                limbs,
            ).reshape(limbs, batch, later, width)
            for k in range(later):
                accumulator = md_sub_rows(
                    accumulator, [products[i, :, k] for i in limb_list], limbs
                )
        x[:, :, row, :] = convolve_rows(
            np.stack(accumulator), np.ascontiguousarray(inverses[:, :, row, :]), limbs
        )
    return x


# --------------------------------------------------------------------- #
# the complex batched solver
# --------------------------------------------------------------------- #
@quiet_fp
def batch_lu_solve_tensor_complex(
    matrix_real: np.ndarray,
    matrix_imag: np.ndarray,
    rhs_real: np.ndarray,
    rhs_imag: np.ndarray,
    limbs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve many complex series systems on paired real/imaginary planes.

    The complex twin of :func:`batch_lu_solve_tensor`: same shapes per
    plane, same elimination order, with every ring operation decomposed into
    real sweeps through :mod:`repro.md.cvecops` in the scalar
    :class:`repro.md.ComplexMD` operation order.
    """
    matrix_real = np.ascontiguousarray(matrix_real, dtype=np.float64)
    matrix_imag = np.ascontiguousarray(matrix_imag, dtype=np.float64)
    rhs_real = np.ascontiguousarray(rhs_real, dtype=np.float64)
    rhs_imag = np.ascontiguousarray(rhs_imag, dtype=np.float64)
    if matrix_real.shape != matrix_imag.shape or rhs_real.shape != rhs_imag.shape:
        raise ValueError("real and imaginary planes must share one shape")
    _, batch, n, _, width = _check_shapes(matrix_real.shape, rhs_real.shape)
    ar, ai = matrix_real.copy(), matrix_imag.copy()
    br, bi = rhs_real.copy(), rhs_imag.copy()
    limb_list = list(range(limbs))
    inv_r = np.zeros((limbs, batch, n, width), dtype=np.float64)
    inv_i = np.zeros((limbs, batch, n, width), dtype=np.float64)

    for column in range(n):
        magnitudes = np.hypot(
            collapse_limbs(ar[:, :, column:, column, 0]),
            collapse_limbs(ai[:, :, column:, column, 0]),
        )
        relative = np.argmax(magnitudes, axis=1)
        _check_pivots(magnitudes[np.arange(batch), relative], column)
        pivot = relative + column
        _swap_rows(ar, br, column, pivot)
        _swap_rows(ai, bi, column, pivot)

        pivot_inv = series_inverse_rows_complex(
            np.ascontiguousarray(ar[:, :, column, column, :]),
            np.ascontiguousarray(ai[:, :, column, column, :]),
            limbs,
        )
        inv_r[:, :, column, :], inv_i[:, :, column, :] = pivot_inv
        remaining = n - column - 1
        if not remaining:
            continue
        tile_shape = (limbs, batch, remaining, width)
        factors_r, factors_i = convolve_rows_complex(
            _flat(ar[:, :, column + 1 :, column, :], limbs, width),
            _flat(ai[:, :, column + 1 :, column, :], limbs, width),
            _flat(np.broadcast_to(pivot_inv[0][:, :, None, :], tile_shape), limbs, width),
            _flat(np.broadcast_to(pivot_inv[1][:, :, None, :], tile_shape), limbs, width),
            limbs,
        )
        factors_r = factors_r.reshape(tile_shape)
        factors_i = factors_i.reshape(tile_shape)
        span = n - column
        shape = (limbs, batch, remaining, span + 1, width)
        source_r = np.concatenate(
            [ar[:, :, column, column:, :], br[:, :, column, None, :]], axis=2
        )
        source_i = np.concatenate(
            [ai[:, :, column, column:, :], bi[:, :, column, None, :]], axis=2
        )
        targets_r = np.concatenate(
            [ar[:, :, column + 1 :, column:, :], br[:, :, column + 1 :, None, :]], axis=3
        )
        targets_i = np.concatenate(
            [ai[:, :, column + 1 :, column:, :], bi[:, :, column + 1 :, None, :]], axis=3
        )
        products_r, products_i = convolve_rows_complex(
            _flat(np.broadcast_to(factors_r[:, :, :, None, :], shape), limbs, width),
            _flat(np.broadcast_to(factors_i[:, :, :, None, :], shape), limbs, width),
            _flat(np.broadcast_to(source_r[:, :, None, :, :], shape), limbs, width),
            _flat(np.broadcast_to(source_i[:, :, None, :, :], shape), limbs, width),
            limbs,
        )
        flat_r = _flat(targets_r, limbs, width)
        flat_i = _flat(targets_i, limbs, width)
        updated_r, updated_i = cmd_sub_rows(
            [flat_r[i] for i in limb_list],
            [flat_i[i] for i in limb_list],
            [products_r[i] for i in limb_list],
            [products_i[i] for i in limb_list],
            limbs,
        )
        eliminated_r = np.stack(updated_r).reshape(shape)
        eliminated_i = np.stack(updated_i).reshape(shape)
        ar[:, :, column + 1 :, column:, :] = eliminated_r[:, :, :, :span, :]
        ai[:, :, column + 1 :, column:, :] = eliminated_i[:, :, :, :span, :]
        br[:, :, column + 1 :, :] = eliminated_r[:, :, :, span, :]
        bi[:, :, column + 1 :, :] = eliminated_i[:, :, :, span, :]

    x_r = np.zeros_like(br)
    x_i = np.zeros_like(bi)
    for row in range(n - 1, -1, -1):
        acc_r = [br[i, :, row, :] for i in limb_list]
        acc_i = [bi[i, :, row, :] for i in limb_list]
        later = n - 1 - row
        if later:
            products_r, products_i = (
                product.reshape(limbs, batch, later, width)
                for product in convolve_rows_complex(
                    _flat(ar[:, :, row, row + 1 :, :], limbs, width),
                    _flat(ai[:, :, row, row + 1 :, :], limbs, width),
                    _flat(x_r[:, :, row + 1 :, :], limbs, width),
                    _flat(x_i[:, :, row + 1 :, :], limbs, width),
                    limbs,
                )
            )
            for k in range(later):
                acc_r, acc_i = cmd_sub_rows(
                    acc_r,
                    acc_i,
                    [products_r[i, :, k] for i in limb_list],
                    [products_i[i, :, k] for i in limb_list],
                    limbs,
                )
        solved_r, solved_i = convolve_rows_complex(
            np.stack(acc_r),
            np.stack(acc_i),
            np.ascontiguousarray(inv_r[:, :, row, :]),
            np.ascontiguousarray(inv_i[:, :, row, :]),
            limbs,
        )
        x_r[:, :, row, :] = solved_r
        x_i[:, :, row, :] = solved_i
    return x_r, x_i


# --------------------------------------------------------------------- #
# dispatch helpers
# --------------------------------------------------------------------- #
def solve_packed(matrix, rhs, limbs: int, active: Sequence[int] | None = None):
    """Dispatch packed tensors to the real or complex batched solver.

    ``matrix``/``rhs`` are either plain limb tensors (real rings) or
    ``(real, imag)`` plane pairs (complex rings) — the shapes a resident
    :meth:`repro.core.EvalContext.newton_system` gathers; the result has the
    same form as ``rhs``.

    ``active`` optionally restricts the solve to a subset of batch-axis
    instances: only their systems are gathered and eliminated, the rest of
    the result stays exactly zero (shape-preserving, so callers can keep
    indexing by original instance).  Singular instances are reported by
    their *original* batch positions.  Because every elimination sweep is
    elementwise per instance, an active instance's solution is bit-identical
    whether or not the others solve alongside it.
    """
    if active is not None:
        indices = np.asarray(list(active), dtype=np.int64)
        if isinstance(matrix, tuple):
            sub_matrix = (matrix[0][:, indices], matrix[1][:, indices])
            sub_rhs = (rhs[0][:, indices], rhs[1][:, indices])
        else:
            sub_matrix = matrix[:, indices]
            sub_rhs = rhs[:, indices]
        try:
            solved = solve_packed(sub_matrix, sub_rhs, limbs)
        except SingularSystemError as error:
            original = [int(indices[i]) for i in getattr(error, "instances", [])]
            remapped = SingularSystemError(
                "zero pivot for batch instance(s) " + ", ".join(map(str, original))
            )
            remapped.instances = original
            raise remapped from error
        if isinstance(rhs, tuple):
            out = (np.zeros_like(rhs[0]), np.zeros_like(rhs[1]))
            out[0][:, indices] = solved[0]
            out[1][:, indices] = solved[1]
            return out
        out = np.zeros_like(rhs)
        out[:, indices] = solved
        return out
    tel = _TELEMETRY
    t0 = tel.enabled and _perf_counter_ns()
    if isinstance(matrix, tuple):
        solved = batch_lu_solve_tensor_complex(
            matrix[0], matrix[1], rhs[0], rhs[1], limbs
        )
        plane = matrix[0]
    else:
        solved = batch_lu_solve_tensor(matrix, rhs, limbs)
        plane = matrix
    if t0:
        end = _perf_counter_ns()
        _, m, n, _, width = plane.shape
        tel.record_span(
            "solve.packed", t0, end, batch=int(m), dimension=int(n), limbs=limbs
        )
        tel.count("solve.launches")
        predicted = _predicted_solve_ms(int(n), width - 1, int(m), limbs)
        if predicted is not None:
            tel.ledger("solve", (end - t0) / 1e6, predicted)
    return solved


def batch_lu_solve(
    matrices: Sequence[Sequence[Sequence[PowerSeries]]],
    rhss: Sequence[Sequence[PowerSeries]],
    active: Sequence[int] | None = None,
) -> list[list[PowerSeries] | None]:
    """Solve a batch of series systems given as nested :class:`PowerSeries`.

    Packs every instance's matrix and right-hand side into one limb tensor
    (ring inferred as in the tensorized evaluator, reals and complexes
    promoting losslessly), runs the batched elimination, and scatters the
    solutions back — for tensor-resident rings at double-double precision the
    per-instance results are bit-identical to scalar :func:`lu_solve`.  Rings
    the tensor cannot carry (exact fractions) fall back to the scalar oracle
    per instance.

    ``active`` optionally names the batch positions to solve: masked-out
    instances never reach the solver (their singular systems cannot raise)
    and come back as ``None`` in the result list, which keeps one entry per
    input instance.  Singular active instances are reported by their
    original batch positions.
    """
    if len(matrices) != len(rhss):
        raise ValueError(
            f"got {len(matrices)} matrices for {len(rhss)} right-hand sides"
        )
    if active is not None:
        indices = sorted({int(i) for i in active})
        if indices and (indices[0] < 0 or indices[-1] >= len(matrices)):
            raise ValueError(
                f"active instance indices must lie in [0, {len(matrices)}), "
                f"got [{indices[0]}, {indices[-1]}]"
            )
        try:
            solved = batch_lu_solve(
                [matrices[i] for i in indices], [rhss[i] for i in indices]
            )
        except SingularSystemError as error:
            original = [indices[i] for i in getattr(error, "instances", [])]
            remapped = SingularSystemError(
                "zero pivot for batch instance(s) " + ", ".join(map(str, original))
            )
            remapped.instances = original
            raise remapped from error
        results: list[list[PowerSeries] | None] = [None] * len(matrices)
        for position, solution in zip(indices, solved):
            results[position] = solution
        return results
    if not matrices:
        return []
    n = len(rhss[0])
    for matrix, rhs in zip(matrices, rhss):
        if len(rhs) != n or len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(
                "batch_lu_solve expects square systems of one dimension across the batch"
            )
    batch = len(matrices)
    flat_matrix = [series for matrix in matrices for row in matrix for series in row]
    flat_rhs = [series for rhs in rhss for series in rhs]
    ring = infer_ring(flat_matrix + flat_rhs)
    if ring is None:
        return [lu_solve(matrix, rhs) for matrix, rhs in zip(matrices, rhss)]
    kind, limbs = ring
    width = flat_rhs[0].degree + 1
    matrix_tensor = make_tensor(flat_matrix, kind=kind, limbs=limbs)
    rhs_tensor = make_tensor(flat_rhs, kind=kind, limbs=limbs)
    if kind in ("complex", "cmd"):
        x_r, x_i = batch_lu_solve_tensor_complex(
            matrix_tensor.real.reshape(limbs, batch, n, n, width),
            matrix_tensor.imag.reshape(limbs, batch, n, n, width),
            rhs_tensor.real.reshape(limbs, batch, n, width),
            rhs_tensor.imag.reshape(limbs, batch, n, width),
            limbs,
        )
        solved = ComplexSlotTensor(
            x_r.reshape(limbs, batch * n, width),
            x_i.reshape(limbs, batch * n, width),
            kind,
        )
    else:
        x = batch_lu_solve_tensor(
            matrix_tensor.data.reshape(limbs, batch, n, n, width),
            rhs_tensor.data.reshape(limbs, batch, n, width),
            limbs,
        )
        solved = SlotTensor(x.reshape(limbs, batch * n, width), kind)
    slots = solved.to_slots()
    return [slots[b * n : (b + 1) * n] for b in range(batch)]
