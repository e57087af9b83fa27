"""Batched Gaussian elimination directly on packed limb tensors.

Scalar :func:`repro.homotopy.lu_solve` eliminates one
:class:`repro.series.PowerSeries` operation at a time — once the evaluation
sweeps run on the tensorized NumPy backend, that Python-level solve is the
dominant cost of a batched Newton step.  This module applies the
same whole-array multidouble strategy to the solve itself: the matrices and
right-hand sides of *all* batch instances live in one
``(limbs, batch, n, n, degree+1)`` limb tensor per plane — one plane for the
real rings, the real and imaginary planes for the complex ones (the
:mod:`repro.md.cvecops` layout) — and every elimination step runs as a
handful of batched series convolutions (:func:`repro.core.tensor.convolve_rows`)
and whole-array multiple-double sweeps — never a per-instance Python loop
over ring operations.  Each driver is written once over tuples of planes:
the ring's multiply, reciprocal and pivot magnitude come from the ring
table of :mod:`repro.core.tensor`, and subtractions run plane by plane.

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
  :func:`repro.core.tensor.convolve_rows`.  A real 6x6 degree-15 solve of a
  few instances makes 201 multiplies, 966 additions and 20 subtractions.
  Row operations are elementwise, so stacking moves no bit; only the sums
  run sequentially;
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

from ..core.tensor import _RING_OPS, SlotTensor, convolve_rows, infer_ring, quiet_fp
from ..errors import SingularSystemError
from ..md.vecops import md_add_rows, md_sub_rows
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .linsolve import lu_solve

__all__ = [
    "batch_lu_solve",
    "batch_lu_solve_tensor",
    "series_inverse_rows",
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
def series_inverse_rows(c: Sequence[np.ndarray], limbs: int) -> tuple[np.ndarray, ...]:
    """Invert many power series at once.

    ``c`` is a tuple of ``(limbs, m, degree+1)`` limb planes (one real plane
    or a ``(real, imag)`` pair) of series with invertible constant terms; the
    result holds ``1 / c`` row by row in the same planes, computed with the
    recursion of :meth:`repro.series.PowerSeries.inverse` in the exact
    scalar accumulation order.  Coefficient ``k`` forms its ``k`` products
    ``c_i * b_(k-i)`` in one multiply; only their sum runs in sequence.
    """
    ring = _RING_OPS[len(c)]
    out = tuple(np.zeros_like(plane) for plane in c)
    inv0 = ring.reciprocal(tuple(list(plane[:, :, 0]) for plane in c), limbs)
    for plane, limb_list in zip(out, inv0):
        for i in range(limbs):
            plane[i, :, 0] = limb_list[i]
    for k in range(1, c[0].shape[2]):
        products = ring.mul(
            tuple(list(plane[:, :, 1 : k + 1]) for plane in c),
            tuple(list(plane[:, :, k - 1 :: -1]) for plane in out),
            limbs,
        )
        acc = tuple([p[:, 0] for p in plane] for plane in products)
        for j in range(1, k):
            acc = tuple(
                md_add_rows(total, [p[:, j] for p in plane], limbs)
                for total, plane in zip(acc, products)
            )
        coeff = ring.mul(inv0, acc, limbs)
        for plane, limb_list in zip(out, coeff):
            for i in range(limbs):
                plane[i, :, k] = -limb_list[i]
    return out


# --------------------------------------------------------------------- #
# shared elimination helpers
# --------------------------------------------------------------------- #
def _check_shapes(matrix, rhs) -> tuple[int, int, int, int, int]:
    """The ``(limbs, batch, n, n, width)`` of plane tuples of a square system."""
    matrix_shape, rhs_shape = matrix[0].shape, rhs[0].shape
    if (
        len(matrix) != len(rhs)
        or {plane.shape for plane in matrix} != {matrix_shape}
        or {plane.shape for plane in rhs} != {rhs_shape}
    ):
        raise ValueError(
            "matrix and rhs need as many planes, all planes of each of one shape; "
            f"got {[p.shape for p in matrix]} and {[p.shape for p in rhs]}"
        )
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


def _singular(instances: Sequence[int], where: str = "") -> SingularSystemError:
    """The error naming every singular batch position in ``instances``."""
    error = SingularSystemError(
        f"zero pivot{where} for batch instance(s) " + ", ".join(map(str, instances))
    )
    error.instances = list(instances)
    return error


def _remapped(error: SingularSystemError, positions: Sequence[int]) -> SingularSystemError:
    """``error`` of a solve over a subset of a batch, naming the batch
    positions ``positions[i]`` of its instances ``i``."""
    return _singular([int(positions[i]) for i in getattr(error, "instances", [])])


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


# --------------------------------------------------------------------- #
# the batched solver
# --------------------------------------------------------------------- #
@quiet_fp
def batch_lu_solve_tensor(
    matrix: Sequence[np.ndarray], rhs: Sequence[np.ndarray], limbs: int
) -> tuple[np.ndarray, ...]:
    """Solve many series systems in one whole-tensor elimination.

    ``matrix`` is a tuple of ``(limbs, batch, n, n, degree+1)`` limb planes
    (instance ``b``, row ``i``, column ``j``) and ``rhs`` a tuple of
    ``(limbs, batch, n, degree+1)`` planes: one plane each for a real ring,
    the real and imaginary planes for a complex one.  The result is a tuple
    of planes of the shape of ``rhs`` holding the per-instance solutions.
    The inputs are not modified.
    """
    a = tuple(np.array(plane, dtype=np.float64, order="C") for plane in matrix)
    b = tuple(np.array(plane, dtype=np.float64, order="C") for plane in rhs)
    _, batch, n, _, width = _check_shapes(a, b)
    magnitude = _RING_OPS[len(a)].magnitude
    inverses = tuple(np.zeros((limbs, batch, n, width)) for _ in a)

    for column in range(n):
        # Partial pivoting on the constant coefficients, one argmax per
        # instance; the ring's magnitude of the collapsed limbs is exactly
        # the scalar code's, and ties break to the first row in both stacks.
        magnitudes = magnitude(tuple(plane[:, :, column:, column, 0] for plane in a))
        relative = np.argmax(magnitudes, axis=1)
        singular = np.nonzero(magnitudes[np.arange(batch), relative] == 0.0)[0]
        if singular.size:
            raise _singular(singular.tolist(), f" in column {column}")
        for plane_a, plane_b in zip(a, b):
            _swap_rows(plane_a, plane_b, column, relative + column)

        inverse = series_inverse_rows(
            tuple(np.ascontiguousarray(plane[:, :, column, column]) for plane in a), limbs
        )
        for plane, block in zip(inverses, inverse):
            plane[:, :, column] = block
        remaining = n - column - 1
        if not remaining:
            continue
        # factor[row] = a[row][column] * pivot_inverse, all rows at once
        factors = convolve_rows(
            tuple(plane[:, :, column + 1 :, column] for plane in a),
            tuple(
                np.broadcast_to(block[:, :, None], (limbs, batch, remaining, width))
                for block in inverse
            ),
            limbs,
        )
        # a[row][k] -= factor[row] * a[column][k] for every row > column and
        # every k >= column, with the rhs riding along as column n.
        span = n - column
        shape = (limbs, batch, remaining, span + 1, width)
        sources = [
            np.concatenate([plane_a[:, :, column, column:], plane_b[:, :, column, None]], axis=2)
            for plane_a, plane_b in zip(a, b)
        ]
        products = convolve_rows(
            tuple(np.broadcast_to(factor[:, :, :, None], shape) for factor in factors),
            tuple(np.broadcast_to(source[:, :, None], shape) for source in sources),
            limbs,
        )
        for plane_a, plane_b, product in zip(a, b, products):
            targets = np.concatenate(
                [plane_a[:, :, column + 1 :, column:], plane_b[:, :, column + 1 :, None]], axis=3
            )
            eliminated = np.stack(md_sub_rows(list(targets), list(product), limbs))
            plane_a[:, :, column + 1 :, column:] = eliminated[:, :, :, :span]
            plane_b[:, :, column + 1 :] = eliminated[:, :, :, span]

    # Back substitution: the products a[row][k] * x[k] of one row form in one
    # convolution, their subtraction from b[row] stays sequential (scalar
    # order, increasing k); pivot inverses are reused from elimination.
    x = tuple(np.zeros_like(plane) for plane in b)
    for row in range(n - 1, -1, -1):
        accumulator = tuple(list(plane[:, :, row]) for plane in b)
        later = n - 1 - row
        if later:
            products = convolve_rows(
                tuple(plane[:, :, row, row + 1 :] for plane in a),
                tuple(plane[:, :, row + 1 :] for plane in x),
                limbs,
            )
            for k in range(later):
                accumulator = tuple(
                    md_sub_rows(total, list(product[:, :, k]), limbs)
                    for total, product in zip(accumulator, products)
                )
        solved = convolve_rows(
            tuple(np.stack(total) for total in accumulator),
            tuple(plane[:, :, row] for plane in inverses),
            limbs,
        )
        for plane, block in zip(x, solved):
            plane[:, :, row] = block
    return x


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def solve_packed(matrix, rhs, limbs: int, active: Sequence[int] | None = None):
    """Solve packed systems with :func:`batch_lu_solve_tensor`.

    ``matrix``/``rhs`` are tuples of limb planes, one per ring component —
    the operands a resident :meth:`repro.core.EvalContext.newton_system`
    gathers; the result is a tuple of planes of the shape of ``rhs``.

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
        try:
            solved = solve_packed(
                tuple(plane[:, indices] for plane in matrix),
                tuple(plane[:, indices] for plane in rhs),
                limbs,
            )
        except SingularSystemError as error:
            raise _remapped(error, indices) from error
        out = tuple(np.zeros_like(plane) for plane in rhs)
        for plane, block in zip(out, solved):
            plane[:, indices] = block
        return out
    tel = _TELEMETRY
    t0 = tel.enabled and _perf_counter_ns()
    solved = batch_lu_solve_tensor(matrix, rhs, limbs)
    if t0:
        end = _perf_counter_ns()
        _, m, n, _, width = matrix[0].shape
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
    per instance.  Either way every singular instance is named by its batch
    position in one :class:`repro.errors.SingularSystemError`.

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
            raise _remapped(error, indices) from error
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
        solutions, singular = [], []
        for position, (matrix, rhs) in enumerate(zip(matrices, rhss)):
            try:
                solutions.append(lu_solve(matrix, rhs))
            except SingularSystemError:
                singular.append(position)
        if singular:
            raise _singular(singular)
        return solutions
    kind, limbs = ring
    width = flat_rhs[0].degree + 1
    matrix_tensor = SlotTensor.pack(flat_matrix, limbs=limbs, ring=kind)
    rhs_tensor = SlotTensor.pack(flat_rhs, limbs=limbs, ring=kind)
    solved = batch_lu_solve_tensor(
        tuple(plane.reshape(limbs, batch, n, n, width) for plane in matrix_tensor.planes),
        tuple(plane.reshape(limbs, batch, n, width) for plane in rhs_tensor.planes),
        limbs,
    )
    slots = SlotTensor(
        tuple(plane.reshape(limbs, batch * n, width) for plane in solved), kind
    ).to_slots()
    return [slots[b * n : (b + 1) * n] for b in range(batch)]
