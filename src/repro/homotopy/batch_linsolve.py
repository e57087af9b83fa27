"""The lead-matrix series solve, batched on packed limb tensors.

Scalar :func:`repro.homotopy.lu_solve` solves one system one ring
operation at a time — once the evaluation sweeps run on the tensorized
NumPy backend, that Python-level solve is the dominant cost of a batched
Newton step.  This module runs the same algorithm on whole arrays: the
matrices and right-hand sides of *all* batch instances live in one
``(limbs, batch, n, n, degree+1)`` limb tensor per plane — one plane for the
real rings, the real and imaginary planes for the complex ones (the
:mod:`repro.md.cvecops` layout) — and every step is a handful of
whole-array multiple-double row operations, never a per-instance Python
loop.  The driver is written once over tuples of planes: the ring's
multiply, reciprocal and pivot magnitude come from the ring table of
:mod:`repro.core.tensor`, and additions and subtractions run plane by plane.

The algorithm is the scalar one, operation for operation (see
:mod:`repro.homotopy.linsolve`):

* the lead matrix ``A_0`` of every instance is factored with partial
  pivoting by constant-term magnitude, one ``np.argmax`` per column (first
  maximum wins, like Python's ``max``), and ``A_0^{-1}`` is formed by
  elimination on ``[A_0 | I]`` and back substitution;
* then for every coefficient ``k`` the ``n^2 k`` products
  ``A_i[row, j] * x_{k-i}[j]`` of all instances form in one ring multiply,
  their sums over ``(j, i)`` run as a pairwise tree of one row addition per
  level, one subtraction takes them from ``b_k``, and one multiply and one
  tree apply ``A_0^{-1}``.  A real 6x6 degree-15 solve makes 52 multiplies,
  135 additions, 35 subtractions and 6 divisions, whatever the batch;
* row operations are elementwise, so stacking moves no bit, and the trees
  and sequential sums follow the scalar order, so for multiple-double rings
  at **double-double** precision, and in the real ring at **quad-double**
  precision (whose add and multiply are one fixed sequence in both solvers,
  :mod:`repro.md.qd`), the results are bit-identical to per-instance
  :func:`lu_solve` — the parity the test suite asserts limb by limb.  Other
  precisions and one-limb rings agree to rounding (the vectorised
  renormalisation of 3, 5, 8 and 10 limbs is faithful, not bit-reproducing;
  plain-complex division uses the naive formula where Python uses Smith's
  algorithm).  Complex rings can differ in the last limb once a
  unit-circle entry is a pivot candidate: *selection* compares ``|z|`` of
  collapsed doubles, not the scalar multidouble ``sqrt``, so two candidates
  tied within one ulp may pick different rows, and at double doubles the
  reciprocal's ``|b|^2`` lands just above 1.0, where the sweep
  renormalisation can round differently from the scalar one.

Singular instances raise one :class:`repro.errors.SingularSystemError`
naming every failing batch position (``exc.instances``); a non-square input
is a usage error and raises :class:`ValueError`, exactly like the scalar
solver.  The solver runs with NumPy's floating-point warnings off
(:func:`repro.core.tensor.quiet_fp`): a diverged instance computes NaNs and
infinities silently instead of failing its batch through a warning filter.
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_counter_ns
from typing import Sequence

import numpy as np

from ..core.tensor import _RING_OPS, SlotTensor, infer_ring, quiet_fp
from ..errors import SingularSystemError
from ..md.vecops import md_add_rows, md_sub_rows
from ..obs import get_telemetry
from ..series.series import PowerSeries
from .linsolve import lu_solve

__all__ = [
    "batch_lu_solve",
    "batch_lu_solve_tensor",
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
# shared helpers
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


def _singular(instances: Sequence[int]) -> SingularSystemError:
    """The error naming every singular batch position in ``instances``."""
    error = SingularSystemError(
        "zero pivot for batch instance(s) " + ", ".join(map(str, instances))
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


def _tree_sum(terms: tuple, limbs: int) -> tuple[np.ndarray, ...]:
    """Sum the last axis of the planes ``terms`` in the pairwise tree of
    :func:`repro.homotopy.linsolve._tree_sum`: one row addition per level
    and plane, pairs ``(0, 1), (2, 3), ...``, an odd last term carried."""
    while terms[0].shape[-1] > 1:
        count = terms[0].shape[-1]
        paired = tuple(
            np.stack(md_add_rows(list(plane[..., 0 : count - 1 : 2]), list(plane[..., 1::2]), limbs))
            for plane in terms
        )
        if count % 2:
            paired = tuple(np.concatenate([p, plane[..., -1:]], axis=-1) for p, plane in zip(paired, terms))
        terms = paired
    return tuple(plane[..., 0] for plane in terms)


def _lead_inverse(lead: tuple, limbs: int) -> tuple[np.ndarray, ...]:
    """``A_0^{-1}`` of every instance of the ``(limbs, batch, n, n)`` planes
    ``lead``, in the operation order of the scalar solver's factorisation.

    Raises one :class:`repro.errors.SingularSystemError` naming every
    instance with a zero pivot in any column.
    """
    ring = _RING_OPS[len(lead)]
    a = tuple(np.array(plane) for plane in lead)
    b = tuple(np.zeros_like(plane) for plane in lead)
    _, batch, n, _ = a[0].shape
    b[0][0] = np.eye(n)
    inverses, singular = [], set()
    for column in range(n):
        # One argmax per instance; the ring's magnitude of the collapsed
        # limbs is exactly the scalar code's, and ties break to the first
        # row in both stacks.
        magnitudes = ring.magnitude(tuple(plane[:, :, column:, column] for plane in a))
        relative = np.argmax(magnitudes, axis=1)
        singular.update(np.nonzero(magnitudes[np.arange(batch), relative] == 0.0)[0].tolist())
        for plane_a, plane_b in zip(a, b):
            _swap_rows(plane_a, plane_b, column, relative + column)
        inverse = ring.reciprocal(tuple(list(plane[:, :, column, column]) for plane in a), limbs)
        inverses.append(tuple([limb[:, None] for limb in plane] for plane in inverse))
        if column == n - 1:
            continue
        # a[row][k] -= factor * a[column][k] for every row and k > column,
        # with the rows of b riding along as further columns.
        factors = ring.mul(
            tuple(list(plane[:, :, column + 1 :, column]) for plane in a), inverses[column], limbs
        )
        sources = tuple(
            np.concatenate([plane_a[:, :, column, column + 1 :], plane_b[:, :, column]], axis=2)
            for plane_a, plane_b in zip(a, b)
        )
        products = ring.mul(
            tuple([limb[:, :, None] for limb in plane] for plane in factors),
            tuple(list(source[:, :, None]) for source in sources),
            limbs,
        )
        span = n - column - 1
        for plane_a, plane_b, product in zip(a, b, products):
            targets = np.concatenate([plane_a[:, :, column + 1 :, column + 1 :], plane_b[:, :, column + 1 :]], axis=3)
            updated = np.stack(md_sub_rows(list(targets), product, limbs))
            plane_a[:, :, column + 1 :, column + 1 :] = updated[..., :span]
            plane_b[:, :, column + 1 :] = updated[..., span:]
    if singular:
        raise _singular(sorted(singular))
    # Back substitution of all n columns: a row's products a[row][k] * x[k]
    # form in one multiply, their subtraction stays sequential (increasing k).
    x = tuple(np.zeros_like(plane) for plane in b)
    for row in range(n - 1, -1, -1):
        accumulator = tuple(list(plane[:, :, row]) for plane in b)
        if row < n - 1:
            products = ring.mul(
                tuple(list(plane[:, :, row, row + 1 :, None]) for plane in a),
                tuple(list(plane[:, :, row + 1 :]) for plane in x),
                limbs,
            )
            for k in range(n - 1 - row):
                accumulator = tuple(
                    md_sub_rows(total, [limb[:, k] for limb in product], limbs)
                    for total, product in zip(accumulator, products)
                )
        for plane, solved in zip(x, ring.mul(accumulator, inverses[row], limbs)):
            plane[:, :, row] = np.stack(solved)
    return x


# --------------------------------------------------------------------- #
# the batched solver
# --------------------------------------------------------------------- #
@quiet_fp
def batch_lu_solve_tensor(
    matrix: Sequence[np.ndarray], rhs: Sequence[np.ndarray], limbs: int
) -> tuple[np.ndarray, ...]:
    """Solve many series systems in one whole-tensor lead-matrix solve.

    ``matrix`` is a tuple of ``(limbs, batch, n, n, degree+1)`` limb planes
    (instance ``b``, row ``i``, column ``j``) and ``rhs`` a tuple of
    ``(limbs, batch, n, degree+1)`` planes: one plane each for a real ring,
    the real and imaginary planes for a complex one.  The result is a tuple
    of planes of the shape of ``rhs`` holding the per-instance solutions.
    The inputs are not modified.
    """
    a = tuple(np.asarray(plane, dtype=np.float64) for plane in matrix)
    b = tuple(np.asarray(plane, dtype=np.float64) for plane in rhs)
    _, batch, n, _, width = _check_shapes(a, b)
    ring = _RING_OPS[len(a)]
    inverse = tuple(list(plane) for plane in _lead_inverse(tuple(plane[..., 0] for plane in a), limbs))
    x = tuple(np.zeros(plane.shape) for plane in b)
    for k in range(width):
        residual = tuple(list(plane[..., k]) for plane in b)
        if k:
            # products[row, j, i - 1] = A_i[row, j] * x_{k-i}[j], summed over
            # (j, i) with j major.
            products = ring.mul(
                tuple(list(plane[..., 1 : k + 1]) for plane in a),
                tuple(list(plane[:, :, None, :, k - 1 :: -1]) for plane in x),
                limbs,
            )
            sums = _tree_sum(tuple(np.stack(p).reshape(limbs, batch, n, n * k) for p in products), limbs)
            residual = tuple(md_sub_rows(r, list(total), limbs) for r, total in zip(residual, sums))
        products = ring.mul(inverse, tuple([limb[:, None] for limb in r] for r in residual), limbs)
        for plane, column in zip(x, _tree_sum(tuple(np.stack(p) for p in products), limbs)):
            plane[..., k] = column
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
    instances: only their systems are gathered and solved, the rest of
    the result stays exactly zero (shape-preserving, so callers can keep
    indexing by original instance).  Singular instances are reported by
    their *original* batch positions.  Because every row operation is
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
    promoting losslessly), runs the batched solve, and scatters the
    solutions back — for tensor-resident rings at double-double precision,
    and for real quad doubles, the per-instance results are bit-identical to
    scalar :func:`lu_solve`.  Rings
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
