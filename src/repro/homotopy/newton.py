"""Newton's method on truncated power series.

This is the computational kernel of the robust path tracker that motivates
the paper: given a square polynomial system ``F`` and an approximation
``z(t)`` of a solution path (a vector of truncated power series), one Newton
step evaluates ``F(z)`` and its Jacobian ``J(z)`` — the job of this library's
evaluator — and solves ``J(z) * dz = -F(z)`` over the series ring.

Starting from the correct constant terms (the solution at ``t = 0``), every
Newton step doubles the number of correct series coefficients, so
``ceil(log2(d + 1))`` steps suffice for a series truncated at degree ``d``
— a property the test suite checks explicitly.

:func:`refine_lanes` is the one Newton iteration of the package:
:func:`newton_power_series_batch`, :func:`newton_power_series` (a batch of
one), the many-path scheduler and the solve service's coalesced flushes all
refine through it.  It evaluates through one resident
:class:`repro.core.EvalContext` held across *all* iterations: the fused slot
tensor is packed at most once, every later iteration updates only the input
slots of the lanes still refining, and the final residual check reads values
only.  Callers that run many refinements against structurally identical
systems (the path tracker) can pass their own ``context`` to keep even that
single pack amortised across steps.

On a resident context the Newton state itself stays resident too: the
iterates live as limb rows beside the tensor, the batched solve's output is
added to them in place, and the next input update reads them from there —
no iterate is unpacked into :class:`PowerSeries` and packed back.  The
addition replays ``PowerSeries.__add__`` on the scalars limb for limb
(:mod:`repro.md.replica`), so the row path and the object path of
delegating contexts and ``solver="scalar"`` return the same bits.  A
refined vector is handed back as :class:`repro.core.tensor.RowSeries`,
which builds its scalars when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..core.tensor import instance_norms
from ..errors import ConvergenceError, SingularSystemError, StagingError
from ..series.series import PowerSeries
from .batch_linsolve import solve_packed
from .linsolve import lu_solve, residual_norm
from .options import NewtonOptions
from .systems import PolynomialSystem

__all__ = [
    "NewtonStep",
    "NewtonResult",
    "newton_power_series",
    "newton_power_series_batch",
    "keeps_state",
    "refine_lanes",
]


@dataclass(frozen=True)
class NewtonStep:
    """Diagnostics of one Newton iteration.

    ``correction`` is the largest coefficient magnitude of the Newton
    correction: 0.0 on the step that met the tolerance, and NaN on the step
    whose linear system was singular.
    """

    iteration: int
    residual: float
    correction: float


@dataclass
class NewtonResult:
    """Outcome of one Newton refinement.

    ``singular`` is set when a Newton system of this refinement had a
    vanishing pivot; the refinement stopped there, and its last step records
    that iteration's residual.
    """

    solution: list[PowerSeries]
    steps: list[NewtonStep] = field(default_factory=list)
    converged: bool = False
    singular: bool = False

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_residual(self) -> float:
        return self.steps[-1].residual if self.steps else float("inf")


def _ensure_context(system: PolynomialSystem, batch: int, context):
    """Reuse a caller-held context when it fits, else make a fresh one.

    A context built for another batch size cannot be reused (the resident
    tensor is sized for its batch), and one built from a structurally
    different system cannot be rebound (homotopy builders may legitimately
    change the monomial structure along the path) — both get a fresh
    context.  A context from a structurally identical system (a path
    tracker's previous step) is rebound in place, which keeps its resident
    tensor.
    """
    if (
        context is None
        or context.batch != batch
        or context.evaluator._structure_key != system.evaluator._structure_key
    ):
        return system.make_context(batch)
    return context.rebind(system.evaluator)


def refine_lanes(
    context,
    solutions: list[list[PowerSeries] | None],
    lanes: Sequence[int],
    options: NewtonOptions,
) -> list[NewtonResult]:
    """Newton-refine the ``lanes`` of ``context`` in place: the one Newton loop.

    ``solutions`` holds one input vector per batch lane of ``context``; the
    entries of ``lanes`` are replaced by their refined vectors, and the
    other entries only fill the first pack.  Each iteration masks the
    context to the lanes still refining (:meth:`EvalContext.set_active`),
    updates their inputs and sweeps them once.  Then:

    * a **resident** context reads the residual norms off the value rows,
      solves every pending lane in one batched lead-matrix solve
      (:func:`repro.homotopy.batch_linsolve.solve_packed`) and adds the
      corrections to the lanes' Newton state rows
      (:meth:`EvalContext.apply_corrections`) — unless
      ``options.solver == "scalar"``.  The iterates never leave the rows: a
      refined vector comes back as :class:`repro.core.tensor.RowSeries`,
      whose scalars are built when first read.  An entry of ``solutions``
      may be ``None`` for a lane whose input is already its state there
      (:meth:`EvalContext.set_state`);
    * a **delegating** context (staged, reference, fraction), or any
      context under ``options.solver == "scalar"``, unpacks the sweep, calls
      :func:`repro.homotopy.lu_solve` per lane and adds ``z + dz`` as
      :class:`PowerSeries`; ``options.solver == "batched"`` raises
      :class:`repro.errors.StagingError` here instead.

    The two are bit-identical.  A lane whose Newton system is singular drops
    out with ``singular=True`` while the others keep solving.  Lanes still
    pending after ``options.max_iterations`` get one values-only residual
    check.  ``options.mode`` and ``options.raise_on_failure`` are applied by
    the callers, not here.  The active mask is cleared on every exit.

    Returns one :class:`NewtonResult` per entry of ``lanes``, in order.
    """
    results = {lane: NewtonResult(solution=solutions[lane]) for lane in lanes}
    tolerance = options.tolerance
    pending = list(results)
    try:
        for iteration in range(1, options.max_iterations + 1):
            if not pending:
                break
            resident = _load(context, solutions, pending, options)
            residuals, evaluations = _sweep(context, pending, resident)
            unsolved = []
            for lane, residual in zip(pending, residuals):
                if residual <= tolerance:
                    results[lane].steps.append(NewtonStep(iteration, residual, 0.0))
                    results[lane].converged = True
                else:
                    unsolved.append((lane, residual))
            norms = _correct(context, solutions, [lane for lane, _ in unsolved], evaluations)
            pending = []
            for (lane, residual), norm in zip(unsolved, norms):
                result = results[lane]
                if norm is None:
                    result.steps.append(NewtonStep(iteration, residual, math.nan))
                    result.singular = True
                    continue
                result.solution = solutions[lane]
                result.steps.append(NewtonStep(iteration, residual, norm))
                pending.append(lane)
        if pending:
            resident = _load(context, solutions, pending, options)
            residuals, _ = _sweep(context, pending, resident, values_only=True)
            for lane, residual in zip(pending, residuals):
                results[lane].converged = residual <= tolerance
    finally:
        context.set_active(None)
    in_rows = [lane for lane in results if solutions[lane] is None]
    if in_rows:
        for lane, vector in zip(in_rows, context.state_vectors(in_rows)):
            solutions[lane] = results[lane].solution = vector
    return list(results.values())


def keeps_state(context, options: NewtonOptions) -> bool:
    """True when :func:`refine_lanes` keeps the Newton state of ``context``'s
    lanes in its limb rows (a resident context, batched solves)."""
    return context.resident and options.solver != "scalar"


def _load(context, solutions, lanes: list[int], options: NewtonOptions) -> bool:
    """Mask ``context`` to ``lanes`` and load their inputs; return whether
    the sweep and solve run resident (known only once the first load packs)."""
    context.set_active(None if len(lanes) == context.batch else lanes)
    context.update_inputs(solutions)
    if options.solver == "batched" and not context.resident:
        raise StagingError(
            "solver='batched' needs a tensor-resident context; this one "
            "delegates (a staged, reference or fraction context) — use "
            "solver='auto' or 'scalar'"
        )
    return keeps_state(context, options)


def _sweep(context, lanes: list[int], resident: bool, values_only: bool = False):
    """One sweep: the residual norms of ``lanes`` and, when delegating, the
    evaluations their scalar solves need (``None`` when resident)."""
    if resident:
        context.run_packed()
        norms = context.residual_norms()
        return [float(norms[lane]) for lane in lanes], None
    evaluations = context.run(values_only=values_only)
    return [residual_norm([e.value for e in evaluations[lane]]) for lane in lanes], evaluations


def _correct(context, solutions, lanes: list[int], evaluations) -> list:
    """Solve ``J dz = -F`` for ``lanes`` and add ``dz`` to their solutions.

    Returns one correction norm per lane, ``None`` for a lane whose system
    is singular.  Resident lanes are corrected in the context's state rows,
    and their ``solutions`` entries become ``None``.
    """
    if not lanes:
        return []
    if evaluations is not None:
        norms = []
        for lane in lanes:
            rows = evaluations[lane]
            try:
                delta = lu_solve([list(e.gradient) for e in rows], [-e.value for e in rows])
            except SingularSystemError:
                norms.append(None)
                continue
            solutions[lane] = [z + dz for z, dz in zip(solutions[lane], delta)]
            norms.append(residual_norm(delta))
        return norms
    matrix, rhs = context.newton_system(lanes)
    solving = list(range(len(lanes)))
    while solving:
        try:
            mask = None if len(solving) == len(lanes) else solving
            solution = solve_packed(matrix, rhs, context.ring[1], active=mask)
            break
        except SingularSystemError as error:
            singular = set(getattr(error, "instances", []))
            if not singular:
                raise
            solving = [k for k in solving if k not in singular]
    else:
        return [None] * len(lanes)
    planes = solution if len(solving) == len(lanes) else tuple(plane[:, solving] for plane in solution)
    corrected = [lanes[k] for k in solving]
    context.apply_corrections(corrected, planes)
    for lane in corrected:
        solutions[lane] = None
    norms = instance_norms(solution)
    solved = set(solving)
    return [float(norms[k]) if k in solved else None for k in range(len(lanes))]


def newton_power_series_batch(
    system: PolynomialSystem,
    initials: Sequence[Sequence[PowerSeries]],
    *,
    context=None,
    options: NewtonOptions | None = None,
) -> list[NewtonResult]:
    """Refine several power-series solutions of ``system`` in one batched sweep.

    The throughput shape of the paper's motivating application: many
    independent solution paths, one wide launch sequence, with the data
    resident across steps.  The instances are the lanes of one context and
    refine through :func:`refine_lanes`: the slot tensor packs once, and on
    a resident context all pending instances solve in one batched
    lead-matrix solve — bit-identical to per-instance :func:`lu_solve` at
    double-double precision, and at quad-double precision in the real ring.

    All knobs travel in one :class:`repro.homotopy.options.NewtonOptions`
    (``options=``, default ``NewtonOptions()``).  ``options.mode``
    re-targets the system's execution mode for this refinement (``None``
    keeps the system's own mode).  ``options.solver`` picks the linear-solve
    path: ``"auto"`` (default) uses the batched tensor solver whenever the
    context is resident and the scalar oracle otherwise, ``"scalar"`` forces
    per-instance :func:`lu_solve`, and ``"batched"`` requires residency,
    raising :class:`repro.errors.StagingError` when the context delegates.
    ``context`` optionally supplies a caller-held context (the path tracker
    shares one across its steps); it must match the batch size, otherwise a
    fresh context is created.

    Returns one :class:`NewtonResult` per initial vector, in order.  A
    singular Newton system stops only its own instance; once every instance
    is done, :class:`repro.errors.SingularSystemError` is raised with
    ``.instances`` naming each singular one.  With
    ``options.raise_on_failure`` a :class:`repro.errors.ConvergenceError` is
    raised when any instance misses the tolerance.
    """
    options = options or NewtonOptions()
    system = system.with_mode(options.mode)
    if not system.is_square:
        raise ConvergenceError(
            f"Newton needs a square system, got {system.n_equations} equations "
            f"in {system.dimension} variables"
        )
    if not initials:
        return []
    solutions = [[series.copy() for series in initial] for initial in initials]
    context = _ensure_context(system, len(solutions), context)
    results = refine_lanes(context, solutions, range(len(solutions)), options)
    singular = [i for i, result in enumerate(results) if result.singular]
    if singular:
        error = SingularSystemError(
            "singular Newton system for batch instance(s) " + ", ".join(map(str, singular))
        )
        error.instances = singular
        raise error
    if options.raise_on_failure:
        failed = [i for i, result in enumerate(results) if not result.converged]
        if failed:
            raise ConvergenceError(
                f"Newton did not reach tolerance {options.tolerance} in "
                f"{options.max_iterations} iterations for instances {failed}"
            )
    return results


def newton_power_series(
    system: PolynomialSystem,
    initial: Sequence[PowerSeries],
    *,
    context=None,
    options: NewtonOptions | None = None,
) -> NewtonResult:
    """Refine a power-series solution of ``system`` by Newton iteration.

    :func:`newton_power_series_batch` with one instance: the answer equals
    its lane 0, and so do the errors it raises.

    Parameters
    ----------
    system:
        A square system (as many equations as variables).
    initial:
        Starting series; the constant terms should solve the system at
        ``t = 0`` for the textbook quadratic convergence, but the iteration
        is run regardless.
    context:
        An optional resident :class:`repro.core.EvalContext` (batch 1) to
        evaluate through — the path tracker passes one so consecutive steps
        share a single packed tensor.  Without one, a context is created
        for this refinement, so the whole iteration still packs only once.
    options:
        A :class:`repro.homotopy.options.NewtonOptions` carrying the
        iteration bound, the residual tolerance (largest coefficient of
        ``F(z)`` rounded to a double), the failure policy
        (:class:`repro.errors.ConvergenceError` on a missed tolerance when
        ``raise_on_failure`` is set), the solver and the mode.  Defaults to
        ``NewtonOptions()``.
    """
    return newton_power_series_batch(system, [initial], context=context, options=options)[0]
