"""Coalesced Newton refinement on a pooled resident context.

This is the mid-flight merge of the solve service: ``k`` structurally
identical Newton requests (each with its *own* coefficient values) land in
one warm :class:`repro.core.EvalContext` of ``slab >= k`` lanes —

* :meth:`repro.core.EvalContext.rebind_fleet` rewrites each lane's system
  rows in place (the resident tensor and compiled program survive, so a warm
  context never repacks for repeat traffic);
* :meth:`repro.core.EvalContext.set_active` masks the ``slab - k`` unused
  lanes out of every sweep and input update, and keeps shrinking the mask as
  lanes converge — short final batches waste no sweep work;
* every iteration is the *exact* resident step of
  :func:`repro.homotopy.newton_power_series_batch`: one packed sweep,
  residual norms off the value rows, one batched elimination of the pending
  lanes (:func:`repro.homotopy.batch_linsolve.solve_packed`), corrections
  unpacked and added in series space.

Because every tensor row operation is elementwise per instance and the
batched solver pivots per instance, each lane's result is **limb-for-limb
identical** to solving that request alone — the parity the service test
suite asserts, and the reason coalescing needs no accuracy caveats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SingularSystemError
from ..homotopy.batch_linsolve import solve_packed
from ..homotopy.linsolve import residual_norm
from ..homotopy.newton import NewtonResult, NewtonStep
from ..homotopy.options import NewtonOptions

__all__ = ["coalesced_newton"]


def coalesced_newton(
    context,
    systems: Sequence,
    initials: Sequence[Sequence],
    options: NewtonOptions,
):
    """Refine ``k`` structurally identical systems in one masked fleet.

    ``context`` is a (possibly warm) :class:`repro.core.EvalContext` with
    ``batch >= k`` lanes; ``systems`` and ``initials`` carry one
    :class:`repro.homotopy.PolynomialSystem` and start vector per request.

    Returns ``(results, errors)``: one :class:`NewtonResult` per request
    (entries are ``None`` for lanes that failed), and a dict mapping failed
    request positions to their exception (singular Newton systems fail only
    their own lane; the rest of the batch keeps solving).  Returns
    ``(None, None)`` when the context cannot hold the batch resident (an
    unsupported ring fell back to delegation) — the caller should solve each
    request alone through the ordinary per-call path.
    """
    k = len(systems)
    if k == 0:
        return [], {}
    slab = context.batch
    if k > slab:
        raise ValueError(f"{k} requests do not fit a {slab}-lane context")
    evaluators = [system.evaluator for system in systems]
    context.rebind_fleet(evaluators + [evaluators[0]] * (slab - k))
    solutions = [[series.copy() for series in initial] for initial in initials]
    # Masked-out lanes still need well-formed input series for the one-time
    # pack; they reuse request 0's originals and are never swept or read.
    padding = [list(initials[0])] * (slab - k)
    results: list = [NewtonResult(solution=z) for z in solutions]
    errors: dict[int, Exception] = {}
    active = list(range(k))
    max_iterations = options.max_iterations
    tolerance = options.tolerance
    for iteration in range(1, max_iterations + 1):
        if not active:
            break
        context.set_active(np.asarray(active, dtype=np.int64))
        context.update_inputs(solutions + padding)
        if not context.resident:
            # The ring fell back (exact fractions, non-tensor mode): no
            # packed batch to merge into — the caller solves each request
            # through the per-call path instead.
            context.set_active(None)
            return None, None
        context.run_packed()
        norms = context.residual_norms()
        pending: list[tuple[int, float]] = []
        for index in active:
            residual = float(norms[index])
            result = results[index]
            if residual <= tolerance:
                result.steps.append(NewtonStep(iteration, residual, 0.0))
                result.converged = True
                continue
            pending.append((index, residual))
        active = []
        if not pending:
            break
        indices = [index for index, _ in pending]
        matrix, rhs = context.newton_system(indices)
        positions = list(range(len(indices)))
        corrections = None
        while positions:
            try:
                solution = solve_packed(
                    matrix, rhs, context.ring[1], active=positions
                )
            except SingularSystemError as error:
                singular = set(getattr(error, "instances", []) or positions)
                for position in sorted(singular):
                    index = indices[position]
                    failure = SingularSystemError(
                        f"singular Newton system for request {index}"
                    )
                    failure.instances = [index]
                    errors[index] = failure
                    results[index] = None
                positions = [p for p in positions if p not in singular]
                continue
            corrections = context.unpack_vectors(solution)
            break
        if corrections is None:
            continue
        # ``active``-masked solve_packed keeps the full batch shape; gather
        # the surviving positions' corrections back by original position.
        survivors = set(positions)
        for position, (index, residual) in enumerate(pending):
            if position not in survivors:
                continue
            correction = corrections[position]
            z = [
                current + delta
                for current, delta in zip(solutions[index], correction)
            ]
            solutions[index] = z
            result = results[index]
            result.solution = z
            result.steps.append(
                NewtonStep(iteration, residual, residual_norm(correction))
            )
            active.append(index)
    if active:
        # Lanes that ran out of iterations: one values-only masked sweep for
        # the final residual check, exactly as the batched driver does.
        context.set_active(np.asarray(active, dtype=np.int64))
        context.update_inputs(solutions + padding)
        context.run_packed()
        norms = context.residual_norms()
        for index in active:
            results[index].converged = float(norms[index]) <= tolerance
    context.set_active(None)
    return results, errors
