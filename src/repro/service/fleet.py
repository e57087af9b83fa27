"""Coalesced Newton refinement on a pooled context.

This is the mid-flight merge of the solve service: ``k`` structurally
identical Newton requests (each with its *own* coefficient values) land in
one warm :class:`repro.core.EvalContext` of ``slab >= k`` lanes —

* :meth:`repro.core.EvalContext.rebind_fleet` rewrites each lane's system
  rows in place (the resident tensor and compiled program survive, so a warm
  context never repacks for repeat traffic);
* the ``slab - k`` unused lanes are padded and never refined: the one
  Newton iteration, :func:`repro.homotopy.newton.refine_lanes`, masks them
  out of every sweep and input update, and keeps shrinking the mask as
  lanes converge — short final batches waste no sweep work.

Because every tensor row operation is elementwise per instance and the
batched solver pivots per instance, each lane's result is **limb-for-limb
identical** to solving that request alone — the parity the service test
suite asserts, and the reason coalescing needs no accuracy caveats.  Rings
the tensor cannot carry (exact fractions) coalesce the same way through the
kernel's delegating branch.
"""

from __future__ import annotations

from typing import Sequence

from ..homotopy.newton import NewtonResult, refine_lanes
from ..homotopy.options import NewtonOptions

__all__ = ["coalesced_newton"]


def coalesced_newton(
    context,
    systems: Sequence,
    initials: Sequence[Sequence],
    options: NewtonOptions,
) -> list[NewtonResult]:
    """Refine ``k`` structurally identical systems in one masked fleet.

    ``context`` is a (possibly warm) :class:`repro.core.EvalContext` with
    ``batch >= k`` lanes; ``systems`` and ``initials`` carry one
    :class:`repro.homotopy.PolynomialSystem` and start vector per request.

    Returns one :class:`NewtonResult` per request.  A singular Newton system
    fails only its own lane (``result.singular``); the rest of the batch
    keeps solving.
    """
    k = len(systems)
    if k == 0:
        return []
    slab = context.batch
    if k > slab:
        raise ValueError(f"{k} requests do not fit a {slab}-lane context")
    evaluators = [system.evaluator for system in systems]
    context.rebind_fleet(evaluators + [evaluators[0]] * (slab - k))
    solutions = [[series.copy() for series in initial] for initial in initials]
    # Masked-out lanes still need well-formed input series for the one-time
    # pack; they reuse request 0's originals and are never swept or read.
    padding = [list(initials[0])] * (slab - k)
    return refine_lanes(context, solutions + padding, range(k), options)
