"""Branch-free, vectorised renormalisation of multiple-double limbs.

The scalar renormalisation in :mod:`repro.md.renorm` uses data-dependent
control flow (dropping zero error terms, variable-length expansions), which
is exactly what one cannot afford in SIMD/GPU code.  This module provides the
data-parallel alternative used by the row kernels of :mod:`repro.md.vecops`
at every limb count but 4 (quad doubles run the fixed sequences of
:mod:`repro.md.qd`, which end in VecSum sweeps of their own):

``vec_renormalize`` takes a list of ``m`` limb arrays whose elementwise sums
are the exact values to be represented, applies a fixed number of *VecSum
sweeps* (the distillation of Ogita, Rump and Oishi: chains of error-free
two-sums that concentrate the mass of the sum in the leading components
without ever losing a bit), and returns the leading ``k`` components.

Every sweep is error-free, so the only approximation is the truncation to the
first ``k`` components at the very end; with ``k + 2`` sweeps, the default for
arbitrary term lists, the discarded tail is far below the ulp of the last kept
limb, which the test suite verifies against the scalar oracle.

The double-double kernels of :mod:`repro.md.vecops` run two sweeps.  Ogita,
Rump and Oishi ("Accurate Sum and Dot Product", 2005) show that ``K - 1``
sweeps already give ``K``-fold accuracy, and the kernels' term lists (four
terms for an add, seven for a multiply) come from two renormalised operands:
on them the third and fourth sweep move no bit, neither on any benchmark
workload nor on the seeded corpora of ``tests/test_veft_vrenorm.py``, which
pin it.
"""

from __future__ import annotations

import numpy as np

from .veft import vec_two_sum

__all__ = ["vecsum_sweep", "vec_renormalize", "vec_renormalize_exact"]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repro.md.veft.vec_two_sum` on operands that are float64 arrays
    already: the same ufunc calls, without the per-call ``np.asarray``."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def vecsum_sweep(components: list[np.ndarray]) -> list[np.ndarray]:
    """One bottom-up VecSum pass over the component list (in place).

    After the pass, ``components[0]`` holds (elementwise) a floating-point
    approximation of the total and the later entries hold the accumulated
    rounding errors; the elementwise sum of the list is unchanged, exactly.
    The pass rebinds the list's entries to new arrays and writes into none.
    """
    components[:] = [np.asarray(c, dtype=np.float64) for c in components]
    _sweep(components)
    return components


def _sweep(components: list[np.ndarray]) -> None:
    """:func:`vecsum_sweep` over float64 arrays of one shape."""
    for i in range(len(components) - 2, -1, -1):
        components[i], components[i + 1] = _two_sum(components[i], components[i + 1])


def vec_renormalize(
    terms: list[np.ndarray],
    limbs: int,
    passes: int | None = None,
) -> list[np.ndarray]:
    """Round elementwise sums of ``terms`` to ``limbs`` multiple-double limbs.

    Parameters
    ----------
    terms:
        A list of arrays of identical shape; element ``x`` of the result
        represents ``sum(t[x] for t in terms)``.
    limbs:
        Number of output limbs ``k``.
    passes:
        Number of distillation sweeps.  ``None`` selects ``limbs + 2``, the
        default for arbitrary term lists, which is sufficient for faithful
        ``k``-fold results in practice (and is validated against the scalar
        implementation in the test suite).  The double-double row kernels
        pass 2 (see the module docstring).

    Returns
    -------
    list of ``limbs`` new arrays (leading limb first), same shape as the
    inputs.  The terms are not copied: the sweeps rebind list entries to new
    arrays and write into none, so no result aliases a term (a lone term,
    which no sweep touches, is copied).
    """
    if limbs < 1:
        raise ValueError(f"limbs must be >= 1, got {limbs}")
    if not terms:
        raise ValueError("vec_renormalize needs at least one term")
    work = [np.asarray(t, dtype=np.float64) for t in terms]
    shape = work[0].shape
    for t in work:
        if t.shape != shape:
            raise ValueError("all term arrays must share the same shape")
    if len(work) == 1:
        work[0] = work[0].copy()
    if passes is None:
        passes = limbs + 2
    passes = max(1, min(passes, len(work)))
    for _ in range(passes):
        _sweep(work)
    if len(work) < limbs:
        pad = [np.zeros(shape, dtype=np.float64) for _ in range(limbs - len(work))]
        return work + pad
    # Fold the discarded tail into the last kept limb so no mass is lost when
    # the tail still carries anything representable at this precision (a
    # rounded addition: the error of a two-sum here would be discarded too).
    if len(work) > limbs:
        tail = work[limbs]
        for extra in work[limbs + 1 :]:
            tail = tail + extra
        head = work[:limbs]
        head[limbs - 1] = head[limbs - 1] + tail
        # One final mini-sweep keeps the limbs ordered by magnitude.
        _sweep(head)
        return head
    return work


def _grow_expansion(
    expansion: list[np.ndarray], term: np.ndarray
) -> list[np.ndarray]:
    """Elementwise :func:`repro.md.renorm.grow_expansion` over slot arrays.

    The scalar version drops zero error terms, so expansions have
    data-dependent lengths; here every lane keeps a fixed slot per component
    and the dropped zeros simply stay behind as zero slots.  A zero slot is
    exactly transparent to a two-sum chain (``two_sum(q, ±0.0)`` passes ``q``
    through with a zero error), so the non-zero slot values match the scalar
    expansion components lane by lane, in the same order.
    """
    grown: list[np.ndarray] = []
    q = term
    for component in expansion:
        q, err = vec_two_sum(q, component)
        grown.append(err)
    grown.append(q)
    return grown


def vec_renormalize_exact(terms: list[np.ndarray], limbs: int) -> list[np.ndarray]:
    """Bit-exact elementwise replica of :func:`repro.md.renorm.renormalize`.

    :func:`vec_renormalize` distils with VecSum sweeps — faithful, and
    validated bit-compatible with the scalar Shewchuk renormalisation on the
    term lists the evaluation kernels produce, but a genuinely different
    accumulation order that can round the last limb differently on adversarial
    inputs (e.g. the near-binade products of a reciprocal's long division).
    This variant replays the scalar algorithm itself, elementwise: grow the
    exact non-overlapping expansion term by term, then repeatedly round the
    expansion to the next limb and subtract it exactly.

    The scalar code skips zero *terms* before growing; that branch is lane
    data-dependent, so here lanes with a zero term keep their previous
    expansion (plus one transparent zero slot) via a mask.  Zero *components*
    inside an expansion need no mask — they pass through every two-sum chain
    and every ordered accumulation unchanged.  A term that is zero in every
    lane is skipped outright, which is the same thing.  The cost is quadratic
    in the term count (against the sweeps' linear passes), which is why only
    the division/reciprocal kernels (the final quotient at every limb count,
    the steps at all but 4) and the resident Newton state
    (:mod:`repro.md.replica`, at all but 4 limbs) pay for it.
    """
    if limbs < 1:
        raise ValueError(f"limbs must be >= 1, got {limbs}")
    if not terms:
        raise ValueError("vec_renormalize_exact needs at least one term")
    work = [np.asarray(t, dtype=np.float64) for t in terms]
    shape = np.broadcast_shapes(*(t.shape for t in work))
    zero = np.zeros(shape, dtype=np.float64)
    expansion: list[np.ndarray] = []
    for term in work:
        if not term.any():
            continue
        term = np.broadcast_to(term, shape)
        grown = _grow_expansion(expansion, term)
        skip = term == 0.0
        expansion = [
            np.where(skip, old, new)
            for old, new in zip(expansion + [zero], grown)
        ]
    out: list[np.ndarray] = []
    for _ in range(limbs):
        total = zero
        for component in expansion:
            total = total + component
        out.append(total)
        # A zero limb only happens when every component is zero, in which case
        # growing by -0.0 leaves the all-zero expansion all zero — so the
        # scalar's "skip when the limb is zero" branch needs no mask here.
        expansion = _grow_expansion(expansion, -total)
    return out
