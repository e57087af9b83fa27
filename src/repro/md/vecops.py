"""Whole-array multiple-double arithmetic on limb-component lists.

The paper keeps every part of a multiple double in its own array, so that
consecutive GPU threads touch consecutive memory.  The tensorized execution
backend (:mod:`repro.core.tensor`), which the ``vectorized`` and ``gpu``
modes run, keeps that layout over *arbitrarily shaped* limb components —
e.g. a whole fused layer of series products at once, where one component
row is a ``(jobs x batch, degree + 1)`` matrix.

The functions here are its arithmetic: each operand is a sequence of ``k``
NumPy arrays (leading limb first) of a common, broadcast-compatible shape,
and each result is a list of ``k`` arrays holding the renormalised
multiple-double outcome.  They are built from branch-free error-free
transformations (:mod:`repro.md.veft`) and VecSum distillation
(:mod:`repro.md.vrenorm`); with ``limbs == 1`` they collapse to plain
double arithmetic (the error terms of an EFT round away in one-limb
renormalisation), which keeps the float ring on the fast path.

Double doubles renormalise the term lists of add, sub, mul and scale with two
VecSum sweeps (``_DD_PASSES``), every other limb count with ``limbs + 2``.
On the dd kernels' inputs the third and fourth sweep move no bit (pinned in
``tests/test_veft_vrenorm.py``), and without them a dd add costs 44 double
operations instead of 85 and a multiply 135 instead of 212, against QD's 20
and 32 (:data:`repro.md.opcounts.PAPER_OPCOUNTS`).  Quad doubles keep six:
on the path-tracking fleet's data an add needs four and a multiply five.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .veft import vec_two_prod
from .vrenorm import vec_renormalize, vec_renormalize_exact

__all__ = [
    "md_add_rows",
    "md_sub_rows",
    "md_mul_rows",
    "md_scale_rows",
    "md_div_rows",
    "md_reciprocal_rows",
]


#: VecSum sweeps for the double-double term lists of add, sub, mul and scale
_DD_PASSES = 2


def _broadcast(components: Sequence[np.ndarray], shape) -> list[np.ndarray]:
    """Broadcast every limb component to the common result shape (if not already)."""
    return [c if np.shape(c) == shape else np.broadcast_to(c, shape) for c in components]


def _renormalize(terms: list[np.ndarray], limbs: int) -> list[np.ndarray]:
    """:func:`vec_renormalize` with the kernels' sweep count."""
    return vec_renormalize(terms, limbs, _DD_PASSES if limbs == 2 else None)


def md_add_rows(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], limbs: int
) -> list[np.ndarray]:
    """Elementwise multiple-double sum of two limb-component sequences."""
    if limbs == 1:
        return [np.asarray(a[0], dtype=np.float64) + b[0]]
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    return _renormalize(_broadcast(a, shape) + _broadcast(b, shape), limbs)


def md_sub_rows(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], limbs: int
) -> list[np.ndarray]:
    """Elementwise multiple-double difference of two limb-component sequences.

    Negating every limb of ``b`` is exact, so the difference distils through
    the same VecSum sweep as :func:`md_add_rows` — which is also exactly what
    the scalar :meth:`repro.md.MultiDouble.__sub__` does, keeping the two
    stacks bit-compatible.
    """
    if limbs == 1:
        return [np.asarray(a[0], dtype=np.float64) - b[0]]
    negated = [-np.asarray(row, dtype=np.float64) for row in b]
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    return _renormalize(_broadcast(a, shape) + _broadcast(negated, shape), limbs)


def md_mul_rows(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], limbs: int
) -> list[np.ndarray]:
    """Elementwise multiple-double product of two limb-component sequences.

    Exact partial products are kept for the significant diagonals
    (``i + j < limbs`` via :func:`repro.md.veft.vec_two_prod`, the
    ``i + j == limbs`` diagonal as a plain product); deeper diagonals fall
    below the ulp of the last limb.  At dd that is seven terms: three exact
    products (17 double operations each) and one plain one, then two VecSum
    sweeps of six two-sums each, the tail fold and one closing two-sum, 135
    double operations in all (212 with ``limbs + 2`` = 4 sweeps).
    """
    if limbs == 1:
        return [np.asarray(a[0], dtype=np.float64) * b[0]]
    terms: list[np.ndarray] = []
    for i in range(limbs):
        for j in range(limbs):
            if i + j < limbs:
                p, e = vec_two_prod(a[i], b[j])
                terms.append(p)
                terms.append(e)
            elif i + j == limbs:
                terms.append(np.asarray(a[i], dtype=np.float64) * b[j])
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    return _renormalize(_broadcast(terms, shape), limbs)


def md_div_rows(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], limbs: int
) -> list[np.ndarray]:
    """Elementwise multiple-double quotient of two limb-component sequences.

    This is the whole-array form of the long division in
    :func:`repro.md.multidouble._divide`, replayed *bit for bit*: every step
    divides the leading remainder limb by the leading denominator limb, forms
    the exact partial products of ``denominator * q`` in the scalar
    ``__mul__`` term order, and renormalises products, remainders and the
    final ``limbs + 1`` quotient limbs through
    :func:`repro.md.vrenorm.vec_renormalize_exact` — the elementwise replica
    of the scalar Shewchuk renormalisation.  (The sweep-based
    :func:`vec_renormalize` can round a reciprocal's near-binade products
    differently in the last limb, so division is the one kernel that pays for
    the exact expansion arithmetic.)  The scalar loop breaks early once a
    quotient limb rounds to zero; the fixed iteration count here is
    equivalent, because a zero quotient limb implies an exactly zero
    remainder, which keeps producing zero quotient limbs, and zero terms are
    transparent to the exact renormalisation.

    Denominators must have a non-zero leading limb (callers check pivots
    before inverting); elements that do not produce IEEE infinities where the
    scalar path would raise.
    """
    if limbs == 1:
        return [np.asarray(a[0], dtype=np.float64) / b[0]]
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    remainder = _broadcast([np.asarray(x, dtype=np.float64) for x in a], shape)
    den = _broadcast([np.asarray(x, dtype=np.float64) for x in b], shape)
    quotients: list[np.ndarray] = []
    for step in range(limbs + 1):
        quotients.append(remainder[0] / den[0])
        if step == limbs:
            break
        q = quotients[-1]
        # denominator * MultiDouble.from_float(q): only the leading limb of
        # the single-limb factor contributes, every diagonal stays exact.
        product_terms: list[np.ndarray] = []
        for component in den:
            p, e = vec_two_prod(component, q)
            product_terms.append(p)
            product_terms.append(e)
        product = vec_renormalize_exact(product_terms, limbs)
        remainder = vec_renormalize_exact(
            list(remainder) + [-component for component in product], limbs
        )
    return vec_renormalize_exact(quotients, limbs)


def md_reciprocal_rows(b: Sequence[np.ndarray], limbs: int) -> list[np.ndarray]:
    """Elementwise multiple-double reciprocal ``1 / b``.

    The scalar series code computes reciprocals as ``(b/b) / b``
    (:func:`repro.series.series._reciprocal`); for real multiple doubles the
    inner ``b/b`` is *exactly* one (the first long-division step divides the
    leading limb by itself and leaves a zero remainder), so one
    :func:`md_div_rows` from an exact unit reproduces the scalar result bit
    for bit.  With ``limbs == 1`` this collapses to the plain double
    reciprocal, matching the float-ring scalar path (``b/b == 1.0`` exactly).
    """
    if limbs == 1:
        return [1.0 / np.asarray(b[0], dtype=np.float64)]
    shape = np.shape(b[0])
    one = [np.ones(shape, dtype=np.float64)] + [
        np.zeros(shape, dtype=np.float64)
    ] * (limbs - 1)
    return md_div_rows(one, b, limbs)


def md_scale_rows(
    a: Sequence[np.ndarray], factor: np.ndarray, limbs: int
) -> list[np.ndarray]:
    """Multiply limb components by a plain-double factor array, exactly.

    Every limb-times-factor product is split into product and error with one
    error-free transformation before renormalising, so integer scale factors
    (the exponent jobs of the schedules) cost no accuracy.
    """
    if limbs == 1:
        return [np.asarray(a[0], dtype=np.float64) * factor]
    terms: list[np.ndarray] = []
    for row in a:
        p, e = vec_two_prod(row, factor)
        terms.append(p)
        terms.append(e)
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(factor))
    return _renormalize(_broadcast(terms, shape), limbs)
