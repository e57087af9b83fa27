"""Elementwise replicas of the scalar ring operators, exact by construction.

The row kernels of :mod:`repro.md.vecops` renormalise with VecSum sweeps:
fast, and validated against :class:`repro.md.MultiDouble` on the term lists
the evaluation kernels produce, but a different algorithm from the scalar
Shewchuk :func:`repro.md.renorm.renormalize`.  The resident Newton state of
:class:`repro.core.EvalContext` has to reproduce the scalar object path bit
for bit instead — a last-bit difference can decide whether a stiff path
converges — so the few operations it runs on limb rows are replayed here
operator by operator:

* every renormalisation is :func:`repro.md.vrenorm.vec_renormalize_exact`,
  the elementwise replica of ``renormalize``;
* every operand is renormalised where the scalar operator renormalises it:
  ``MultiDouble`` renormalises both multiple-double operands of a binary
  operation, ``ComplexMD``'s constructor both parts of every result.
  ``renormalize`` is not idempotent, so each of these steps can move a last
  bit;
* an operand that is not a scalar of the ring (a plain ``float`` meeting a
  ``MultiDouble``) is coerced the way the scalar operator coerces it, and
  takes the operand order of that operator's branch;
* zero partial products are dropped where ``MultiDouble.__mul__`` skips
  them, and the huge-operand branch of :func:`repro.md.eft.split` is kept.

A value is a tuple of planes — one for the real rings (``"float"``,
``"md"``), ``(real, imag)`` for the complex ones (``"complex"``, ``"cmd"``) —
and each plane is a list of limb arrays, leading limb first.  The one-limb
``"float"`` and ``"complex"`` rings are plain IEEE arithmetic, which is what
Python's ``float`` and ``complex`` compute.  The public functions take and
return stacked limb planes (leading axis = limbs) and run with NumPy's
floating-point warnings off: the scalar operators turn an infinity or a NaN
into NaNs silently, and so do these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .eft import SPLITTER, _SPLIT_SCALE_DOWN, _SPLIT_SCALE_UP, _SPLIT_THRESHOLD
from .vrenorm import vec_renormalize_exact

__all__ = ["as_scalars", "series_add", "series_constant", "series_evaluate"]

#: A ring: ``(kind, limbs)``, as :func:`repro.core.tensor.infer_ring` reports it.
Ring = tuple[str, int]


# --------------------------------------------------------------------- #
# multiple-double operators (lists of limb arrays)
# --------------------------------------------------------------------- #
def _renormalize(terms: list, limbs: int) -> list:
    return vec_renormalize_exact(terms, limbs)


def _split(a):
    """:func:`repro.md.eft.split` elementwise, rescaling branch included."""
    big = (a > _SPLIT_THRESHOLD) | (a < -_SPLIT_THRESHOLD)
    scaled = np.where(big, a * _SPLIT_SCALE_DOWN, a)
    temp = SPLITTER * scaled
    hi = temp - (temp - scaled)
    lo = scaled - hi
    return np.where(big, hi * _SPLIT_SCALE_UP, hi), np.where(big, lo * _SPLIT_SCALE_UP, lo)


def _two_prod(a, b):
    """:func:`repro.md.eft.two_prod` elementwise."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _md_add(a: list, b: list, limbs: int) -> list:
    """``MultiDouble.__add__`` of two multiple doubles."""
    return _renormalize(_renormalize(a, limbs) + _renormalize(b, limbs), limbs)


def _md_sub(a: list, b: list, limbs: int) -> list:
    """``MultiDouble.__sub__`` of two multiple doubles."""
    return _renormalize(
        _renormalize(a, limbs) + [-x for x in _renormalize(b, limbs)], limbs
    )


def _md_add_plain(a: list, x: list, limbs: int) -> list:
    """``MultiDouble.__add__`` with a plain operand ``x``: ``a`` as it is,
    ``x`` coerced (``_coerce_limbs``), in that order."""
    return _renormalize(a + _renormalize(x, limbs), limbs)


def _md_mul(a: list, b: list, limbs: int) -> list:
    """``MultiDouble.__mul__`` of two multiple doubles.

    The partial products come in the scalar order; one whose factor is zero
    becomes a zero term, which the exact renormalisation skips just as the
    scalar loop skips the product.
    """
    a = _renormalize(a, limbs)
    b = _renormalize(b, limbs)
    terms = []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j > limbs:
                continue
            live = (ai != 0.0) & (bj != 0.0)
            if i + j < limbs:
                p, e = _two_prod(ai, bj)
                terms.append(np.where(live, p, 0.0))
                terms.append(np.where(live, e, 0.0))
            else:
                terms.append(np.where(live, ai * bj, 0.0))
    return _renormalize(terms, limbs)


# --------------------------------------------------------------------- #
# ring operators (tuples of planes)
# --------------------------------------------------------------------- #
def _add(a: tuple, b: tuple, ring: Ring) -> tuple:
    """``a + b`` for two scalars of the ring."""
    kind, limbs = ring
    if kind in ("float", "complex"):
        return tuple([pa[0] + pb[0]] for pa, pb in zip(a, b))
    if kind == "md":
        return (_md_add(a[0], b[0], limbs),)
    return tuple(
        _renormalize(_md_add(pa, pb, limbs), limbs) for pa, pb in zip(a, b)
    )


def _add_plain(a: tuple, x: tuple, ring: Ring) -> tuple:
    """``a + x`` (and ``x + a``) for a scalar ``a`` of the ring and a plain
    operand ``x`` — a float, or for complex rings any real or complex
    non-``ComplexMD`` value — given as planes zero-extended into the ring."""
    kind, limbs = ring
    if kind in ("float", "complex"):
        return tuple([pa[0] + px[0]] for pa, px in zip(a, x))
    if kind == "md":
        return (_md_add_plain(a[0], x[0], limbs),)
    # ComplexMD._coerce rounds each part into the precision, and the sum's
    # constructor renormalises each part once more.
    return tuple(
        _renormalize(_md_add(pa, _renormalize(px, limbs), limbs), limbs)
        for pa, px in zip(a, x)
    )


def _mul(a: tuple, b: tuple, ring: Ring) -> tuple:
    """``a * b`` for two scalars of the ring."""
    kind, limbs = ring
    if kind == "float":
        return ([a[0][0] * b[0][0]],)
    if kind == "complex":
        (ar,), (ai,) = a
        (br,), (bi,) = b
        return [ar * br - ai * bi], [ar * bi + ai * br]
    if kind == "md":
        return (_md_mul(a[0], b[0], limbs),)
    ar, ai = a
    br, bi = b
    real = _md_sub(_md_mul(ar, br, limbs), _md_mul(ai, bi, limbs), limbs)
    imag = _md_add(_md_mul(ar, bi, limbs), _md_mul(ai, br, limbs), limbs)
    return _renormalize(real, limbs), _renormalize(imag, limbs)


def _times_zero(a: tuple, ring: Ring) -> tuple:
    """``a * 0``: the ring zero ``PowerSeries`` derives from a coefficient.

    Floats and complexes keep the IEEE signs (and NaNs) of the product;
    ``MultiDouble`` and ``ComplexMD`` skip zero factors and give exact zeros.
    """
    kind, limbs = ring
    if kind == "float":
        return ([a[0][0] * 0.0],)
    if kind == "complex":
        (re,), (im,) = a
        return [re * 0.0 - im * 0.0], [re * 0.0 + im * 0.0]
    zero = np.zeros(np.shape(a[0][0]))
    return tuple([zero] * limbs for _ in a)


# --------------------------------------------------------------------- #
# stacked planes <-> values
# --------------------------------------------------------------------- #
def _value(planes: Sequence[np.ndarray], index=...) -> tuple:
    """The value at ``index`` of the trailing axes of stacked planes."""
    return tuple([limb[index] for limb in plane] for plane in planes)


def _stack(value: tuple) -> tuple:
    return tuple(np.stack(np.broadcast_arrays(*plane)) for plane in value)


def as_scalars(planes: Sequence[np.ndarray], ring: Ring) -> tuple:
    """The limbs of the ring scalars that limb rows unpack into.

    ``ComplexMD``'s constructor renormalises both parts, so a row unpacked
    into a ``ComplexMD`` can change in its last bits; every other ring takes
    the limbs as they are.
    """
    if ring[0] != "cmd":
        return tuple(planes)
    with np.errstate(all="ignore"):
        return _stack(tuple(_renormalize(plane, ring[1]) for plane in _value(planes)))


def series_add(
    z: Sequence[np.ndarray],
    dz: Sequence[np.ndarray],
    ring: Ring,
    plain: np.ndarray | None = None,
) -> tuple:
    """``z + dz`` coefficient by coefficient: :meth:`PowerSeries.__add__`.

    ``dz`` holds scalars of ``ring`` (as :func:`as_scalars` gives them) and
    ``z`` scalars of ``ring``, except where ``plain`` (a boolean array over the
    non-limb axes, broadcastable) is True: there ``z`` is a plain operand —
    a float, or for complex rings any non-``ComplexMD`` value — zero-extended
    into the ring's planes.  A plain ``z`` takes the coercing branch of the
    ring operator, with ``dz`` first, exactly as Python dispatches
    ``z + dz`` to ``dz.__radd__``.
    """
    with np.errstate(all="ignore"):
        if plain is None or not np.any(plain):
            return _stack(_add(_value(z), _value(dz), ring))
        coerced = _stack(_add_plain(_value(dz), _value(z), ring))
        if np.all(plain):
            return coerced
        both = _stack(_add(_value(z), _value(dz), ring))
        return tuple(np.where(plain, c, b) for c, b in zip(coerced, both))


def series_evaluate(rows: Sequence[np.ndarray], h: np.ndarray, ring: Ring) -> tuple:
    """``series.evaluate(_promote_step(series, h))`` for every series row.

    ``rows`` holds series of scalars of ``ring`` (trailing axis: the
    coefficients); ``h`` broadcasts against the other non-limb axes.  The step
    is promoted like :func:`repro.homotopy.pathtrack._promote_step` does —
    ``c_0 * 0 + h`` — and the Horner recurrence ``acc * t + c_k`` runs from
    the top coefficient down, as :meth:`PowerSeries.evaluate` does.  Returns
    the values as stacked planes.
    """
    width = rows[0].shape[-1]
    h = np.asarray(h, dtype=np.float64)
    zeros = [np.zeros(h.shape)] * (ring[1] - 1)
    step = ([h] + zeros, [np.zeros(h.shape)] + zeros)[: len(rows)]
    with np.errstate(all="ignore"):
        t = _add_plain(_times_zero(_value(rows, (..., 0)), ring), step, ring)
        acc = _value(rows, (..., width - 1))
        for k in range(width - 2, -1, -1):
            acc = _add(_mul(acc, t, ring), _value(rows, (..., k)), ring)
        return _stack(acc)


def series_constant(values: Sequence[np.ndarray], ring: Ring, width: int) -> tuple:
    """Rows of ``PowerSeries.constant(v, width - 1)`` for ring scalars ``v``:
    ``v`` followed by ``width - 1`` copies of ``v * 0``."""
    with np.errstate(all="ignore"):
        zero = _stack(_times_zero(_value(values), ring))
    out = []
    for plane, zero_plane in zip(values, zero):
        block = np.empty(np.shape(plane) + (width,))
        block[..., 0] = plane
        block[..., 1:] = zero_plane[..., None]
        out.append(block)
    return tuple(out)
