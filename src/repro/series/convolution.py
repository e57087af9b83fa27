"""Convolution algorithms for truncated power series (Section 2 of the paper).

Two formulations of the same product are provided:

* :func:`convolve_direct` — the sequential formula
  ``z_k = sum_{i=0..k} x_i y_{k-i}``; each output coefficient performs a
  different number of operations (the source of *thread divergence* on a
  GPU);
* :func:`convolve_zero_insertion` — the data-parallel formulation from the
  paper: zeros are inserted in front of the second operand so that every
  "thread" (output coefficient) executes exactly ``d + 1`` multiply-add
  steps on different data.  The function literally follows the six pseudo-code
  statements of Section 2, one block's work, and is the oracle of the
  row-batched :func:`repro.core.convolve_rows` that the ``vectorized`` and
  ``gpu`` modes run.

Both produce identical results; the test suite checks them against each
other, against :func:`repro.core.convolve_rows` limb for limb and against an
exact :class:`fractions.Fraction` oracle.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "convolve_direct",
    "convolve_zero_insertion",
    "add_coefficients",
    "convolution_operation_count",
    "addition_operation_count",
]


def convolve_direct(x: Sequence, y: Sequence) -> list:
    """Sequential convolution of two coefficient vectors of equal length."""
    if len(x) != len(y):
        raise ValueError("operands must be truncated at the same degree")
    d = len(x) - 1
    out = []
    for k in range(d + 1):
        acc = x[0] * y[k]
        for i in range(1, k + 1):
            acc = acc + x[i] * y[k - i]
        out.append(acc)
    return out


def convolve_zero_insertion(x: Sequence, y: Sequence) -> list:
    """Data-parallel convolution with zero insertion (paper, Section 2).

    Thread ``k`` executes::

        X[k] := x[k]
        Y[k] := 0
        Y[d+k] := y[k]
        Z[k] := X[0] * Y[d+k]
        for i in 1..d: Z[k] := Z[k] + X[i] * Y[d+k-i]
        z[k] := Z[k]

    Every thread performs exactly ``d + 1`` multiplications and ``d``
    additions regardless of ``k`` — no divergence.  The host version below
    simply runs the threads one after the other; the result is identical to
    :func:`convolve_direct`.
    """
    if len(x) != len(y):
        raise ValueError("operands must be truncated at the same degree")
    d = len(x) - 1
    zero = x[0] * 0
    # Shared-memory staging: X has d+1 entries, Y has 2d+1 used entries (the
    # paper reserves 2d+2): d zeros inserted in front so that Y[d+j] = y_j
    # and every negative index of the textbook formula reads a zero.
    X = list(x)
    Y = [zero] * d + list(y)
    Z = [zero] * (d + 1)
    for k in range(d + 1):  # thread index
        acc = X[0] * Y[d + k]
        for i in range(1, d + 1):
            acc = acc + X[i] * Y[d + k - i]
        Z[k] = acc
    return Z


def add_coefficients(x: Sequence, y: Sequence) -> list:
    """Data-parallel addition: thread ``k`` adds the ``k``-th coefficients."""
    if len(x) != len(y):
        raise ValueError("operands must be truncated at the same degree")
    return [a + b for a, b in zip(x, y)]


def convolution_operation_count(degree: int) -> tuple[int, int]:
    """(multiplications, additions) in the coefficient ring for one convolution.

    With zero insertion every one of the ``d + 1`` threads performs ``d + 1``
    multiplications and ``d`` additions, giving the totals used in the
    paper's flop accounting: ``(d+1)^2`` multiplications and ``d*(d+1)``
    additions.
    """
    return (degree + 1) ** 2, degree * (degree + 1)


def addition_operation_count(degree: int) -> tuple[int, int]:
    """(multiplications, additions) for one series addition: ``(0, d+1)``."""
    return 0, degree + 1
