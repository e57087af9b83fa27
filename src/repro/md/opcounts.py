"""Double-operation counts for multiple-double arithmetic.

The flop accounting in Section 6.2 of the paper converts kernel times into
TFLOPS by counting how many *double* additions, subtractions and
multiplications one multiple-double addition or multiplication performs.  The
paper quotes, from its reference [20], the deca-double numbers:

* one deca-double addition: 139 additions + 258 subtractions = **397** double
  operations;
* one deca-double multiplication: 952 additions + 1743 subtractions + 394
  multiplications = **3089** double operations.

This module provides those counts for every precision the experiments use.
Two sources are combined:

1. :data:`PAPER_OPCOUNTS` — the values documented in the paper (and the well
   known QD double-double counts) are recorded verbatim;
2. :func:`modelled_opcounts` — a quadratic model anchored on the documented
   values fills in the precisions the paper does not spell out (3d, 4d, 5d,
   8d).  Multiple-double arithmetic based on renormalised expansions costs
   Θ(k²) double operations, so a quadratic in the limb count ``k`` is the
   right functional form; the model is exact at the anchors ``k = 1, 2, 10``.

In addition, :func:`measure_opcounts` instruments this package's *own* scalar
implementation and reports how many double operations it actually performs,
so the cost model can be cross-checked against running code (see
``tests/test_opcounts.py``).  At 4 limbs it counts the fixed quad-double
sequences of :mod:`repro.md.qd`: 154 operations per add and 220 per
multiply, where the quadratic model gives 77 and 328.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eft import OperationCounter
from .precision import get_precision

__all__ = [
    "OpCounts",
    "PAPER_OPCOUNTS",
    "modelled_opcounts",
    "opcounts_for",
    "measure_opcounts",
]


@dataclass(frozen=True)
class OpCounts:
    """Double-operation cost of one multiple-double add and one multiply."""

    limbs: int
    add_ops: int
    mul_ops: int
    source: str = "model"

    @property
    def total_per_convolution_term(self) -> int:
        """Cost of one fused multiply-accumulate step inside a convolution."""
        return self.add_ops + self.mul_ops


#: Documented operation counts.  The deca-double row is taken from the paper
#: (Section 6.2); the double-double row is the classical QD/Bailey count
#: (20 flops per add, 32 per mul without FMA); plain doubles cost one flop.
PAPER_OPCOUNTS: dict[int, OpCounts] = {
    1: OpCounts(1, add_ops=1, mul_ops=1, source="exact"),
    2: OpCounts(2, add_ops=20, mul_ops=32, source="QD library"),
    10: OpCounts(10, add_ops=397, mul_ops=3089, source="paper §6.2"),
}


def _quadratic_through_anchors(k: int, anchors: dict[int, int]) -> int:
    """Evaluate the quadratic interpolating three anchor points at ``k``."""
    (x0, y0), (x1, y1), (x2, y2) = sorted(anchors.items())
    # Lagrange interpolation, evaluated in exact integer-friendly float math.
    term0 = y0 * (k - x1) * (k - x2) / ((x0 - x1) * (x0 - x2))
    term1 = y1 * (k - x0) * (k - x2) / ((x1 - x0) * (x1 - x2))
    term2 = y2 * (k - x0) * (k - x1) / ((x2 - x0) * (x2 - x1))
    return max(1, round(term0 + term1 + term2))


def modelled_opcounts(limbs: int) -> OpCounts:
    """Quadratic-in-``k`` model anchored on the documented counts."""
    add_anchors = {k: v.add_ops for k, v in PAPER_OPCOUNTS.items()}
    mul_anchors = {k: v.mul_ops for k, v in PAPER_OPCOUNTS.items()}
    return OpCounts(
        limbs,
        add_ops=_quadratic_through_anchors(limbs, add_anchors),
        mul_ops=_quadratic_through_anchors(limbs, mul_anchors),
        source="quadratic model",
    )


def opcounts_for(precision) -> OpCounts:
    """Operation counts for a precision (documented if available, else model)."""
    limbs = get_precision(precision).limbs
    if limbs in PAPER_OPCOUNTS:
        return PAPER_OPCOUNTS[limbs]
    return modelled_opcounts(limbs)


def _counting_doubles(counter: OperationCounter) -> type:
    """A ``float`` type whose ``+``, ``-`` and ``*`` record themselves in
    ``counter``; negation is a sign flip and is not counted."""

    class Counted(float):
        def __add__(self, other):
            counter.add()
            return Counted(float(self) + float(other))

        __radd__ = __add__

        def __sub__(self, other):
            counter.sub()
            return Counted(float(self) - float(other))

        def __rsub__(self, other):
            counter.sub()
            return Counted(float(other) - float(self))

        def __mul__(self, other):
            counter.mul()
            return Counted(float(self) * float(other))

        __rmul__ = __mul__

    return Counted


def measure_opcounts(precision, samples: int = 4, seed: int = 2021) -> OpCounts:
    """Measure the double-operation cost of *this package's* implementation.

    Runs a few random multiple-double additions and multiplications with
    counting primitives and returns the average number of double operations
    per operation.  Quad doubles run the fixed sequences of
    :mod:`repro.md.qd` themselves, on doubles that count their own ``+``,
    ``-`` and ``*`` and with :func:`repro.md.eft.counted_two_prod`: 154
    operations per add and 220 per multiply, on any data.  Every other
    precision runs an instrumented re-implementation of the scalar Shewchuk
    renormalisation, whose cost depends on the data.  Its absolute numbers
    differ from CAMPARY's generated code (it favours robustness over minimal
    flops) but its Θ(k²) growth matches, which is what the performance model
    relies on.
    """
    import random

    from .eft import counted_two_prod
    from .multidouble import MultiDouble
    from .qd import qd_add, qd_mul
    from .renorm import grow_expansion

    prec = get_precision(precision)
    rng = random.Random(seed)
    counter = OperationCounter()
    counted = _counting_doubles(counter)

    def sequence_two_prod(a, b):
        p, e = counted_two_prod(float(a), float(b), counter)
        return counted(p), counted(e)

    def counted_two_sum(a, b):
        counter.add(3)
        counter.sub(3)
        s = a + b
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)

    def counted_renorm(terms, limbs):
        expansion: list[float] = []
        for t in terms:
            if t != 0.0:
                new: list[float] = []
                q = t
                for comp in expansion:
                    q, err = counted_two_sum(q, comp)
                    if err != 0.0:
                        new.append(err)
                new.append(q)
                expansion = new
        out = []
        for _ in range(limbs):
            if not expansion:
                out.append(0.0)
                continue
            limb = 0.0
            for comp in expansion:
                limb += comp
                counter.add(1)
            out.append(limb)
            expansion = [c for c in grow_expansion(expansion, -limb) if c != 0.0]
            counter.add(3 * (len(expansion) + 1))
            counter.sub(3 * (len(expansion) + 1))
        return out

    def shewchuk_mul(a, b):
        terms: list[float] = []
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < prec.limbs:
                    terms.extend(counted_two_prod(ai, bj, counter))
                elif i + j == prec.limbs:
                    counter.mul(1)
                    terms.append(ai * bj)
        counted_renorm(terms, prec.limbs)

    add_total = 0
    mul_total = 0
    for _ in range(samples):
        x = MultiDouble.random(prec, rng).limbs
        y = MultiDouble.random(prec, rng).limbs
        counter.reset()
        if prec.limbs == 4:
            qd_add([counted(v) for v in x], [counted(v) for v in y])
        else:
            counted_renorm(list(x) + list(y), prec.limbs)
        add_total += counter.total
        counter.reset()
        if prec.limbs == 4:
            qd_mul([counted(v) for v in x], [counted(v) for v in y], sequence_two_prod)
        else:
            shewchuk_mul(x, y)
        mul_total += counter.total
    return OpCounts(
        prec.limbs,
        add_ops=add_total // samples,
        mul_ops=mul_total // samples,
        source="measured (repro scalar implementation)",
    )
