"""The fixed quad-double add and multiply sequences.

Quad doubles (4 limbs) add and multiply through one branch-free operation
sequence each, in the style of the QD library of Hida, Li and Bailey
("Algorithms for quad-double precision floating point arithmetic", ARITH
2001).  The sequences use nothing but ``+``, ``-``, ``*`` and the caller's
``two_prod``, so the same code runs on Python floats (the scalar
:class:`repro.md.MultiDouble`), on NumPy limb rows (the row kernels of
:mod:`repro.md.vecops`) and on the resident Newton state
(:mod:`repro.md.replica`), and the three stacks agree limb for limb.  The
stacks take 4-limb operands as they are: renormalising an operand first
(:func:`repro.md.renorm.renormalize`) can move its lower limbs.

* :func:`qd_add` adds the limbs pairwise with two-sums, carries each level's
  errors into the next level (10 two-sums), sums the four level-4 errors
  plainly, and renormalises the five terms with three VecSum sweeps, a plain
  fold of the fifth term into the fourth and one closing sweep: 25 two-sums
  and 4 additions, 154 double operations.
* :func:`qd_mul` forms the six exact products of the levels 0 to 2, sums each
  level with two-sums (8), adds the four level-3 products and every level-3
  error plainly, and renormalises the four levels with three VecSum sweeps:
  6 two-products, 17 two-sums, 4 multiplications and 12 additions, 220
  double operations.  Products of level 4 and deeper are dropped.

Both are within ``2**-200`` of the exact result relative to ``|a| + |b|``
(add) or ``|a| |b|`` (multiply) on normalised operands, and both are
commutative bit for bit.  A product no longer skips zero factors, so
``inf * 0`` is NaN.  ``tests/test_veft_vrenorm.py`` pins the stacks to each
other and to the exact sums on a seeded corpus, non-finite values included,
and counts the two-sums; ``tests/test_opcounts.py`` pins the operation
counts.
"""

from __future__ import annotations

__all__ = ["qd_add", "qd_mul"]


def _two_sum(a, b):
    """Knuth's two-sum: ``s = fl(a + b)`` and the exact error ``e``."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _sweep(x: list) -> None:
    """One bottom-up VecSum sweep over ``x``, in place."""
    for i in range(len(x) - 2, -1, -1):
        x[i], x[i + 1] = _two_sum(x[i], x[i + 1])


def qd_add(a, b) -> list:
    """The 4-limb sum ``a + b`` of two limb sequences, leading limb first."""
    s0, t0 = _two_sum(a[0], b[0])
    s1, t1 = _two_sum(a[1], b[1])
    s2, t2 = _two_sum(a[2], b[2])
    s3, t3 = _two_sum(a[3], b[3])
    # carry the errors of level i into level i + 1
    s1, t0 = _two_sum(s1, t0)
    s2, t0 = _two_sum(s2, t0)
    s2, t1 = _two_sum(s2, t1)
    s3, t0 = _two_sum(s3, t0)
    s3, t1 = _two_sum(s3, t1)
    s3, t2 = _two_sum(s3, t2)
    x = [s0, s1, s2, s3, (t0 + t1) + (t2 + t3)]
    for _ in range(3):
        _sweep(x)
    head = x[:3] + [x[3] + x[4]]
    _sweep(head)
    return head


def qd_mul(a, b, two_prod) -> list:
    """The 4-limb product ``a * b`` of two limb sequences, leading limb first.

    ``two_prod(x, y)`` returns ``fl(x * y)`` and its exact error, on the
    callers' number type.  The operands of each level are paired
    symmetrically, so ``qd_mul(a, b)`` and ``qd_mul(b, a)`` agree bit for bit.
    """
    p00, q00 = two_prod(a[0], b[0])
    p01, q01 = two_prod(a[0], b[1])
    p10, q10 = two_prod(a[1], b[0])
    p02, q02 = two_prod(a[0], b[2])
    p11, q11 = two_prod(a[1], b[1])
    p20, q20 = two_prod(a[2], b[0])
    # level 1
    s1, e1 = _two_sum(p01, p10)
    s1, e2 = _two_sum(s1, q00)
    # level 2
    s2, f1 = _two_sum(p02, p20)
    s2, f2 = _two_sum(s2, p11)
    u, f3 = _two_sum(q01, q10)
    s2, f4 = _two_sum(s2, u)
    s2, f5 = _two_sum(s2, e1)
    s2, f6 = _two_sum(s2, e2)
    # level 3, rounded
    products = (a[0] * b[3] + a[3] * b[0]) + (a[1] * b[2] + a[2] * b[1])
    errors = ((q02 + q20) + q11) + (((f1 + f2) + (f3 + f4)) + (f5 + f6))
    x = [p00, s1, s2, products + errors]
    for _ in range(3):
        _sweep(x)
    return x
