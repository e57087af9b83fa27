"""Tests for the vectorised error-free transforms and renormalisation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.md import MultiDouble, qd, replica, vrenorm
from repro.md.renorm import renormalize
from repro.md.vecops import (
    md_add_rows,
    md_div_rows,
    md_mul_rows,
    md_reciprocal_rows,
    md_scale_rows,
    md_sub_rows,
)
from repro.md.veft import vec_quick_two_sum, vec_split, vec_two_prod, vec_two_sqr, vec_two_sum
from repro.md.vrenorm import vec_renormalize, vec_renormalize_exact, vecsum_sweep


class TestVectorEFT:
    def test_vec_two_sum_exact(self, nprng):
        a = nprng.uniform(-1, 1, 200) * 10.0 ** nprng.integers(-10, 10, 200)
        b = nprng.uniform(-1, 1, 200) * 10.0 ** nprng.integers(-10, 10, 200)
        s, e = vec_two_sum(a, b)
        for i in range(200):
            assert Fraction(float(s[i])) + Fraction(float(e[i])) == Fraction(float(a[i])) + Fraction(float(b[i]))

    def test_vec_two_prod_exact(self, nprng):
        a = nprng.uniform(-1, 1, 200)
        b = nprng.uniform(-1, 1, 200)
        p, e = vec_two_prod(a, b)
        for i in range(200):
            assert Fraction(float(p[i])) + Fraction(float(e[i])) == Fraction(float(a[i])) * Fraction(float(b[i]))

    def test_vec_two_sqr_matches_prod(self, nprng):
        a = nprng.uniform(-5, 5, 100)
        p1, e1 = vec_two_sqr(a)
        p2, e2 = vec_two_prod(a, a)
        assert np.array_equal(p1, p2)
        assert np.array_equal(e1, e2)

    def test_vec_split_reconstructs(self, nprng):
        a = nprng.uniform(-1e10, 1e10, 100)
        hi, lo = vec_split(a)
        assert np.array_equal(hi + lo, a)

    def test_vec_quick_two_sum_when_ordered(self, nprng):
        a = nprng.uniform(1.0, 2.0, 50)
        b = nprng.uniform(-1e-10, 1e-10, 50)
        s1, e1 = vec_quick_two_sum(a, b)
        s2, e2 = vec_two_sum(a, b)
        assert np.array_equal(s1, s2)
        assert np.array_equal(e1, e2)

    def test_scalars_are_accepted(self):
        s, e = vec_two_sum(1.0, 1e-30)
        assert float(s) == 1.0
        assert float(e) == 1e-30


class TestVecRenormalize:
    @pytest.mark.parametrize("limbs", (1, 2, 3, 4, 5, 8, 10))
    def test_matches_scalar_renormalize(self, limbs, nprng):
        n = 20
        terms = [nprng.uniform(-1, 1, n) * 2.0 ** (-50 * i) for i in range(limbs + 2)]
        vec = vec_renormalize(terms, limbs)
        assert len(vec) == limbs
        for j in range(n):
            scalar = renormalize([float(t[j]) for t in terms], limbs)
            vec_value = sum(Fraction(float(row[j])) for row in vec)
            scalar_value = sum(Fraction(x) for x in scalar)
            diff = abs(vec_value - scalar_value)
            assert diff <= Fraction(2) ** (-52 * limbs + 8)

    def test_sum_preserved_exactly_by_sweep(self, nprng):
        rows = [nprng.uniform(-1, 1, 10) for _ in range(6)]
        before = [sum(Fraction(float(r[j])) for r in rows) for j in range(10)]
        swept = vecsum_sweep([r.copy() for r in rows])
        after = [sum(Fraction(float(r[j])) for r in swept) for j in range(10)]
        assert before == after

    def test_padding(self):
        out = vec_renormalize([np.array([1.0, 2.0])], 3)
        assert len(out) == 3
        assert np.array_equal(out[0], [1.0, 2.0])
        assert np.array_equal(out[1], [0.0, 0.0])

    def test_mass_is_not_lost_when_truncating(self, nprng):
        # Many overlapping terms folded into two limbs: the result must agree
        # with the scalar oracle (which is exact to the last limb's ulp).
        terms = [nprng.uniform(-1, 1, 5) for _ in range(12)]
        out = vec_renormalize(terms, 2)
        for j in range(5):
            exact = sum(Fraction(float(t[j])) for t in terms)
            got = sum(Fraction(float(row[j])) for row in out)
            assert abs(got - exact) < Fraction(2) ** (-96)

    @pytest.mark.parametrize(
        "terms, limbs",
        [(1, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 2), (7, 2)],
        ids=lambda v: str(v),
    )
    def test_results_never_alias_the_terms(self, nprng, terms, limbs):
        """The terms are not copied, but no result is one of them (a lone
        term, which no sweep touches, included) and no term is written."""
        arrays = [nprng.uniform(-1, 1, 6) * 2.0 ** (-50 * i) for i in range(terms)]
        # broadcast views are read-only: writing into one raises
        views = [np.broadcast_to(a, a.shape) for a in arrays]
        before = [a.copy() for a in arrays]
        out = vec_renormalize(views, limbs)
        assert len(out) == limbs
        for row in out:
            assert row.flags.writeable
            assert not any(np.shares_memory(row, a) for a in arrays)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            vec_renormalize([], 2)
        with pytest.raises(ValueError):
            vec_renormalize([np.zeros(3)], 0)
        with pytest.raises(ValueError):
            vec_renormalize([np.zeros(3), np.zeros(4)], 2)

    def test_consistency_with_multidouble(self, nprng, rng):
        limbs = 5
        values = [MultiDouble.random(limbs, rng) for _ in range(8)]
        others = [MultiDouble.random(limbs, rng) for _ in range(8)]
        terms = [np.array([v.limbs[i] for v in values]) for i in range(limbs)]
        terms += [np.array([o.limbs[i] for o in others]) for i in range(limbs)]
        out = vec_renormalize(terms, limbs)
        for j in range(8):
            expected = (values[j] + others[j]).to_fraction()
            got = sum(Fraction(float(row[j])) for row in out)
            assert abs(got - expected) <= Fraction(2) ** (-52 * limbs + 8)


def _dd(rng, n, spread):
    """Renormalised double doubles with exponents within 2**±spread."""
    hi = rng.uniform(-1, 1, n) * np.exp2(rng.integers(-spread, spread + 1, n))
    return list(vec_two_sum(hi, hi * rng.uniform(-1, 1, n) * 2.0**-53))


def _cancelling(rng, n):
    """Pairs b ≈ -a: leading limbs a few ulps apart, low limbs unrelated."""
    a = _dd(rng, n, 30)
    hi = -a[0] + np.spacing(a[0]) * rng.integers(-2, 3, n)
    return a, list(vec_two_sum(hi, -a[1] * rng.uniform(0, 2, n)))


def _half_ulp(rng, n):
    """Double doubles whose low limb is half an ulp of the leading one (a tie)."""
    hi = rng.uniform(-1, 1, n) * np.exp2(rng.integers(-30, 31, n))
    return [hi, np.abs(np.spacing(hi)) * rng.choice([-0.5, 0.5], n)]


#: operand pairs shaped like the row kernels' inputs
_OPERANDS = {
    "exponents-30": lambda rng, n: (_dd(rng, n, 30), _dd(rng, n, 30)),
    "exponents-300": lambda rng, n: (_dd(rng, n, 300), _dd(rng, n, 300)),
    "cancelling": _cancelling,
    "half-ulp": lambda rng, n: (_half_ulp(rng, n), _half_ulp(rng, n)),
}

#: plain-double scale factors: integers (zero and negatives included) and
#: sparse dyadics
_FACTORS = {
    "integer": lambda rng, n: rng.integers(-(2**20), 2**20, n).astype(np.float64),
    "sparse": lambda rng, n: np.ldexp(rng.choice([1.0, -1.0, 3.0, -5.0], n), rng.integers(-40, 41, n)),
}

_KERNELS = {"add": md_add_rows, "sub": md_sub_rows, "mul": md_mul_rows, "scale": md_scale_rows}


def _four_sweeps(kernel, a, b):
    """``kernel``'s own 2-limb term list through four VecSum sweeps."""
    if kernel is md_mul_rows:
        terms = [
            *vec_two_prod(a[0], b[0]),
            *vec_two_prod(a[0], b[1]),
            *vec_two_prod(a[1], b[0]),
            a[1] * b[1],
        ]
    elif kernel is md_scale_rows:
        terms = [*vec_two_prod(a[0], b), *vec_two_prod(a[1], b)]
    elif kernel is md_sub_rows:
        terms = [*a, -b[0], -b[1]]
    else:
        terms = [*a, *b]
    return vec_renormalize(terms, 2, passes=4)


def _differing(got, expected) -> list[int]:
    """Elements per limb whose bits differ (a signed zero counts)."""
    return [int(np.count_nonzero(x.view(np.int64) != y.view(np.int64))) for x, y in zip(got, expected)]


def _sparse(rng, n, offset):
    """Double doubles whose limbs carry at most four significant bits, times 2**offset."""
    exponent = rng.integers(-30, 31, n) + offset
    hi = np.ldexp(rng.integers(1, 16, n) * rng.choice([-1.0, 1.0], n), exponent)
    lo = np.ldexp(rng.integers(0, 16, n) * rng.choice([-1.0, 1.0], n), exponent - rng.integers(57, 64, n))
    return [hi, lo]


class TestDoubleDoubleSweeps:
    """The 2-limb add, sub, mul and scale kernels run two VecSum sweeps.

    On operands shaped like the kernels' inputs the two sweeps that
    ``limbs + 2`` would add move no bit, so the kernels return exactly the
    limbs of four sweeps of their own term lists.  Sparse dyadic operands,
    whose sums can need more than two doubles, are where renormalisations
    part ways (four sweeps and the exact Shewchuk renormalisation round some
    adds differently), so there the kernels are held to the exact value, not
    to four sweeps.
    """

    N = 200_000
    SPARSE_N = 5_000

    @pytest.mark.parametrize(
        "kernel, limbs, two_sums",
        [
            ("add", 2, 7),
            ("sub", 2, 7),
            ("scale", 2, 7),
            ("mul", 2, 13),
            ("add", 4, 25),
            ("sub", 4, 25),
            ("scale", 4, 17),
            ("mul", 4, 17),
        ],
    )
    def test_two_sums_per_kernel(self, monkeypatch, nprng, kernel, limbs, two_sums):
        """Two sweeps and the closing two-sum at dd; quad doubles run the
        fixed sequences of :mod:`repro.md.qd`: 10 two-sums of pairwise sums
        and carries, three sweeps over five terms and a closing sweep for an
        add, 8 two-sums over the levels and three sweeps over four limbs for
        a multiply (a scale multiplies by the coerced factor)."""
        calls = []

        def counting(original):
            def two_sum(a, b):
                calls.append(None)
                return original(a, b)

            return two_sum

        monkeypatch.setattr(vrenorm, "_two_sum", counting(vrenorm._two_sum))
        monkeypatch.setattr(qd, "_two_sum", counting(qd._two_sum))
        a = [nprng.uniform(-1, 1, 4) * 2.0 ** (-60 * i) for i in range(limbs)]
        b = a[0] if kernel == "scale" else a[::-1]
        _KERNELS[kernel](a, b, limbs)
        assert len(calls) == two_sums

    @pytest.mark.parametrize("shape", sorted(_OPERANDS))
    @pytest.mark.parametrize("kernel", ("add", "sub", "mul"))
    def test_binary_kernels_equal_four_sweeps(self, nprng, kernel, shape):
        a, b = _OPERANDS[shape](nprng, self.N)
        got = _KERNELS[kernel](a, b, 2)
        assert _differing(got, _four_sweeps(_KERNELS[kernel], a, b)) == [0, 0]

    @pytest.mark.parametrize("factor", sorted(_FACTORS))
    @pytest.mark.parametrize("spread", (30, 300))
    def test_scale_equals_four_sweeps(self, nprng, spread, factor):
        a = _dd(nprng, self.N, spread)
        b = _FACTORS[factor](nprng, self.N)
        assert _differing(md_scale_rows(a, b, 2), _four_sweeps(md_scale_rows, a, b)) == [0, 0]

    @pytest.mark.parametrize("offset", (0, -53, -106))
    @pytest.mark.parametrize("kernel", sorted(_KERNELS))
    def test_sparse_dyadic_results_are_within_2_to_the_minus_104(self, nprng, kernel, offset):
        a = _sparse(nprng, self.SPARSE_N, 0)
        b = _sparse(nprng, self.SPARSE_N, offset)
        if kernel == "scale":
            b = b[0]
        got = _KERNELS[kernel](a, b, 2)
        bound = Fraction(2) ** -104
        for j in range(self.SPARSE_N):
            x = Fraction(float(a[0][j])) + Fraction(float(a[1][j]))
            if kernel == "scale":
                exact = x * Fraction(float(b[j]))
            else:
                y = Fraction(float(b[0][j])) + Fraction(float(b[1][j]))
                exact = {"add": x + y, "sub": x - y, "mul": x * y}[kernel]
            value = Fraction(float(got[0][j])) + Fraction(float(got[1][j]))
            assert abs(value - exact) <= bound * abs(exact), (kernel, offset, j)


def _bits(array: np.ndarray) -> np.ndarray:
    """The bit patterns of a float64 array, every NaN as one pattern (NaN
    payloads depend on the array layout, see ``tests/test_tensor_backend.py``)."""
    array = np.asarray(array, dtype=np.float64)
    return np.where(np.isnan(array), np.nan, array).view(np.int64)


def _qd(rng, n, spread=30):
    """Quad doubles renormalised exactly, exponents within 2**±spread."""
    exponent = rng.integers(-spread, spread + 1, n)
    terms = [rng.uniform(-1, 1, n) * np.exp2(exponent - 53 * i) for i in range(4)]
    return vec_renormalize_exact(terms, 4)


def _near_negation(rng, a, level):
    """``-a`` plus a quad double 2**(-53 (level + 1)) times smaller: the sum
    with ``a`` cancels the limbs above ``level``."""
    small = _qd(rng, len(a[0]), 0)
    scale = np.abs(a[0]) * 2.0 ** (-53 * (level + 1))
    return vec_renormalize_exact([-x for x in a] + [x * scale for x in small], 4)


def _special(rng, n):
    """Quad doubles with exact and interior zero limbs, leading limbs ±2**k
    (1.0 included) over lower limbs of either sign, zeros of both signs, and
    infinities and NaNs, leading or in a lower limb."""
    value = _qd(rng, n)
    patterns = np.array([(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0)], dtype=float)
    zero_limbs = [v * m for v, m in zip(value, patterns[rng.integers(0, len(patterns), n)].T)]
    k = np.where(rng.random(n) < 0.5, 0, rng.integers(-8, 9, n))
    powers = [rng.choice([-1.0, 1.0], n) * np.exp2(k)]
    powers += [rng.uniform(-1, 1, n) * np.exp2(k - 53 * i - 1) for i in (1, 2, 3)]
    zeros = [rng.choice([-0.0, 0.0], n) for _ in range(4)]
    nonfinite = [rng.choice([np.inf, -np.inf, np.nan], n), *(np.zeros(n) for _ in range(3))]
    from_inf = rng.random(n) < 0.5  # MultiDouble.from_float(inf, 4) is (inf, nan, nan, nan)
    for limb in nonfinite[1:]:
        limb[from_inf] = np.nan
    lower = [x.copy() for x in value]
    lower[rng.integers(1, 4)][:] = rng.choice([np.inf, -np.inf, np.nan], n)
    families = [zero_limbs, powers, zeros, nonfinite, lower]
    pick = rng.choice(len(families), n, p=[0.3, 0.3, 0.15, 0.15, 0.1])
    return [np.choose(pick, [family[i] for family in families]) for i in range(4)]


def _factors(rng, n):
    """Plain-double scale factors: doubles, integers (zero and negatives
    included), powers of two, zeros of both signs, infinities and NaNs."""
    families = [
        rng.uniform(-1, 1, n) * np.exp2(rng.integers(-20, 21, n)),
        rng.integers(-(2**20), 2**20, n).astype(np.float64),
        rng.choice([-1.0, 1.0], n) * np.exp2(rng.integers(-8, 9, n)),
        rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], n),
    ]
    return np.choose(rng.choice(len(families), n, p=[0.4, 0.25, 0.2, 0.15]), families)


#: every pair of these operands, with every one of ``_EDGE_FACTORS``
_EDGE_VALUES = [
    (0.0, 0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0, -0.0),
    (-0.0, 0.0, -0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0, 0.0),
    (1.0, -(2.0**-60), 2.0**-115, 0.0),
    (0.125, 0.0, -(2.0**-120), 0.0),
    (np.inf, 0.0, 0.0, 0.0),
    (-np.inf, 0.0, 0.0, 0.0),
    (np.nan, 0.0, 0.0, 0.0),
    (np.inf, np.nan, np.nan, np.nan),
    (1.0, np.nan, 0.0, 0.0),
]
_EDGE_FACTORS = [0.0, -0.0, 1.0, -1.0, 3.0, 0.5, np.inf, -np.inf, np.nan]


def _edges():
    """Limb arrays of every (value, value, factor) combination of the edges."""
    rows = [(x, y, f) for x in _EDGE_VALUES for y in _EDGE_VALUES for f in _EDGE_FACTORS]
    a = [np.array([x[i] for x, _, _ in rows]) for i in range(4)]
    b = [np.array([y[i] for _, y, _ in rows]) for i in range(4)]
    return a, b, np.array([f for _, _, f in rows])


#: the scalar operations of the corpus, on ``MultiDouble`` operands and a
#: plain-double factor; the reciprocal is the scalar series code's ``(b/b) / b``
_SCALAR_OPS = {
    "add": lambda x, y, f: x + y,
    "sub": lambda x, y, f: x - y,
    "mul": lambda x, y, f: x * y,
    "scale": lambda x, y, f: x * f,
    "div": lambda x, y, f: x / y,
    "reciprocal": lambda x, y, f: (y / y) / y,
}

#: the row kernels of the same operations
_ROW_OPS = {
    "add": lambda a, b, f: md_add_rows(a, b, 4),
    "sub": lambda a, b, f: md_sub_rows(a, b, 4),
    "mul": lambda a, b, f: md_mul_rows(a, b, 4),
    "scale": lambda a, b, f: md_scale_rows(a, f, 4),
    "div": lambda a, b, f: md_div_rows(a, b, 4),
    "reciprocal": lambda a, b, f: md_reciprocal_rows(b, 4),
}


def _fraction(limbs, j) -> Fraction:
    return sum((Fraction(float(x[j])) for x in limbs), Fraction(0))


class TestQuadDoubleSequence:
    """Quad doubles run one fixed add and multiply sequence
    (:mod:`repro.md.qd`) in all three stacks: the scalar ``MultiDouble``, the
    row kernels of :mod:`repro.md.vecops` and the resident Newton state's
    :mod:`repro.md.replica`.  On a seeded corpus of random operands,
    near-cancellation at each limb level, exact and interior zero limbs,
    leading limbs of exactly ±2**k, signed zeros, infinities and NaNs, plus
    every combination of a few edge values and scale factors, the stacks
    give the same limbs (NaNs compared by position), and every finite sum,
    product and quotient lies within 2**-200 of the exact value relative to
    ``|a| + |b|``, ``|a| |b|`` or ``|a / b|``.
    """

    N = 1000
    BOUND = Fraction(2) ** -200

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(20250425)
        n = self.N
        pairs = [(_qd(rng, n), _qd(rng, n))]
        for level in range(4):
            a = _qd(rng, n)
            pairs.append((a, _near_negation(rng, a, level)))
        pairs += [
            (_special(rng, n), _qd(rng, n)),
            (_qd(rng, n), _special(rng, n)),
            (_special(rng, n), _special(rng, n)),
        ]
        edge_a, edge_b, edge_factors = _edges()
        a = [np.concatenate([p[0][i] for p in pairs] + [edge_a[i]]) for i in range(4)]
        b = [np.concatenate([p[1][i] for p in pairs] + [edge_b[i]]) for i in range(4)]
        return a, b, np.concatenate([_factors(rng, len(pairs) * n), edge_factors])

    @staticmethod
    def _scalar(op, a, b, f):
        """The scalar results as limb arrays, and where the scalar raised."""
        out = np.full((4, len(f)), np.nan)
        raised = np.zeros(len(f), dtype=bool)
        for j in range(len(f)):
            x = MultiDouble([float(limb[j]) for limb in a], 4)
            y = MultiDouble([float(limb[j]) for limb in b], 4)
            try:
                out[:, j] = _SCALAR_OPS[op](x, y, float(f[j])).limbs
            except ZeroDivisionError:
                raised[j] = True
        return out, raised

    @staticmethod
    def _rows(op, a, b, f):
        with np.errstate(all="ignore"):
            return _ROW_OPS[op](a, b, f)

    @pytest.mark.parametrize("op", ("add", "sub", "mul", "scale", "div", "reciprocal"))
    def test_scalar_and_rows_agree(self, corpus, op):
        a, b, f = corpus
        scalar, raised = self._scalar(op, a, b, f)
        rows = np.array(self._rows(op, a, b, f))
        assert np.array_equal(_bits(rows[:, ~raised]), _bits(scalar[:, ~raised]))
        # the scalar division raises on a zero leading limb; the rows compute
        # a non-finite quotient there
        assert op in ("div", "reciprocal") or not raised.any()
        assert not np.isfinite(rows[0, raised]).any()

    @pytest.mark.parametrize("op", ("add", "sub", "mul"))
    def test_replica_agrees_with_the_rows(self, corpus, op):
        a, b, _ = corpus
        operator = {"add": replica._md_add, "sub": replica._md_sub, "mul": replica._md_mul}[op]
        with np.errstate(all="ignore"):
            got = np.array(operator(a, b, 4))
        assert np.array_equal(_bits(got), _bits(np.array(self._rows(op, a, b, None))))

    @pytest.mark.parametrize("op", ("add", "mul"))
    def test_operands_commute(self, corpus, op):
        a, b, f = corpus
        assert np.array_equal(_bits(self._rows(op, a, b, f)), _bits(self._rows(op, b, a, f)))

    @pytest.mark.parametrize("op", ("add", "sub", "mul", "scale", "div"))
    def test_finite_results_are_within_2_to_the_minus_200(self, corpus, op):
        """Relative to ``|a| + |b|`` for sums, ``|a| |b|`` for products and
        ``|a / b|`` for quotients."""
        a, b, f = corpus
        got = self._rows(op, a, b, f)
        operands = [*a, f] if op == "scale" else [*a, *b]
        finite = np.all(np.isfinite(np.array([*operands, *got])), axis=0)
        checked = 0
        for j in np.flatnonzero(finite):
            x = _fraction(a, j)
            y = Fraction(float(f[j])) if op == "scale" else _fraction(b, j)
            if op == "div":
                exact = x / y
                scale = abs(exact)
            elif op in ("add", "sub"):
                exact = x + y if op == "add" else x - y
                scale = abs(x) + abs(y)
            else:
                exact = x * y
                scale = abs(x) * abs(y)
            assert abs(_fraction(got, j) - exact) <= self.BOUND * scale, (op, j)
            checked += 1
        assert checked > 0.7 * len(f)
