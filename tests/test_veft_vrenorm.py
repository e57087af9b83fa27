"""Tests for the vectorised error-free transforms and renormalisation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.md import MultiDouble, vrenorm
from repro.md.renorm import renormalize
from repro.md.vecops import md_add_rows, md_mul_rows, md_scale_rows, md_sub_rows
from repro.md.veft import vec_quick_two_sum, vec_split, vec_two_prod, vec_two_sqr, vec_two_sum
from repro.md.vrenorm import vec_renormalize, vecsum_sweep


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
        [("add", 2, 7), ("sub", 2, 7), ("scale", 2, 7), ("mul", 2, 13), ("add", 4, 45), ("mul", 4, 135)],
    )
    def test_two_sums_per_kernel(self, monkeypatch, nprng, kernel, limbs, two_sums):
        """Two sweeps and the closing two-sum at dd; quad doubles keep
        ``limbs + 2`` = 6 sweeps, then a closing sweep of 3 two-sums."""
        original = vrenorm._two_sum
        calls = []

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        monkeypatch.setattr(vrenorm, "_two_sum", counting)
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
