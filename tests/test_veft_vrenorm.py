"""Tests for the vectorised error-free transforms and renormalisation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.md import MultiDouble
from repro.md.renorm import renormalize
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
