"""Tests for the double-operation cost model."""

from __future__ import annotations

import pytest

from repro.md.opcounts import (
    PAPER_OPCOUNTS,
    OpCounts,
    measure_opcounts,
    modelled_opcounts,
    opcounts_for,
)


class TestPaperValues:
    def test_deca_double_counts_match_section_6_2(self):
        deca = opcounts_for(10)
        assert deca.add_ops == 397
        assert deca.mul_ops == 3089
        assert deca.source == "paper §6.2"

    def test_double_double_counts(self):
        dd = opcounts_for(2)
        assert dd.add_ops == 20
        assert dd.mul_ops == 32

    def test_plain_double(self):
        assert opcounts_for(1).add_ops == 1
        assert opcounts_for(1).mul_ops == 1


class TestModel:
    def test_model_reproduces_anchors(self):
        for limbs, expected in PAPER_OPCOUNTS.items():
            model = modelled_opcounts(limbs)
            assert model.add_ops == expected.add_ops
            assert model.mul_ops == expected.mul_ops

    def test_counts_grow_with_precision(self):
        previous = opcounts_for(1)
        for limbs in (2, 3, 4, 5, 8, 10):
            current = opcounts_for(limbs)
            assert current.add_ops > previous.add_ops
            assert current.mul_ops > previous.mul_ops
            previous = current

    def test_quadratic_growth_shape(self):
        # Doubling the limb count should cost roughly 4x, not 2x or 8x.
        ratio = opcounts_for(8).mul_ops / opcounts_for(4).mul_ops
        assert 2.5 < ratio < 6.0

    def test_total_per_convolution_term(self):
        counts = opcounts_for(10)
        assert counts.total_per_convolution_term == 397 + 3089

    def test_opcounts_is_frozen(self):
        counts = OpCounts(2, 20, 32)
        with pytest.raises(AttributeError):
            counts.add_ops = 1


class TestMeasured:
    def test_measured_counts_scale_quadratically(self):
        """The Shewchuk path of every precision but quad doubles: 2.5 times
        the limbs cost more than 4 times the multiply operations (6.25 times
        is quadratic, 2.5 linear)."""
        small = measure_opcounts(2, samples=2)
        large = measure_opcounts(5, samples=2)
        assert large.mul_ops > 4 * small.mul_ops
        assert large.add_ops > small.add_ops

    @pytest.mark.parametrize("seed", (2021, 7))
    def test_quad_doubles_count_the_fixed_sequence(self, seed):
        """25 two-sums and 4 additions per add; 6 two-products, 17 two-sums,
        4 multiplications and 12 additions per multiply, on any data."""
        measured = measure_opcounts(4, samples=3, seed=seed)
        assert (measured.add_ops, measured.mul_ops) == (154, 220)

    def test_measured_counts_positive(self):
        measured = measure_opcounts(3, samples=1)
        assert measured.add_ops > 0
        assert measured.mul_ops > 0
        assert "measured" in measured.source
