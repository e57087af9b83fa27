"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng():
    """A deterministic random generator for reproducible tests."""
    return random.Random(20210312)


@pytest.fixture
def nprng():
    """A deterministic NumPy generator."""
    import numpy as np

    return np.random.default_rng(20210312)


@pytest.fixture
def fixed_grid():
    """Track options of the fixed-grid tracker, with keyword overrides layered on.

    No step growth, no precision ladder and no rejections: every path steps
    on one grid of ``step.initial`` and fails at the first point Newton
    cannot refine.
    """
    from repro.homotopy import RetryPolicy, TrackOptions

    grid = TrackOptions().override(
        step={"grow": 1.0}, retry=RetryPolicy(precision_ladder=(), max_rejections=0)
    )
    return grid.override
