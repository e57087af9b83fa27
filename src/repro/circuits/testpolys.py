"""Generators for the paper's test polynomials and random problem instances.

Section 6.1 defines three test polynomials (Table 2):

* ``p1`` — 16 variables; all 1,820 monomials that are products of exactly
  four distinct variables; 16,380 convolution jobs and 9,084 addition jobs;
* ``p2`` — 128 variables; 128 monomials of 64 variables each (every variable
  appears in exactly 64 monomials); 24,192 convolutions, 8,192 additions;
* ``p3`` — 128 variables; all 8,128 products of two distinct variables;
  24,256 additions (the paper also lists 24,256 convolutions; the
  ``N * (3*m - 3)`` formula gives 24,384 — see README, "Paper fidelity").

The generators return full :class:`repro.circuits.Polynomial` objects with
random series coefficients in a caller-chosen coefficient ring, or — for the
staging/performance experiments where only the *structure* matters — plain
support lists via the ``*_structure`` functions.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from ..series.random import random_series_vector
from ..series.series import PowerSeries
from .polynomial import Polynomial

__all__ = [
    "p1_structure",
    "p2_structure",
    "p3_structure",
    "structure_for",
    "make_p1",
    "make_p2",
    "make_p3",
    "make_polynomial_from_structure",
    "random_polynomial",
    "PAPER_POLYNOMIALS",
]


# --------------------------------------------------------------------- #
# structures (variable supports only)
# --------------------------------------------------------------------- #
def p1_structure() -> tuple[int, list[tuple[int, ...]]]:
    """``(n, supports)`` for the paper's first test polynomial.

    16 variables, all C(16, 4) = 1820 products of four distinct variables.
    """
    n = 16
    supports = [tuple(c) for c in combinations(range(n), 4)]
    return n, supports


def p2_structure() -> tuple[int, list[tuple[int, ...]]]:
    """``(n, supports)`` for the second test polynomial.

    128 variables and 128 monomials; monomial ``k`` uses the 64 cyclically
    consecutive variables ``k, k+1, ..., k+63 (mod 128)``, so every variable
    appears in exactly 64 monomials — which reproduces the paper's 8,192
    addition jobs.
    """
    n = 128
    width = 64
    supports = []
    for k in range(n):
        support = tuple(sorted((k + j) % n for j in range(width)))
        supports.append(support)
    return n, supports


def p3_structure() -> tuple[int, list[tuple[int, ...]]]:
    """``(n, supports)`` for the third test polynomial.

    128 variables, all C(128, 2) = 8128 products of two distinct variables.
    """
    n = 128
    supports = [tuple(c) for c in combinations(range(n), 2)]
    return n, supports


_STRUCTURES = {"p1": p1_structure, "p2": p2_structure, "p3": p3_structure}


def structure_for(name: str) -> tuple[int, list[tuple[int, ...]]]:
    """Look up a paper polynomial structure by name (``"p1"``/``"p2"``/``"p3"``)."""
    key = name.lower()
    if key not in _STRUCTURES:
        raise ValueError(f"unknown test polynomial {name!r}; choose from {sorted(_STRUCTURES)}")
    return _STRUCTURES[key]()


#: Table 2 of the paper: name -> (n, m, N, #convolutions, #additions).
PAPER_POLYNOMIALS: dict[str, tuple[int, int, int, int, int]] = {
    "p1": (16, 4, 1820, 16380, 9084),
    "p2": (128, 64, 128, 24192, 8192),
    "p3": (128, 2, 8128, 24256, 24256),
}


# --------------------------------------------------------------------- #
# full polynomials with random coefficients
# --------------------------------------------------------------------- #
def make_polynomial_from_structure(
    dimension: int,
    supports: Sequence[Sequence[int]],
    degree: int,
    kind: str = "float",
    precision=2,
    rng: random.Random | None = None,
) -> Polynomial:
    """Attach random series coefficients to a support structure."""
    rng = rng or random.Random(0)
    coefficients = random_series_vector(len(supports), degree, kind, precision, rng)
    constant = random_series_vector(1, degree, kind, precision, rng)[0]
    return Polynomial.from_supports(dimension, constant, list(supports), coefficients)


def make_p1(degree: int, kind: str = "float", precision=2, rng=None) -> Polynomial:
    """The full ``p1`` with random coefficient series of the given degree."""
    n, supports = p1_structure()
    return make_polynomial_from_structure(n, supports, degree, kind, precision, rng)


def make_p2(degree: int, kind: str = "float", precision=2, rng=None) -> Polynomial:
    """The full ``p2`` with random coefficient series of the given degree."""
    n, supports = p2_structure()
    return make_polynomial_from_structure(n, supports, degree, kind, precision, rng)


def make_p3(degree: int, kind: str = "float", precision=2, rng=None) -> Polynomial:
    """The full ``p3`` with random coefficient series of the given degree."""
    n, supports = p3_structure()
    return make_polynomial_from_structure(n, supports, degree, kind, precision, rng)


def random_polynomial(
    dimension: int,
    n_monomials: int,
    variables_per_monomial: int,
    degree: int,
    kind: str = "float",
    precision=2,
    rng: random.Random | None = None,
    max_exponent: int = 1,
) -> Polynomial:
    """A random polynomial for tests: distinct random supports, random series.

    ``max_exponent > 1`` produces non-multilinear monomials, exercising the
    common-factor path of the evaluators.
    """
    rng = rng or random.Random(0)
    if variables_per_monomial > dimension:
        raise ValueError("variables_per_monomial cannot exceed the dimension")
    supports: set[tuple[int, ...]] = set()
    attempts = 0
    while len(supports) < n_monomials:
        attempts += 1
        if attempts > 100 * n_monomials:
            raise ValueError("cannot find enough distinct supports; reduce n_monomials")
        support = tuple(sorted(rng.sample(range(dimension), variables_per_monomial)))
        supports.add(support)
    support_list = sorted(supports)
    coefficients = random_series_vector(len(support_list), degree, kind, precision, rng)
    constant = random_series_vector(1, degree, kind, precision, rng)[0]
    if max_exponent <= 1:
        return Polynomial.from_supports(dimension, constant, support_list, coefficients)
    from .monomial import Monomial

    monomials = []
    for support, coefficient in zip(support_list, coefficients):
        exponents = {v: rng.randint(1, max_exponent) for v in support}
        monomials.append(Monomial.make(coefficient, exponents))
    return Polynomial(dimension, constant, monomials)


def constant_one_series(degree: int, like=1.0) -> PowerSeries:
    """Convenience: the constant series 1 (used by several examples)."""
    return PowerSeries.one(degree, like)
