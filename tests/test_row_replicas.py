"""Limb-for-limb parity of the resident Newton state with the object path.

The resident Newton state keeps every lane's iterate as limb rows: the
correction ``z + dz`` and the predictor's Horner evaluation run on the rows
through :mod:`repro.md.replica`.  These tests hold each replica against the
scalar operator it replays — value *and* Python type, limb for limb — on
every ring the row path runs (float, double double, quad double, complex,
complex double double), for ring-valued and plain-scalar operands, on random
values and on adversarial ones: overlapping (unnormalised) limbs, term lists
``renormalize`` does not leave as they are, zeros of both signs, operands a
binade apart, and NaN/infinite lanes.
"""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest

from repro.core.tensor import RowSeries, unpack_scalars
from repro.homotopy import NewtonOptions, PolynomialSystem, newton_power_series_batch
from repro.homotopy.newton import refine_lanes
from repro.homotopy.pathtrack import PathPoint, _promote_step
from repro.circuits import parse_polynomial
from repro.md import ComplexMD, MultiDouble, replica
from repro.md.renorm import renormalize
from repro.series import PowerSeries

RINGS = [("float", 1), ("md", 2), ("md", 4), ("complex", 1), ("cmd", 2)]
WIDTH = 5

#: Quad-double limbs that ``renormalize`` returned but changes when applied
#: again (found by a seeded search over random term lists).
_NOT_IDEMPOTENT = [
    ("-0x1.5884450165b6fp-68", "0x1.8137bd2462480p-122", "0x1.0044b5cf3ad76p-175", "0x0.0p+0"),
    ("-0x1.6ca7c263aa498p-37", "-0x1.146e7f89f57cbp-111", "-0x1.e147151d9a93cp-165", "-0x1.0180000000000p-218"),
    ("-0x1.7080aceff9bd9p-97", "0x1.534a1b9f3189ep-151", "-0x1.6348dba3ea53bp-204", "0x1.5c00000000000p-258"),
    ("0x1.cf58bdfe82efdp-49", "0x1.800e22495fa74p-103", "-0x1.100c9b2e6799ep-157", "-0x1.00000067545a9p-210"),
]


def _hex(x: float) -> str:
    return "nan" if x != x else float(x).hex()


def _sig(value):
    """Type and limbs of a ring scalar (NaNs compare by being NaN)."""
    if isinstance(value, ComplexMD):
        return ("ComplexMD", _sig(value.real), _sig(value.imag))
    if isinstance(value, MultiDouble):
        return ("MultiDouble",) + tuple(_hex(x) for x in value.limbs)
    if isinstance(value, complex):
        return ("complex", _hex(value.real), _hex(value.imag))
    return (type(value).__name__, _hex(value))


class _Scalars:
    """Random and adversarial scalars of one ring."""

    def __init__(self, ring, seed: int):
        self.kind, self.limbs = ring
        self.rng = random.Random(seed)

    def double(self) -> float:
        rng = self.rng
        pick = rng.random()
        if pick < 0.06:
            return rng.choice([0.0, -0.0])
        if pick < 0.08:
            return rng.choice([math.inf, -math.inf, math.nan])
        return rng.choice([-1, 1]) * rng.random() * 2.0 ** rng.randint(-6, 6)

    def limbs_of(self, k: int) -> tuple:
        """Limbs as they come: normalised, overlapping, not idempotent, signed
        zeros, a NaN or infinity in any limb."""
        rng = self.rng
        pick = rng.random()
        lead = self.double()
        if pick < 0.35:
            return renormalize([lead] + [lead * rng.random() * 2.0 ** (-53 * i) for i in range(1, k + 2)], k)
        if pick < 0.7:
            # overlapping limbs, as a solve's VecSum output can hold them
            return (lead,) + tuple(
                lead * rng.uniform(-1, 1) * 2.0 ** -rng.randint(0, 60 * i) for i in range(1, k)
            )
        if pick < 0.8 and k == 4:
            return tuple(float.fromhex(x) for x in rng.choice(_NOT_IDEMPOTENT))
        if pick < 0.9:
            return (rng.choice([0.0, -0.0]),) * k
        tail = [rng.choice([0.0, -0.0, math.nan, math.inf, 1e-300]) for _ in range(k - 1)]
        return (lead,) + tuple(tail)

    def ring_value(self):
        if self.kind == "float":
            return self.double()
        if self.kind == "complex":
            return complex(self.double(), self.double())
        md = MultiDouble(self.limbs_of(self.limbs), self.limbs)
        if self.kind == "md":
            return md
        return ComplexMD.from_parts(md, MultiDouble(self.limbs_of(self.limbs), self.limbs))

    def plain_value(self):
        """A scalar the ring coerces: a float, for complex rings also a
        complex, and for complex multiple doubles also a ``MultiDouble``."""
        choices = ["float"]
        if self.kind in ("complex", "cmd"):
            choices.append("complex")
        if self.kind == "cmd":
            choices.append("md")
        pick = self.rng.choice(choices)
        if pick == "float":
            return self.double()
        if pick == "complex":
            return complex(self.double(), self.double())
        return MultiDouble(self.limbs_of(self.limbs), self.limbs)

    def near(self, value):
        """An operand a binade away from ``value``, of opposite sign."""
        scale = -0.5 * (1.0 + self.rng.uniform(-1e-15, 1e-15))
        if isinstance(value, ComplexMD):
            return ComplexMD.from_parts(value.real * scale, value.imag * scale)
        return value * scale


def _parts(value, kind: str, limbs: int):
    """``value`` as limbs of each plane of the ring, widened exactly."""
    if isinstance(value, ComplexMD):
        return [value.real.limbs, value.imag.limbs]
    if isinstance(value, MultiDouble):
        parts = [value.limbs + (0.0,) * (limbs - len(value.limbs))]
    elif isinstance(value, complex):
        parts = [(value.real,) + (0.0,) * (limbs - 1), (value.imag,) + (0.0,) * (limbs - 1)]
    else:
        parts = [(float(value),) + (0.0,) * (limbs - 1)]
    if kind in ("complex", "cmd") and len(parts) == 1:
        parts.append((0.0,) * limbs)
    return parts


def _rows(series, ring):
    """Stacked planes ``(limbs, count, width)`` of a list of series."""
    kind, limbs = ring
    count = 2 if kind in ("complex", "cmd") else 1
    out = np.zeros((count, limbs, len(series), len(series[0].coefficients)))
    for i, s in enumerate(series):
        for k, c in enumerate(s.coefficients):
            for p, limb_parts in enumerate(_parts(c, kind, limbs)):
                out[p, :, i, k] = limb_parts
    return tuple(out)


def _unpack_rows(planes, ring) -> list[list]:
    width = planes[0].shape[-1]
    columns = [unpack_scalars(tuple(p[..., k] for p in planes), ring) for k in range(width)]
    return [list(coefficients) for coefficients in zip(*columns)]


def _assert_same(got, want, where):
    assert [_sig(v) for v in got] == [_sig(v) for v in want], where


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r[0]}{r[1]}")
class TestSeriesAdd:
    """``replica.series_add`` is ``PowerSeries.__add__``: ``z + dz``."""

    def _check(self, ring, zs, dzs, plain):
        got = replica.series_add(
            _rows(zs, ring), replica.as_scalars(_rows(dzs, ring), ring), ring, plain
        )
        for i, (row, z, dz) in enumerate(zip(_unpack_rows(got, ring), zs, dzs)):
            _assert_same(row, (z + dz).coefficients, f"lane {i}")

    def test_ring_valued_state(self, ring):
        values = _Scalars(ring, 1)
        zs, dzs = [], []
        for lane in range(300):
            z = [values.ring_value() for _ in range(WIDTH)]
            if lane % 3 == 0:
                dz = [values.near(c) for c in z]
            else:
                dz = [values.ring_value() for _ in range(WIDTH)]
            zs.append(PowerSeries(z))
            dzs.append(PowerSeries(dz))
        self._check(ring, zs, dzs, None)

    def test_plain_scalar_state(self, ring):
        values = _Scalars(ring, 2)
        zs = [PowerSeries([values.plain_value() for _ in range(WIDTH)]) for _ in range(300)]
        dzs = [PowerSeries([values.ring_value() for _ in range(WIDTH)]) for _ in range(300)]
        self._check(ring, zs, dzs, np.ones((300, WIDTH), dtype=bool))

    def test_mixed_state_per_coefficient(self, ring):
        values = _Scalars(ring, 3)
        zs, masks = [], []
        for _ in range(200):
            coefficients, mask = [], []
            for _ in range(WIDTH):
                is_plain = values.rng.random() < 0.5
                coefficients.append(values.plain_value() if is_plain else values.ring_value())
                mask.append(is_plain)
            zs.append(PowerSeries(coefficients))
            masks.append(mask)
        dzs = [PowerSeries([values.ring_value() for _ in range(WIDTH)]) for _ in range(200)]
        self._check(ring, zs, dzs, np.array(masks))

    def test_float_starts_of_a_multiple_double_ring(self, ring):
        """The fleet's float starts: ``PowerSeries.constant(v)`` of floats,
        corrected by scalars of the ring."""
        values = _Scalars(ring, 4)
        zs = [PowerSeries.constant(values.double(), WIDTH - 1) for _ in range(100)]
        dzs = [PowerSeries([values.ring_value() for _ in range(WIDTH)]) for _ in range(100)]
        self._check(ring, zs, dzs, np.ones((100, WIDTH), dtype=bool))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r[0]}{r[1]}")
class TestSeriesEvaluate:
    """``replica.series_evaluate`` is ``series.evaluate(_promote_step(series, h))``."""

    def test_matches_horner(self, ring):
        values = _Scalars(ring, 5)
        series = [PowerSeries([values.ring_value() for _ in range(9)]) for _ in range(120)]
        steps = [values.rng.choice([values.rng.uniform(1e-4, 1.0), 0.1, 0.025, 2.0**-10]) for _ in series]
        got = replica.series_evaluate(_rows(series, ring), np.asarray(steps), ring)
        got = unpack_scalars(got, ring)
        want = [s.evaluate(_promote_step(s, h)) for s, h in zip(series, steps)]
        _assert_same(got, want, ring)

    def test_constant_rows_are_powerseries_constant(self, ring):
        values = _Scalars(ring, 6)
        scalars = [values.ring_value() for _ in range(60)]
        rows = _rows([PowerSeries([v]) for v in scalars], ring)
        got = replica.series_constant(tuple(p[..., 0] for p in rows), ring, WIDTH)
        for row, v in zip(_unpack_rows(got, ring), scalars):
            _assert_same(row, PowerSeries.constant(v, WIDTH - 1).coefficients, v)


def test_as_scalars_replays_the_complexmd_constructor():
    values = _Scalars(("cmd", 4), 7)
    raw = [(values.limbs_of(4), values.limbs_of(4)) for _ in range(200)]
    planes = (np.array([re for re, _ in raw]).T, np.array([im for _, im in raw]).T)
    got = unpack_scalars(replica.as_scalars(planes, ("cmd", 4)), ("cmd", 4))
    want = [ComplexMD(MultiDouble(re, 4), MultiDouble(im, 4)) for re, im in raw]
    _assert_same(got, want, "cmd4")


class TestRowSeries:
    def test_unpacks_once_on_first_read(self):
        planes = (np.array([[1.0, 2.0, 3.0], [2.0**-60, 0.0, 0.0]]),)
        series = RowSeries(planes, ("md", 2))
        assert series._rows is not None
        assert series.degree == 2
        assert series._rows is None
        assert series.coefficients[0].limbs == (1.0, 2.0**-60)
        assert (series + series).coefficients[1].limbs == (4.0, 0.0)

    def test_pickles_as_a_plain_series(self):
        series = RowSeries((np.array([[1.5, -0.0]]),), ("float", 1))
        copy = pickle.loads(pickle.dumps(series))
        assert type(copy) is PowerSeries
        assert [_hex(c) for c in copy.coefficients] == [_hex(1.5), _hex(-0.0)]


class TestPathPoint:
    def test_values_from_a_callable_are_built_once(self):
        calls = []

        def values():
            calls.append(1)
            return [MultiDouble.from_float(2.0, 2)]

        point = PathPoint(t=0.5, values=values, residual=1e-30, newton_iterations=3)
        assert not calls
        assert point.values == (MultiDouble.from_float(2.0, 2),)
        assert point.values is point.values and len(calls) == 1
        same = PathPoint(0.5, (MultiDouble.from_float(2.0, 2),), 1e-30, 3)
        assert point == same and hash(point) == hash(same)
        assert pickle.loads(pickle.dumps(point)) == same
        with pytest.raises(AttributeError):
            point.t = 1.0


class TestResidentNewton:
    """Corrections added in rows equal the object path's under `solver="scalar"`."""

    @staticmethod
    def _system(kind: str, precision: int) -> PolynomialSystem:
        """x1^2 + x1 x2 = 6 + t and x1 x2 - x2^2 = 1 (+ t/4 i), root (2, 1) at t = 0."""
        base = "md" if kind in ("md", "cmd") else "float"
        p = parse_polynomial("x1^2 + x1*x2 - 6", dimension=2, degree=6, kind=base, precision=precision)
        q = parse_polynomial("x1*x2 - x2^2 - 1", dimension=2, degree=6, kind=base, precision=precision)
        p.constant.coefficients[1] = p.constant.coefficients[1] - 1
        if kind in ("complex", "cmd"):

            def lift(c):
                return complex(c) if kind == "complex" else ComplexMD(c, 0.0)

            for poly in (p, q):
                for series in [poly.constant] + [m.coefficient for m in poly.monomials]:
                    series.coefficients[:] = [lift(c) for c in series.coefficients]
            quarter = 0.25j if kind == "complex" else ComplexMD(0.0, 0.25, precision)
            q.constant.coefficients[1] = q.constant.coefficients[1] + quarter
        return PolynomialSystem([p, q], mode="vectorized")

    # Plain complexes are left out: the batched one-limb complex division is
    # the textbook formula, Python's is Smith's, so the solves differ.
    @pytest.mark.parametrize("kind,precision", [("float", 1), ("md", 2), ("md", 4), ("cmd", 2)])
    def test_plain_and_ring_starts_match_the_scalar_solver(self, kind, precision):
        system = self._system(kind, precision)
        one = system.polynomials[0].constant.coefficients[0] * 0 + 1
        starts = [
            [PowerSeries.constant(2.1, 6), PowerSeries.constant(1.1, 6)],
            [PowerSeries.constant(one * 2.05, 6), PowerSeries.constant(one, 6)],
            [PowerSeries([1.9, 0.1] + [0] * 5), PowerSeries.constant(0.9, 6)],
        ]
        options = NewtonOptions(max_iterations=5, tolerance=1e-300)
        rows = newton_power_series_batch(system, starts, options=options)
        scalar = newton_power_series_batch(
            system, starts, options=options.override(solver="scalar")
        )
        for a, b in zip(rows, scalar):
            assert a.steps == b.steps
            for x, y in zip(a.solution, b.solution):
                _assert_same(x.coefficients, y.coefficients, kind)

    def test_a_lane_loaded_from_its_state_survives_a_repack(self):
        """Rebinding to a wider ring drops the tensor; a ``None`` lane is then
        packed from the series its state rows hold."""
        dd, qd = self._system("md", 2), self._system("md", 4)
        context = dd.make_context(1)
        solutions = [[PowerSeries.constant(2.1, 6), PowerSeries.constant(1.1, 6)]]
        refine_lanes(context, solutions, [0], NewtonOptions(max_iterations=2, tolerance=1e-300))
        refined = [series.coefficients for series in solutions[0]]
        context.rebind(qd.evaluator)
        context.update_inputs([None])
        assert context.ring == ("md", 4) and context.packs == 2
        fresh = qd.make_context(1)
        fresh.update_inputs([[PowerSeries(c) for c in refined]])
        for got, want in zip(context.run()[0], fresh.run()[0]):
            _assert_same(got.value.coefficients, want.value.coefficients, "value")
