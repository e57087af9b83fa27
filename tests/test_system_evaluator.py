"""Tests for the batched system-evaluation subsystem (repro.core.system)."""

from __future__ import annotations

import math
import random
import re
import warnings

import pytest

from repro.circuits.testpolys import random_polynomial
from repro.core import (
    MODES,
    PolynomialEvaluator,
    ScheduleCache,
    SystemEvaluator,
    fuse_schedules,
    schedule_for_polynomial,
)
from repro.errors import StagingError
from repro.gpusim import GPUSimulator
from repro.homotopy import NewtonOptions, PolynomialSystem, TrackOptions
from repro.md import MultiDouble
from repro.service import ServiceConfig, resolve_service_config
from repro.series import (
    random_complex_series,
    random_fraction_series,
    random_float_series,
    random_md_series,
    random_series_vector,
)

HOST_MODES = ("reference", "staged")
ALL_MODES = HOST_MODES + ("gpu",)


def _make_system(kind, rng, dimension=5, degree=3, equations=3, max_exponent=1, precision=2):
    return [
        random_polynomial(
            dimension, 4, 3, degree=degree, kind=kind, precision=precision,
            rng=rng, max_exponent=max_exponent,
        )
        for _ in range(equations)
    ]


def _make_inputs(kind, rng, dimension=5, degree=3, batch=3, precision=2):
    return [random_series_vector(dimension, degree, kind, precision, rng) for _ in range(batch)]


def _scalar_loop(polynomials, zs, mode, **kwargs):
    """The baseline the batched sweep must reproduce: one evaluator per equation."""
    evaluators = [PolynomialEvaluator(p, mode=mode, **kwargs) for p in polynomials]
    return [[evaluator.evaluate(z) for evaluator in evaluators] for z in zs]


class TestBatchedParity:
    @pytest.mark.parametrize("mode", HOST_MODES)
    @pytest.mark.parametrize("kind", ("float", "complex", "md", "fraction"))
    def test_batched_matches_scalar_loop_host_modes(self, mode, kind, rng):
        polynomials = _make_system(kind, rng)
        zs = _make_inputs(kind, rng)
        batched = SystemEvaluator(polynomials, mode=mode, cache=ScheduleCache()).evaluate_batch(zs)
        scalar = _scalar_loop(polynomials, zs, mode)
        for batch_row, scalar_row in zip(batched, scalar):
            for got, expected in zip(batch_row, scalar_row):
                assert got.max_difference(expected) == 0.0

    @pytest.mark.parametrize("kind,precision", (("float", 1), ("md", 2), ("md", 4)))
    def test_batched_matches_scalar_loop_gpu_mode(self, kind, precision, rng):
        polynomials = _make_system(kind, rng, precision=precision)
        zs = _make_inputs(kind, rng, precision=precision)
        batched = SystemEvaluator(
            polynomials, mode="gpu", device="V100", cache=ScheduleCache()
        ).evaluate_batch(zs)
        scalar = _scalar_loop(polynomials, zs, "gpu", device="V100")
        for batch_row, scalar_row in zip(batched, scalar):
            for got, expected in zip(batch_row, scalar_row):
                assert got.max_difference(expected) == 0.0

    def test_general_exponents_share_one_power_table(self, rng):
        """Non-multilinear systems agree exactly with the reference oracle."""
        polynomials = _make_system("fraction", rng, max_exponent=3)
        zs = _make_inputs("fraction", rng, batch=2)
        evaluator = SystemEvaluator(polynomials, mode="staged", cache=ScheduleCache())
        for z, row in zip(zs, evaluator.evaluate_batch(zs)):
            for polynomial, got in zip(polynomials, row):
                expected = PolynomialEvaluator(polynomial, mode="reference").evaluate(z)
                assert got.max_difference(expected) == 0.0

    def test_single_vector_evaluate_is_batch_of_one(self, rng):
        polynomials = _make_system("float", rng)
        z = _make_inputs("float", rng, batch=1)[0]
        evaluator = SystemEvaluator(polynomials, mode="staged", cache=ScheduleCache())
        single = evaluator.evaluate(z)
        batch = evaluator.evaluate_batch([z])[0]
        for a, b in zip(single, batch):
            assert a.max_difference(b) == 0.0
        assert single[0].metadata["batch"] == 1

    def test_empty_batch(self, rng):
        polynomials = _make_system("float", rng)
        assert SystemEvaluator(polynomials, cache=ScheduleCache()).evaluate_batch([]) == []


def _limbs(results) -> list:
    """Every value and gradient coefficient as the hex strings of its limbs."""

    def series(s):
        return [
            tuple(float(limb).hex() for limb in getattr(c, "limbs", (c,)))
            for c in s.coefficients
        ]

    return [
        [(series(r.value), [series(g) for g in r.gradient]) for r in row] for row in results
    ]


class TestGpuMode:
    """The gpu mode computes what the vectorized sweep whose launches it
    prices computes, in the same ring, as silently at the edges."""

    @pytest.mark.parametrize("value", (math.inf, 1e308), ids=("infinite", "overflowing"))
    @pytest.mark.parametrize("kind,precision", (("float", 1), ("md", 2), ("md", 4)))
    def test_non_finite_inputs_follow_vectorized(self, kind, precision, value, rng):
        polynomials = _make_system(kind, rng, precision=precision)
        zs = _make_inputs(kind, rng, precision=precision)
        zs[1][2].coefficients[0] = (
            value if kind == "float" else MultiDouble((value,) + (0.0,) * (precision - 1), precision)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gpu, vectorized = (
                SystemEvaluator(polynomials, mode=mode, cache=ScheduleCache()).evaluate_batch(zs)
                for mode in ("gpu", "vectorized")
            )
        assert _limbs(gpu) == _limbs(vectorized)

    def test_mixed_rings_compute_in_their_join(self, rng):
        """A float-coefficient system at double-double inputs runs in double
        doubles, and is priced at two limbs."""
        polynomials = _make_system("float", rng)
        zs = _make_inputs("md", rng, precision=2)
        results = {
            mode: SystemEvaluator(
                polynomials, mode=mode, device="P100", cache=ScheduleCache()
            ).evaluate_batch(zs)
            for mode in ("reference", "staged", "gpu")
        }
        fused = SystemEvaluator(polynomials, cache=ScheduleCache()).fused
        predicted = GPUSimulator("P100").predict(fused, precision=2, batch=len(zs))
        for mode in ("staged", "gpu"):
            for got_row, expected_row in zip(results[mode], results["reference"]):
                for got, expected in zip(got_row, expected_row):
                    assert got.max_difference(expected) < 2.0 ** (-52 * 2 + 20)
        for row in results["gpu"]:
            for result in row:
                assert result.metadata["precision_limbs"] == 2
                assert result.metadata["timings"] == predicted


class TestFusedSchedule:
    def test_fused_launch_sizes_are_sums_of_equation_layers(self, rng):
        polynomials = _make_system("float", rng, equations=4)
        schedules = [schedule_for_polynomial(p) for p in polynomials]
        fused = fuse_schedules(schedules)
        n_layers = max(len(s.convolution_launches) for s in schedules)
        for level in range(n_layers):
            expected = sum(
                s.convolution_launches[level]
                for s in schedules
                if level < len(s.convolution_launches)
            )
            assert fused.convolution_launches[level] == expected
        assert fused.convolution_job_count == sum(s.convolution_job_count for s in schedules)
        assert fused.addition_job_count == sum(s.addition_job_count for s in schedules)
        # Fusion shrinks the launch count but never the job count.
        assert fused.total_launches < sum(s.total_launches for s in schedules)

    def test_fused_slots_are_disjoint_shifts(self, rng):
        polynomials = _make_system("float", rng)
        fused = fuse_schedules([schedule_for_polynomial(p) for p in polynomials])
        seen_outputs = set()
        for layer in fused.convolution_layers:
            for job in layer:
                assert 0 <= job.output < fused.total_slots
        for offset, schedule in zip(fused.offsets, fused.schedules):
            for slot in range(schedule.layout.total_slots):
                assert offset + slot not in seen_outputs
                seen_outputs.add(offset + slot)

    def test_fused_output_maps_match_per_equation_schedules(self, rng):
        """The public output maps are the offset-shifted per-equation slots."""
        polynomials = _make_system("float", rng)
        fused = fuse_schedules([schedule_for_polynomial(p) for p in polynomials])
        for equation, (offset, schedule) in enumerate(zip(fused.offsets, fused.schedules)):
            assert fused.value_slots[equation] == offset + schedule.value_slot
            assert fused.gradient_slots[equation] == {
                variable: offset + slot
                for variable, slot in schedule.additions.gradient_slots.items()
            }

    def test_fusing_inconsistent_schedules_rejected(self, rng):
        p = random_polynomial(4, 3, 2, degree=2, kind="float", rng=rng)
        q = random_polynomial(4, 3, 2, degree=4, kind="float", rng=rng)
        r = random_polynomial(5, 3, 2, degree=2, kind="float", rng=rng)
        with pytest.raises(StagingError):
            fuse_schedules([schedule_for_polynomial(p), schedule_for_polynomial(q)])
        with pytest.raises(StagingError):
            fuse_schedules([schedule_for_polynomial(p), schedule_for_polynomial(r)])
        with pytest.raises(StagingError):
            fuse_schedules([])

    def test_gpu_timing_accounts_fused_wide_launches(self, rng):
        polynomials = _make_system("md", rng)
        zs = _make_inputs("md", rng, batch=3)
        evaluator = SystemEvaluator(polynomials, mode="gpu", cache=ScheduleCache())
        one = evaluator.evaluate_batch(zs[:1])[0][0].metadata["timings"]
        three = evaluator.evaluate_batch(zs)[0][0].metadata["timings"]
        # Same number of launches for the whole batch...
        assert one.n_launches == three.n_launches == evaluator.fused.total_launches
        # ...each carrying batch-times as many blocks.
        for launch1, launch3 in zip(one.launches, three.launches):
            assert launch3.blocks == 3 * launch1.blocks
        # Wide launches amortise the per-launch overhead: a batch of three
        # costs far less wall clock than three single evaluations.
        assert three.wall_clock_ms < 2.0 * one.wall_clock_ms


class TestScheduleCache:
    def test_hit_miss_accounting(self, rng):
        cache = ScheduleCache()
        polynomials = _make_system("float", rng)
        SystemEvaluator(polynomials, cache=cache)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        SystemEvaluator(polynomials, cache=cache)
        assert cache.stats()["hits"] == 1 and cache.stats()["entries"] == 1

    def test_structure_key_ignores_coefficient_values(self, rng):
        cache = ScheduleCache()
        first = _make_system("float", rng)
        # Same supports/exponents, different random coefficients.
        second = [
            p.map_coefficients(lambda series: series.scale(2.0)) for p in first
        ]
        a = SystemEvaluator(first, cache=cache)
        b = SystemEvaluator(second, cache=cache)
        assert a.fused is b.fused
        assert cache.stats() == {
            "entries": 1, "maxsize": 128, "hits": 1, "misses": 1, "hit_rate": 0.5,
            "evictions": 0, "build_waits": 0,
        }

    def test_lru_eviction(self, rng):
        cache = ScheduleCache(maxsize=1)
        small = _make_system("float", rng, equations=1)
        large = _make_system("float", rng, equations=2)
        SystemEvaluator(small, cache=cache)
        SystemEvaluator(large, cache=cache)   # evicts `small`
        SystemEvaluator(small, cache=cache)   # must restage
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 3 and stats["hits"] == 0
        # Each restage evicted the previous resident entry.
        assert stats["evictions"] == 2

    def test_eviction_accounting_under_lru_bound(self, rng):
        """Every entry pushed past ``maxsize`` counts exactly one eviction."""
        cache = ScheduleCache(maxsize=2)
        systems = [
            _make_system("float", rng, equations=n) for n in (1, 2, 3, 4)
        ]
        for polynomials in systems:
            SystemEvaluator(polynomials, cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["misses"] == 4
        assert stats["evictions"] == 2
        # Touching a survivor is a hit and never evicts.
        SystemEvaluator(systems[-1], cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["evictions"] == 2

    def test_install_entries_eviction_accounting(self, rng):
        donor = ScheduleCache()
        for n in (1, 2, 3):
            SystemEvaluator(_make_system("float", rng, equations=n), cache=donor)
        cache = ScheduleCache(maxsize=2)
        cache.install_entries(donor.export_entries())
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # Installed entries are neither hits nor misses.
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_build_wait_accounting(self, rng):
        """Threads racing on one key record build waits for the losers."""
        import threading

        cache = ScheduleCache()
        polynomials = _make_system("float", rng)
        barrier = threading.Barrier(4)

        def build():
            barrier.wait()
            SystemEvaluator(polynomials, cache=cache)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        # Racers that queued on the in-flight build are counted; threads that
        # arrived after the entry landed hit on the fast path instead.
        assert 0 <= stats["build_waits"] <= 3
        assert stats["build_waits"] + stats["misses"] <= 4

    def test_newton_clients_share_staging_across_rebuilds(self):
        """Rebuilding a structurally identical system hits the cache."""
        cache = ScheduleCache()
        degree = 3
        for _step in range(4):  # what a path tracker does at every step
            polynomials = _make_system("float", random.Random(7), degree=degree)
            PolynomialSystem(polynomials, mode="staged", cache=cache)
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleCache(maxsize=0)


class TestValidation:
    @pytest.mark.parametrize("mode", ("parallel", "cuda"))
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda p, mode: SystemEvaluator([p], mode=mode), id="SystemEvaluator"),
            pytest.param(
                lambda p, mode: PolynomialEvaluator(p, mode=mode), id="PolynomialEvaluator"
            ),
            pytest.param(lambda p, mode: PolynomialSystem([p], mode=mode), id="PolynomialSystem"),
            pytest.param(lambda p, mode: ServiceConfig(mode=mode), id="ServiceConfig"),
            pytest.param(
                lambda p, mode: resolve_service_config(environ={"REPRO_SERVICE_MODE": mode}),
                id="REPRO_SERVICE_MODE",
            ),
            pytest.param(lambda p, mode: NewtonOptions(mode=mode), id="NewtonOptions"),
            pytest.param(lambda p, mode: TrackOptions(mode=mode), id="TrackOptions"),
        ],
    )
    def test_unknown_mode_fails_when_built(self, build, mode, rng):
        """Every mode-taking object checks the one mode list on construction."""
        p = random_polynomial(3, 3, 2, degree=2, kind="float", rng=rng)
        with pytest.raises(ValueError, match=re.escape(f"choose from {MODES}")):
            build(p, mode)

    def test_empty_system(self):
        with pytest.raises(StagingError):
            SystemEvaluator([])

    def test_mismatched_dimension_and_degree(self, rng):
        p = random_polynomial(3, 3, 2, degree=2, kind="float", rng=rng)
        q = random_polynomial(4, 3, 2, degree=2, kind="float", rng=rng)
        with pytest.raises(StagingError):
            SystemEvaluator([p, q])
        r = random_polynomial(3, 3, 2, degree=3, kind="float", rng=rng)
        with pytest.raises(StagingError):
            SystemEvaluator([p, r])

    def test_bad_inputs_rejected(self, rng):
        polynomials = _make_system("float", rng, dimension=5, degree=2)
        evaluator = SystemEvaluator(polynomials, cache=ScheduleCache())
        with pytest.raises(StagingError):
            evaluator.evaluate([random_float_series(2, rng)] * 4)
        with pytest.raises(StagingError):
            evaluator.evaluate_batch([[random_float_series(3, rng)] * 5])


class TestPolynomialSystemIntegration:
    def test_system_evaluate_batch_matches_evaluate(self, rng):
        degree = 3
        polynomials = _make_system("fraction", rng, degree=degree)
        system = PolynomialSystem(polynomials, mode="staged", cache=ScheduleCache())
        zs = [
            [random_fraction_series(degree, rng) for _ in range(system.dimension)]
            for _ in range(2)
        ]
        batched = system.evaluate_batch(zs)
        for z, row in zip(zs, batched):
            for got, expected in zip(row, system.evaluate(z)):
                assert got.max_difference(expected) == 0.0
        summary = system.job_summary()
        assert summary["equations"] == len(polynomials)
        assert summary["fused_launches"] < summary["unfused_launches"]

    def test_complex_system_host_parity(self, rng):
        polynomials = _make_system("complex", rng, dimension=4)
        system = PolynomialSystem(polynomials, mode="staged", cache=ScheduleCache())
        z = [random_complex_series(3, rng) for _ in range(4)]
        reference = PolynomialSystem(polynomials, mode="reference", cache=ScheduleCache())
        for got, expected in zip(system.evaluate(z), reference.evaluate(z)):
            assert got.max_difference(expected) < 1e-12

    def test_map_inherits_execution_configuration(self, rng):
        cache = ScheduleCache()
        polynomials = _make_system("float", rng)
        system = PolynomialSystem(polynomials, mode="gpu", device="P100", cache=cache)
        mapped = system.map(lambda p: p.map_coefficients(lambda s: s.scale(2.0)))
        assert mapped.mode == "gpu"
        assert mapped.evaluator.device == "P100"
        assert mapped.evaluator.cache is cache
        overridden = system.map(lambda p: p, mode="staged")
        assert overridden.mode == "staged"
        assert overridden.evaluator.cache is cache

    def test_md_system_all_modes_agree(self, rng):
        polynomials = _make_system("md", rng, dimension=4, precision=2)
        z = [random_md_series(3, 2, rng) for _ in range(4)]
        results = {
            mode: SystemEvaluator(
                polynomials, mode=mode, cache=ScheduleCache()
            ).evaluate(z)
            for mode in ALL_MODES
        }
        for mode in ("staged", "gpu"):
            for got, expected in zip(results[mode], results["reference"]):
                assert got.max_difference(expected) < 2.0 ** (-52 * 2 + 20)
