"""Tests of the coalescing asynchronous solve service (``repro.service``)."""

from __future__ import annotations

import asyncio
import json
import math
import random
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro import (
    NewtonOptions,
    PowerSeries,
    ScheduleCache,
    ServiceConfig,
    SolveEngine,
    SolveRequest,
    TrackRequest,
    parse_polynomial,
)
from repro.core import EvalContext
from repro.errors import ServiceError, ServiceOverloadedError, SingularSystemError
from repro.gpusim import TimingModel
from repro.homotopy import TrackOptions
from repro.homotopy.newton import newton_power_series_batch
from repro.homotopy.systems import PolynomialSystem
from repro.md import MultiDouble
from repro.service import (
    DEFAULT_SERVICE_CONFIG,
    ContextPool,
    resolve_service_config,
)
from repro.service.http import ServiceServer

DEGREE = 4
LIMBS = 2
OPTIONS = NewtonOptions(max_iterations=8, tolerance=1.0e-28)


def _md(value: float) -> MultiDouble:
    return MultiDouble.from_float(float(value), LIMBS)


def make_system(a: float = 4.0, b: float = 1.0, mode: str = "vectorized"):
    """``x1^2 + x2^2 = a``, ``x1*x2 = b`` — one shared structure key."""
    circle = parse_polynomial(
        "x1^2 + x2^2 - 4", dimension=2, degree=DEGREE, kind="md", precision=LIMBS
    )
    hyperbola = parse_polynomial(
        "x1*x2 - 1", dimension=2, degree=DEGREE, kind="md", precision=LIMBS
    )
    circle.constant.coefficients[0] = _md(-a)
    hyperbola.constant.coefficients[0] = _md(-b)
    return PolynomialSystem([circle, hyperbola], mode=mode)


def make_initial(x: float = 1.9, y: float = 0.55):
    return [PowerSeries.constant(_md(x), DEGREE), PowerSeries.constant(_md(y), DEGREE)]


def make_request(i: int = 0, **kwargs) -> SolveRequest:
    return SolveRequest(
        system=make_system(4.0 + 0.01 * i, 1.0 + 0.005 * i),
        initial=make_initial(),
        options=OPTIONS,
        **kwargs,
    )


def make_cubic_request() -> SolveRequest:
    """``x1^3 = 2`` — a second structure key."""
    cubic = parse_polynomial(
        "x1^3 - 2", dimension=1, degree=DEGREE, kind="md", precision=LIMBS
    )
    return SolveRequest(
        system=PolynomialSystem([cubic], mode="vectorized"),
        initial=[PowerSeries.constant(_md(1.25), DEGREE)],
        options=OPTIONS,
    )


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# layered configuration
# --------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_are_fully_resolved(self):
        config = resolve_service_config(environ={})
        assert config == DEFAULT_SERVICE_CONFIG
        assert all(value is not None for value in config.as_dict().values())

    def test_env_layer_overrides_defaults(self):
        config = resolve_service_config(
            environ={"REPRO_SERVICE_WINDOW_MS": "7.5", "REPRO_SERVICE_MAX_BATCH": "4"}
        )
        assert config.window_ms == 7.5
        assert config.max_batch == 4
        assert config.max_queue == DEFAULT_SERVICE_CONFIG.max_queue

    def test_file_layer_sits_below_env(self, tmp_path):
        path = tmp_path / "service.json"
        path.write_text(json.dumps({"window_ms": 9.0, "workers": 2}))
        config = resolve_service_config(
            environ={
                "REPRO_SERVICE_CONFIG": str(path),
                "REPRO_SERVICE_WINDOW_MS": "3.0",
            }
        )
        assert config.window_ms == 3.0  # env beats file
        assert config.workers == 2  # file beats defaults

    def test_explicit_overrides_win(self):
        config = resolve_service_config(
            environ={"REPRO_SERVICE_MAX_BATCH": "4"}, max_batch=32
        )
        assert config.max_batch == 32

    def test_none_means_inherit(self):
        layered = ServiceConfig(max_batch=8).merged_onto(DEFAULT_SERVICE_CONFIG)
        assert layered.max_batch == 8
        assert layered.window_ms == DEFAULT_SERVICE_CONFIG.window_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(window_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(mode="warp")
        with pytest.raises(TypeError):
            resolve_service_config(environ={}, bogus=1)

    def test_per_request_override_layer(self):
        request = make_request(overrides={"window_ms": 0.0})
        engine = SolveEngine(window_ms=5.0, max_batch=4)
        merged = resolve_service_config(layer=request.overrides)
        assert merged.window_ms == 0.0
        assert engine.config.window_ms == 5.0


# --------------------------------------------------------------------- #
# engine correctness and coalescing
# --------------------------------------------------------------------- #
class TestEngine:
    def test_single_request_matches_solo_newton(self):
        engine = SolveEngine(window_ms=0.0, max_batch=4, workers=1)
        response = engine.solve(make_request(0))
        solo = newton_power_series_batch(
            make_system(4.0, 1.0), [make_initial()], options=OPTIONS
        )[0]
        assert response.ok
        assert response.batch_fill == 1
        assert not response.coalesced
        assert response.converged == solo.converged
        for got, want in zip(response.solution, solo.solution):
            assert [c.limbs for c in got.coefficients] == [
                c.limbs for c in want.coefficients
            ]

    def test_concurrent_identical_structures_coalesce(self):
        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=8, workers=1)
            async with engine:
                responses = await asyncio.gather(
                    *[engine.submit(make_request(i)) for i in range(6)]
                )
                stats = engine.stats()
            return responses, stats

        responses, stats = run(main())
        assert [r.batch_fill for r in responses] == [6] * 6
        assert all(r.coalesced for r in responses)
        assert stats["flushes"] == 1
        assert stats["coalesced_requests"] == 6

    def test_bitwise_parity_coalesced_vs_solo(self):
        """Satellite: every coalesced lane is limb-for-limb the solo result."""

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=8, workers=1)
            async with engine:
                return await asyncio.gather(
                    *[engine.submit(make_request(i)) for i in range(6)]
                )

        responses = run(main())
        assert all(r.batch_fill == 6 for r in responses)  # short batch: 6 < 8
        for i, response in enumerate(responses):
            solo = newton_power_series_batch(
                make_system(4.0 + 0.01 * i, 1.0 + 0.005 * i),
                [make_initial()],
                options=OPTIONS,
            )[0]
            assert response.converged == solo.converged
            assert response.iterations == solo.iterations
            assert response.residual == solo.final_residual
            for got, want in zip(response.solution, solo.solution):
                got_limbs = [c.limbs for c in got.coefficients]
                want_limbs = [c.limbs for c in want.coefficients]
                assert got_limbs == want_limbs, f"lane {i} differs from solo"

    def test_full_batch_flushes_without_window(self):
        async def main():
            engine = SolveEngine(window_ms=10_000.0, max_batch=4, workers=1)
            async with engine:
                return await asyncio.gather(
                    *[engine.submit(make_request(i)) for i in range(4)]
                )

        responses = run(main())
        assert [r.batch_fill for r in responses] == [4] * 4

    def test_distinct_structures_do_not_coalesce(self):
        cubic = parse_polynomial(
            "x1^3 - 2", dimension=1, degree=DEGREE, kind="md", precision=LIMBS
        )
        other = SolveRequest(
            system=PolynomialSystem([cubic], mode="vectorized"),
            initial=[PowerSeries.constant(_md(1.25), DEGREE)],
            options=OPTIONS,
        )

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=8, workers=2)
            async with engine:
                return await asyncio.gather(
                    engine.submit(make_request(0)), engine.submit(other)
                )

        first, second = run(main())
        assert first.batch_fill == 1
        assert second.batch_fill == 1
        assert first.ok and second.ok

    def test_distinct_options_do_not_coalesce(self):
        loose = SolveRequest(
            system=make_system(),
            initial=make_initial(),
            options=NewtonOptions(max_iterations=2, tolerance=1.0e-6),
        )

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=8, workers=2)
            async with engine:
                return await asyncio.gather(
                    engine.submit(make_request(0)), engine.submit(loose)
                )

        first, second = run(main())
        assert first.batch_fill == 1
        assert second.batch_fill == 1

    def test_pool_reuses_warm_context_packs_stay_flat(self):
        """Satellite: repeat traffic rebinds the pooled context, never repacks."""

        async def main():
            engine = SolveEngine(window_ms=5.0, max_batch=4, workers=1)
            async with engine:
                for round_ in range(4):
                    await asyncio.gather(
                        *[
                            engine.submit(make_request(10 * round_ + i))
                            for i in range(3)
                        ]
                    )
                return engine.stats()

        stats = run(main())
        pool = stats["pool"]
        assert pool["structures"] == 1
        assert pool["misses"] == 1  # one context built at warmup...
        assert pool["hits"] == 3  # ...and checked out warm ever after
        assert pool["idle_packs"] == 1  # exactly one pack, rounds 2-4 rebind

    def test_backpressure_rejects_past_max_queue(self):
        async def main():
            engine = SolveEngine(
                window_ms=10_000.0, max_batch=64, max_queue=3, workers=1
            )
            async with engine:
                pending = [
                    asyncio.ensure_future(engine.submit(make_request(i)))
                    for i in range(3)
                ]
                await asyncio.sleep(0)  # let the submits enqueue
                with pytest.raises(ServiceOverloadedError):
                    await engine.submit(make_request(99))
                for key in list(engine._buckets):
                    engine._flush_now(key)
                responses = await asyncio.gather(*pending)
                stats = engine.stats()
            return responses, stats

        responses, stats = run(main())
        assert all(r.ok for r in responses)
        assert stats["rejected"] == 1

    def test_submit_requires_running_engine(self):
        engine = SolveEngine()
        with pytest.raises(ServiceError):
            run(engine.submit(make_request()))

    def test_submit_rejects_non_requests(self):
        async def main():
            async with SolveEngine() as engine:
                await engine.submit("not a request")

        with pytest.raises(ServiceError):
            run(main())

    def test_malformed_request_shapes(self):
        with pytest.raises(ServiceError):
            SolveRequest(system=make_system(), initial=[make_initial()[0]])
        with pytest.raises(ServiceError):
            SolveRequest(system="x1^2", initial=make_initial())
        with pytest.raises(ServiceError):
            TrackRequest(family="not-callable", start=[1.0])

    def test_non_tensor_ring_falls_back_to_solo(self):
        """Exact fraction coefficients cannot pack; the flush still coalesces,
        through the Newton kernel's delegating branch."""
        fraction = parse_polynomial(
            "x1^2 - 2", dimension=1, degree=DEGREE, kind="fraction"
        )
        from fractions import Fraction

        request = SolveRequest(
            system=PolynomialSystem([fraction], mode="vectorized"),
            initial=[PowerSeries.constant(Fraction(3, 2), DEGREE)],
            options=NewtonOptions(max_iterations=4, tolerance=0.0),
        )
        assert request.ring() is None

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                return await asyncio.gather(
                    engine.submit(request), engine.submit(request)
                )

        first, second = run(main())
        assert first.ok and second.ok
        assert first.batch_fill == 2  # still bucketed together...
        assert first.solution[0].coefficients[0] == second.solution[0].coefficients[0]

    def test_singular_lane_fails_alone(self):
        """A singular Newton system fails its own lane, not its batchmates.

        Both requests share one structure, ``x1^2 + c``, so they flush in one
        bucket: with c = 1 from x = 0 the Jacobian 2x vanishes at the very
        first step, while c = -2 from x = 1.25 converges to sqrt(2)."""

        def request(c: float, start: float) -> SolveRequest:
            polynomial = parse_polynomial(
                "x1^2 + 1", dimension=1, degree=DEGREE, kind="md", precision=LIMBS
            )
            polynomial.constant.coefficients[0] = _md(c)
            return SolveRequest(
                system=PolynomialSystem([polynomial], mode="vectorized"),
                initial=[PowerSeries.constant(_md(start), DEGREE)],
                options=OPTIONS,
            )

        bad, good = request(1.0, 0.0), request(-2.0, 1.25)
        assert bad.coalesce_key("vectorized") == good.coalesce_key("vectorized")

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                return await asyncio.gather(engine.submit(bad), engine.submit(good))

        first, second = run(main())
        assert first.batch_fill == second.batch_fill == 2
        assert isinstance(first.error, SingularSystemError)
        assert second.ok and second.converged
        solo = newton_power_series_batch(good.system, [good.initial], options=OPTIONS)[0]
        assert second.iterations == solo.iterations
        for got, want in zip(second.solution, solo.solution):
            assert [c.limbs for c in got.coefficients] == [
                c.limbs for c in want.coefficients
            ]

    def test_diverged_lane_fails_alone_with_warnings_as_errors(self):
        """A lane started at 1e200 overflows in every kernel, but NumPy's
        floating-point warnings stay off there: with every warning an error,
        the coalesced flush still answers its two healthy lanes limb for
        limb like their solo solves, and the diverged lane as not converged."""

        def request(start: float) -> SolveRequest:
            polynomial = parse_polynomial(
                "x1^2 - 2", dimension=1, degree=DEGREE, kind="md", precision=LIMBS
            )
            return SolveRequest(
                system=PolynomialSystem([polynomial], mode="vectorized"),
                initial=[PowerSeries.constant(_md(start), DEGREE)],
                options=OPTIONS,
            )

        starts = (1.25, 1.0e200, 1.5)
        requests = [request(start) for start in starts]

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                return await asyncio.gather(*[engine.submit(r) for r in requests])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            responses = run(main())
            solos = [
                newton_power_series_batch(r.system, [r.initial], options=OPTIONS)[0]
                for r in requests
            ]
        assert [r.batch_fill for r in responses] == [3, 3, 3]
        assert all(r.ok for r in responses)
        assert not responses[1].converged and not solos[1].converged
        for k in (0, 2):
            response, solo = responses[k], solos[k]
            assert response.converged and solo.converged
            assert response.iterations == solo.iterations
            for got, want in zip(response.solution, solo.solution):
                assert [c.limbs for c in got.coefficients] == [
                    c.limbs for c in want.coefficients
                ]

    def test_scalar_solver_option_is_honoured(self, monkeypatch):
        """``NewtonOptions(solver="scalar")`` solves each coalesced lane with
        ``lu_solve``, limb for limb equal to the solo solves."""
        import repro.homotopy.newton as newton_module

        calls = {"count": 0}
        original = newton_module.lu_solve

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(newton_module, "lu_solve", counting)
        options = OPTIONS.override(solver="scalar")
        requests = [
            SolveRequest(
                system=make_system(4.0 + 0.01 * i, 1.0 + 0.005 * i),
                initial=make_initial(),
                options=options,
            )
            for i in range(3)
        ]

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                return await asyncio.gather(*[engine.submit(r) for r in requests])

        responses = run(main())
        assert [r.batch_fill for r in responses] == [3, 3, 3]
        # One scalar solve per lane and iteration that did not converge.
        assert calls["count"] == sum(r.iterations - r.converged for r in responses)
        assert calls["count"] > 0
        for request, response in zip(requests, responses):
            solo = newton_power_series_batch(
                request.system, [request.initial], options=options
            )[0]
            assert response.converged == solo.converged
            assert response.iterations == solo.iterations
            for got, want in zip(response.solution, solo.solution):
                assert [c.limbs for c in got.coefficients] == [
                    c.limbs for c in want.coefficients
                ]

    def test_coalesce_ledger_pairs_resident_flushes_only(self):
        """Every flush is timed, but only a resident batched-solve flush is
        paired with the coalesced-sweep prediction in the ledger."""
        from fractions import Fraction

        from repro.obs import get_telemetry

        fraction = parse_polynomial("x1^2 - 2", dimension=1, degree=DEGREE, kind="fraction")
        exact = SolveRequest(
            system=PolynomialSystem([fraction], mode="vectorized"),
            initial=[PowerSeries.constant(Fraction(3, 2), DEGREE)],
            options=NewtonOptions(max_iterations=4, tolerance=0.0),
        )
        scalar = [
            SolveRequest(
                system=make_system(4.0 + 0.01 * i),
                initial=make_initial(),
                options=OPTIONS.override(solver="scalar"),
            )
            for i in range(2)
        ]
        flushes = [[make_request(0), make_request(1)], scalar, [exact, exact]]

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                for pair in flushes:
                    await asyncio.gather(*[engine.submit(r) for r in pair])

        tel = get_telemetry()
        tel.reset()
        try:
            with tel.overridden(True):
                run(main())
            snap = tel.snapshot()
        finally:
            tel.reset()
        solves = [event for event in snap["events"] if event[0] == "service.solve"]
        assert [event[5]["fill"] for event in solves] == [2, 2, 2]
        assert [row[0] for row in snap["ledger"]].count("coalesce") == 1

    def test_failed_flush_discards_its_context(self, monkeypatch):
        """A flush that raises mid-update answers every lane with the error
        and drops its half-updated context: the next request of the key packs
        a fresh one and converges to the closed-form root."""
        original = EvalContext.update_inputs
        failures = {"left": 1}

        def failing_once(self, zs):
            original(self, zs)
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("update failed")

        monkeypatch.setattr(EvalContext, "update_inputs", failing_once)

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=4, workers=1)
            async with engine:
                failed = await asyncio.gather(
                    *[engine.submit(make_request(i)) for i in range(3)]
                )
                misses = engine.pool.misses
                after = await engine.submit(make_request(3))
                return failed, misses, after, engine.stats()

        failed, misses, after, stats = run(main())
        assert [r.batch_fill for r in failed] == [3, 3, 3]
        assert all(isinstance(r.error, RuntimeError) for r in failed)
        pool = stats["pool"]
        assert pool["misses"] == misses + 1  # a fresh context, not the poisoned one
        assert pool["discards"] == 1
        assert pool["checked_out"] == 0
        assert after.ok and after.converged
        a, b = 4.0 + 0.01 * 3, 1.0 + 0.005 * 3  # make_request(3)'s circle and hyperbola
        root = (
            (math.sqrt(a + 2 * b) + math.sqrt(a - 2 * b)) / 2,
            (math.sqrt(a + 2 * b) - math.sqrt(a - 2 * b)) / 2,
        )
        for series, value in zip(after.solution, root):
            assert abs(float(series.constant_term()) - value) < 1.0e-14

    def test_stats_shape(self):
        engine = SolveEngine(window_ms=0.0, max_batch=2, workers=1)
        engine.solve(make_request())
        stats = engine.stats()
        assert stats["requests"] == 1
        assert stats["responses"] == 1
        assert stats["flushes"] == 1
        assert "cache" in stats and "build_waits" in stats["cache"]
        assert stats["config"]["max_batch"] == 2


# --------------------------------------------------------------------- #
# executor-aware flushing: windows that close while every worker is busy
# --------------------------------------------------------------------- #
#: Bound, in seconds, on every wait of the deferral tests.
TIMEOUT = 20.0


class HeldFlushes:
    """Hold the first ``count`` flushes in their executor thread until released.

    Patches ``SolveEngine._solve_bucket``.  A released flush solves as usual,
    or raises ``error`` when one is given.
    """

    def __init__(self, monkeypatch, count: int = 1, error: Exception | None = None):
        self.gate = threading.Event()
        self._left = count
        self._lock = threading.Lock()
        solve_bucket = SolveEngine._solve_bucket

        def held(engine, bucket):
            with self._lock:
                hold = self._left > 0
                self._left -= hold
            if hold:
                if not self.gate.wait(TIMEOUT):
                    raise TimeoutError("a held flush was never released")
                if error is not None:
                    raise error
            return solve_bucket(engine, bucket)

        monkeypatch.setattr(SolveEngine, "_solve_bucket", held)

    def release(self) -> None:
        self.gate.set()


async def until(condition) -> None:
    """Yield to the event loop until ``condition()`` holds, for at most ``TIMEOUT``."""
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting for the engine"
        await asyncio.sleep(0.001)


def handed_off(engine, requests: int) -> bool:
    """``requests`` were admitted and every bucket has left for a worker."""
    stats = engine.stats()
    return stats["requests"] == requests and stats["open_buckets"] == 0


def submit(engine, request) -> asyncio.Future:
    return asyncio.ensure_future(engine.submit(request))


def blocking_request(i: int = 0) -> SolveRequest:
    """A request whose zero window flushes it at admission, whatever is busy."""
    return make_request(i, overrides={"window_ms": 0.0})


def assert_solo(response, i: int) -> None:
    """``response`` is limb for limb the solo solve of ``make_request(i)``."""
    solo = newton_power_series_batch(
        make_system(4.0 + 0.01 * i, 1.0 + 0.005 * i), [make_initial()], options=OPTIONS
    )[0]
    assert response.ok
    assert response.converged == solo.converged
    assert response.iterations == solo.iterations
    for got, want in zip(response.solution, solo.solution):
        assert [c.limbs for c in got.coefficients] == [c.limbs for c in want.coefficients]


class TestDeferredFlush:
    def test_requests_after_the_window_join_the_deferred_bucket(self, monkeypatch):
        held = HeldFlushes(monkeypatch)

        async def main():
            engine = SolveEngine(window_ms=2.0, max_batch=8, workers=1)
            async with engine:
                try:
                    blocker = submit(engine, blocking_request(0))
                    waiting = [submit(engine, make_request(1))]
                    await until(lambda: engine.stats()["deferred_buckets"] == 1)
                    waiting += [submit(engine, make_request(i)) for i in (2, 3, 4)]
                    await asyncio.sleep(0.01)  # five windows later: still open
                    assert engine.stats()["open_buckets"] == 1
                    assert not any(future.done() for future in waiting)
                finally:
                    held.release()
                return await asyncio.wait_for(asyncio.gather(blocker, *waiting), TIMEOUT)

        blocker, *responses = run(main())
        assert blocker.batch_fill == 1
        assert [r.batch_fill for r in responses] == [4] * 4
        for i, response in enumerate(responses, start=1):
            assert_solo(response, i)

    def test_max_batch_flushes_a_deferred_bucket_not_its_successor(self, monkeypatch):
        """Readiness belongs to the bucket: once ``max_batch`` flushed a
        deferred bucket, the next bucket of its key waits for its own window
        even when every running flush has ended."""
        held = HeldFlushes(monkeypatch)

        async def main():
            engine = SolveEngine(window_ms=2.0, max_batch=3, workers=1)
            async with engine:
                try:
                    blocker = submit(engine, blocking_request(0))
                    full = [submit(engine, make_request(1))]
                    await until(lambda: engine.stats()["deferred_buckets"] == 1)
                    full += [submit(engine, make_request(i)) for i in (2, 3)]
                    await until(lambda: handed_off(engine, 4))
                    newer = submit(engine, make_request(4, overrides={"window_ms": 10_000.0}))
                    await until(lambda: engine.stats()["open_buckets"] == 1)
                finally:
                    held.release()
                flushed = await asyncio.wait_for(asyncio.gather(blocker, *full), TIMEOUT)
                stats = engine.stats()
                assert not newer.done()
            return flushed, stats, newer.result()  # stop() flushed the newer bucket

        (_, *full), stats, newer = run(main())
        assert [r.batch_fill for r in full] == [3] * 3
        assert (stats["open_buckets"], stats["deferred_buckets"]) == (1, 0)
        assert newer.ok and newer.batch_fill == 1

    def test_failing_flush_frees_its_worker_for_the_deferred_bucket(self, monkeypatch):
        held = HeldFlushes(monkeypatch, error=RuntimeError("solve failed"))

        async def main():
            engine = SolveEngine(window_ms=2.0, max_batch=8, workers=1)
            async with engine:
                try:
                    failing = [submit(engine, make_request(i)) for i in (0, 1)]
                    await until(lambda: handed_off(engine, 2))
                    deferred = [submit(engine, make_request(2))]
                    await until(lambda: engine.stats()["deferred_buckets"] == 1)
                    deferred.append(submit(engine, make_request(3)))
                    await asyncio.sleep(0)
                finally:
                    held.release()
                responses = await asyncio.wait_for(
                    asyncio.gather(*failing, *deferred), TIMEOUT
                )
                return responses, engine.stats()

        responses, stats = run(main())
        failed, converged = responses[:2], responses[2:]
        assert [r.batch_fill for r in failed] == [2, 2]
        assert all(isinstance(r.error, RuntimeError) for r in failed)
        assert [r.batch_fill for r in converged] == [2, 2]
        for i, response in enumerate(converged, start=2):
            assert response.converged
            assert_solo(response, i)
        assert stats["errors"] == 2

    def test_stop_answers_every_future_of_a_deferred_bucket(self, monkeypatch):
        held = HeldFlushes(monkeypatch)

        async def main():
            engine = SolveEngine(window_ms=2.0, max_batch=8, workers=1)
            await engine.start()
            try:
                blocker = submit(engine, blocking_request(0))
                deferred = [submit(engine, make_request(1))]
                await until(lambda: engine.stats()["deferred_buckets"] == 1)
                deferred.append(submit(engine, make_request(2)))
                await asyncio.sleep(0)
                stopping = asyncio.ensure_future(engine.stop())
                # stop() hands the deferred bucket over while the blocker runs
                await until(lambda: engine.stats()["open_buckets"] == 0)
            finally:
                held.release()
            await asyncio.wait_for(stopping, TIMEOUT)
            return [future.result() for future in (blocker, *deferred)]

        blocker, *responses = run(main())
        assert blocker.ok
        assert [r.batch_fill for r in responses] == [2, 2]
        for i, response in enumerate(responses, start=1):
            assert_solo(response, i)

    def test_third_bucket_defers_while_two_flushes_run(self, monkeypatch):
        held = HeldFlushes(monkeypatch, count=2)

        async def main():
            engine = SolveEngine(window_ms=2.0, max_batch=8, workers=2)
            async with engine:
                try:
                    first = submit(engine, blocking_request(0))
                    second = submit(engine, make_request(1))
                    # one of the two workers is free: this window flushes
                    await until(lambda: handed_off(engine, 2))
                    assert engine.stats()["deferred_buckets"] == 0
                    third = [submit(engine, make_request(2))]
                    await until(lambda: engine.stats()["deferred_buckets"] == 1)
                    third.append(submit(engine, make_request(3)))
                    await asyncio.sleep(0)
                finally:
                    held.release()
                return await asyncio.wait_for(
                    asyncio.gather(first, second, *third), TIMEOUT
                )

        responses = run(main())
        assert [r.batch_fill for r in responses] == [1, 1, 2, 2]
        for i, response in enumerate(responses):
            assert_solo(response, i)

    def test_windows_closing_in_one_iteration_take_one_worker(self, monkeypatch):
        """A flush counts as running from its hand-off: of two windows that
        close in the same loop iteration with one worker free, only the first
        flushes."""
        held = HeldFlushes(monkeypatch)

        async def main():
            engine = SolveEngine(window_ms=10_000.0, max_batch=8, workers=1)
            async with engine:
                try:
                    futures = [submit(engine, make_request(0)), submit(engine, make_cubic_request())]
                    await until(lambda: engine.stats()["open_buckets"] == 2)
                    for bucket in list(engine._buckets.values()):
                        engine._window_closed(bucket)
                    stats = engine.stats()
                finally:
                    held.release()
                responses = await asyncio.wait_for(asyncio.gather(*futures), TIMEOUT)
            return stats, responses

        stats, responses = run(main())
        assert (stats["open_buckets"], stats["deferred_buckets"]) == (1, 1)
        assert all(r.ok and r.batch_fill == 1 for r in responses)

    def test_stress_every_future_answered_exactly_once(self):
        """Four workers (more than a small CI host has cores) and 64 requests
        of two structures arriving at random: nothing is lost, nothing is
        answered twice, and a stopped engine holds no bucket and counts no
        running flush."""
        requests = [make_request(i) if i % 2 else make_cubic_request() for i in range(64)]
        rng = random.Random(16)
        delays = [rng.uniform(0.0, 0.05) for _ in requests]

        async def main():
            engine = SolveEngine(window_ms=1.0, max_batch=8, workers=4)

            async def client(request, delay):
                await asyncio.sleep(delay)
                return await engine.submit(request)

            async with engine:
                responses = await asyncio.wait_for(
                    asyncio.gather(*map(client, requests, delays)), TIMEOUT
                )
                stats = engine.stats()
            return responses, stats, engine.stats(), engine._busy

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-5)
        try:
            responses, stats, stopped, busy = run(main())
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == len(requests)
        assert all(r.ok and r.converged for r in responses)
        assert stats["requests"] == stats["responses"] == len(requests)
        assert stats["mean_fill"] * stats["flushes"] == pytest.approx(len(requests))
        assert (stopped["open_buckets"], stopped["deferred_buckets"], busy) == (0, 0, 0)
        assert stopped["queued"] == 0


# --------------------------------------------------------------------- #
# track-request coalescing
# --------------------------------------------------------------------- #
class _LineFamily:
    """``x1 - (1 + t)`` — a trivially trackable family, picklable."""

    def __call__(self, t0: float, degree: int):
        poly = parse_polynomial(
            "x1 - 1", dimension=1, degree=degree, kind="md", precision=LIMBS
        )
        u = [_md(1.0 + t0), _md(1.0)] + [_md(0.0)] * (degree - 1)
        poly.constant.coefficients[:] = [-(c) for c in u]
        return PolynomialSystem([poly])


class TestTrackRequests:
    def test_track_requests_merge_into_one_fleet(self):
        family = _LineFamily()
        options = TrackOptions().override(
            degree=DEGREE,
            mode="vectorized",
            newton={"max_iterations": 6, "tolerance": 1.0e-20},
        )

        async def main():
            engine = SolveEngine(window_ms=25.0, max_batch=8, workers=1)
            async with engine:
                return await asyncio.gather(
                    *[
                        engine.submit(
                            TrackRequest(family=family, start=[1.0], options=options)
                        )
                        for _ in range(3)
                    ]
                )

        responses = run(main())
        assert [r.batch_fill for r in responses] == [3] * 3
        assert all(r.ok and r.converged for r in responses)
        for response in responses:
            assert float(response.solution[0]) == pytest.approx(2.0, abs=1.0e-8)

    def test_track_key_separates_options_and_range(self):
        family = _LineFamily()
        a = TrackRequest(family=family, start=[1.0])
        b = TrackRequest(family=family, start=[1.0], t_end=0.5)
        assert a.coalesce_key("vectorized") != b.coalesce_key("vectorized")
        c = TrackRequest(
            family=family, start=[1.0], options=TrackOptions().override(degree=2)
        )
        assert a.coalesce_key("vectorized") != c.coalesce_key("vectorized")


# --------------------------------------------------------------------- #
# the context pool
# --------------------------------------------------------------------- #
class TestContextPool:
    def test_checkout_miss_then_hit(self):
        pool = ContextPool(slab=4, max_structures=2)
        system = make_system()
        context = pool.checkout(("k",), lambda slab: system.make_context(slab))
        assert pool.misses == 1
        pool.checkin(("k",), context)
        again = pool.checkout(("k",), lambda slab: system.make_context(slab))
        assert again is context
        assert pool.hits == 1

    def test_lru_eviction_bounds_structures(self):
        pool = ContextPool(slab=2, max_structures=2)
        for name in ("a", "b", "c"):
            pool.checkin((name,), object())
        assert pool.evictions == 1
        stats = pool.stats()
        assert stats["structures"] == 2

    def test_concurrent_checkouts_get_distinct_contexts(self):
        pool = ContextPool(slab=2, max_structures=4)
        system = make_system()
        first = pool.checkout(("k",), lambda slab: system.make_context(slab))
        second = pool.checkout(("k",), lambda slab: system.make_context(slab))
        assert first is not second
        assert pool.misses == 2
        pool.checkin(("k",), first)
        pool.checkin(("k",), second)
        assert pool.stats()["idle_contexts"] == 2

    def test_discard_drops_the_context_and_releases_it(self):
        pool = ContextPool(slab=2, max_structures=2)
        system = make_system()
        context = pool.checkout(("k",), lambda slab: system.make_context(slab))
        pool.discard(("k",), context)
        stats = pool.stats()
        assert (stats["checked_out"], stats["idle_contexts"], stats["discards"]) == (0, 0, 1)
        fresh = pool.checkout(("k",), lambda slab: system.make_context(slab))
        assert fresh is not context
        assert pool.misses == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ContextPool(slab=0)
        with pytest.raises(ValueError):
            ContextPool(slab=1, max_structures=0)


# --------------------------------------------------------------------- #
# schedule-cache concurrency (satellite)
# --------------------------------------------------------------------- #
class TestScheduleCacheConcurrency:
    def test_mixed_thread_and_asyncio_access(self):
        """Threads and asyncio executor workers share per-key build locks."""
        cache = ScheduleCache(maxsize=16)
        builds = []
        barrier = threading.Barrier(4)

        def slow_builder():
            builds.append(threading.get_ident())
            import time

            time.sleep(0.15)
            return object()

        def worker():
            barrier.wait()
            return cache.get(("shared",), slow_builder)

        async def main():
            loop = asyncio.get_running_loop()
            futures = [loop.run_in_executor(None, worker) for _ in range(3)]
            thread_result = []
            thread = threading.Thread(
                target=lambda: thread_result.append(worker())
            )
            thread.start()
            results = await asyncio.gather(*futures)
            thread.join()
            return results + thread_result

        results = run(main())
        # One build; everyone else waited on the build lock and hit.
        assert len(builds) == 1
        assert all(result is results[0] for result in results)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["build_waits"] == 3

    def test_distinct_keys_build_concurrently(self):
        cache = ScheduleCache(maxsize=16)
        started = threading.Barrier(2, timeout=5.0)

        def builder(name):
            def build():
                # Both builders must be in flight at once: waiting on the
                # barrier inside the build proves per-key (not global) locks.
                started.wait()
                return name

            return build

        def worker(name):
            return cache.get((name,), builder(name))

        threads = []
        results = {}
        for name in ("a", "b"):
            thread = threading.Thread(
                target=lambda n=name: results.update({n: worker(n)})
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        assert results == {"a": "a", "b": "b"}
        assert cache.stats()["build_waits"] == 0

    def test_engine_traffic_hits_process_cache(self):
        from repro.core.system import default_schedule_cache

        cache = default_schedule_cache()
        before = cache.stats()["hits"]
        engine = SolveEngine(window_ms=0.0, max_batch=2, workers=1)
        engine.solve(make_request())
        engine2 = SolveEngine(window_ms=0.0, max_batch=2, workers=1)
        engine2.solve(make_request())
        assert cache.stats()["hits"] > before


# --------------------------------------------------------------------- #
# the analytic coalescing model
# --------------------------------------------------------------------- #
class TestPredictCoalesce:
    def test_coalesced_beats_sequential(self):
        system = make_system()
        model = TimingModel(device="V100", precision=LIMBS)
        prediction = model.predict_coalesce(
            system.evaluator.fused, requests=16, steps=6
        )
        assert prediction["coalesced_wall_ms"] < prediction["sequential_wall_ms"]
        assert prediction["speedup"] > 1.0
        assert prediction["saved_ms"] == pytest.approx(
            prediction["sequential_wall_ms"] - prediction["coalesced_wall_ms"]
        )

    def test_single_request_is_neutral(self):
        system = make_system()
        model = TimingModel(device="V100", precision=LIMBS)
        prediction = model.predict_coalesce(
            system.evaluator.fused, requests=1, steps=3
        )
        assert prediction["speedup"] == pytest.approx(1.0)

    def test_validation(self):
        system = make_system()
        model = TimingModel(device="V100", precision=LIMBS)
        with pytest.raises(ValueError):
            model.predict_coalesce(system.evaluator.fused, requests=0)
        with pytest.raises(ValueError):
            model.predict_coalesce(system.evaluator.fused, requests=1, steps=0)


# --------------------------------------------------------------------- #
# the HTTP front end
# --------------------------------------------------------------------- #
def _post_json(port: int, path: str, body: dict):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_json(port: int, path: str):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post_raw(port: int, body: bytes, content_length=None) -> tuple[int, bytes]:
    """POST ``body`` to ``/v1/solve`` over a socket; returns status and raw body."""
    length = len(body) if content_length is None else content_length
    head = f"POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {length}\r\n\r\n"
    reply = b""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + body)
        while chunk := sock.recv(65536):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    assert status_line, "the server closed the connection without a response"
    return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]


def _strict_json(raw: bytes):
    """Parse ``raw`` as RFC 8259 JSON, where ``NaN`` and ``Infinity`` are errors."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(raw, parse_constant=reject)


class TestHttp:
    def _solve_body(self, a: float = 4.0) -> dict:
        zeros = [[0.0, 0.0]] * DEGREE
        return {
            "equations": [f"x1^2 + x2^2 - {a}", "x1*x2 - 1"],
            "dimension": 2,
            "degree": DEGREE,
            "kind": "md",
            "precision": LIMBS,
            "initial": [[[1.9, 0.0]] + zeros, [[0.55, 0.0]] + zeros],
            "options": {"max_iterations": 8, "tolerance": 1.0e-28},
        }

    def test_solve_stats_health_roundtrip(self):
        async def main():
            server = ServiceServer(window_ms=1.0, max_batch=4, workers=1, port=0)
            loop = asyncio.get_running_loop()
            async with server:
                port = server.port
                status, body = await loop.run_in_executor(
                    None, _post_json, port, "/v1/solve", self._solve_body()
                )
                health = await loop.run_in_executor(
                    None, _get_json, port, "/healthz"
                )
                stats = await loop.run_in_executor(
                    None, _get_json, port, "/v1/stats"
                )
                missing = await loop.run_in_executor(
                    None, _get_json, port, "/nope"
                )
            return status, body, health, stats, missing

        status, body, health, stats, missing = run(main())
        assert status == 200
        assert body["ok"] and body["converged"]
        # dd limbs survive the wire: each coefficient is a 2-limb list.
        assert len(body["solution"][0][0]) == LIMBS
        assert health == (200, {"ok": True})
        assert stats[0] == 200 and stats[1]["requests"] == 1
        assert missing[0] == 404

    @pytest.mark.parametrize(
        "changes, content_length",
        [
            pytest.param({"equations": []}, None, id="no-equations"),
            pytest.param(
                {"equations": ["x1 -"], "initial": [[1.0]]}, None, id="unparsable-equation"
            ),
            pytest.param({"equations": [1]}, None, id="equation-not-a-string"),
            pytest.param({"degree": [1]}, None, id="degree-not-an-integer"),
            pytest.param({"degree": -1}, None, id="negative-degree"),
            pytest.param({"dimension": "x"}, None, id="dimension-not-an-integer"),
            pytest.param({"overrides": 5}, None, id="overrides-not-a-mapping"),
            pytest.param({"overrides": {"window_ms": "x"}}, None, id="override-bad-value"),
            pytest.param({"overrides": {"nope": 1}}, None, id="override-unknown-field"),
            pytest.param({"initial": [[math.nan], [0.55]]}, None, id="nan-limb"),
            pytest.param({"initial": [[10**400], [0.55]]}, None, id="limb-overflows-a-double"),
            pytest.param({}, -5, id="negative-content-length"),
            pytest.param({"options": {"tolerance": "x"}}, None, id="tolerance-not-a-number"),
            pytest.param({"options": {"tolerance": -1.0}}, None, id="negative-tolerance"),
            pytest.param(
                {"options": {"max_iterations": 2.5}}, None, id="max-iterations-not-an-integer"
            ),
            pytest.param(
                {"options": {"raise_on_failure": "yes"}}, None, id="raise-on-failure-not-a-bool"
            ),
        ],
    )
    def test_bad_requests_get_400_and_backpressure_429(self, changes, content_length):
        """Each malformed request gets a 400 with an ``error`` field, never a
        dropped connection."""
        body = json.dumps({**self._solve_body(), **changes}).encode("utf-8")

        async def main():
            server = ServiceServer(
                window_ms=1.0, max_batch=4, workers=1, port=0, max_queue=1
            )
            loop = asyncio.get_running_loop()
            async with server:
                return await loop.run_in_executor(
                    None, _post_raw, server.port, body, content_length
                )

        status, raw = run(main())
        assert status == 400
        assert "error" in _strict_json(raw)

    def test_error_response_is_strict_json(self):
        """A failed lane's response has no ``Infinity`` token: its residual
        goes out as ``null``."""
        body = {
            **self._solve_body(),
            "equations": ["x1^2 + 1"],
            "dimension": 1,
            "initial": [[[0.0, 0.0]] * (DEGREE + 1)],
        }

        async def main():
            server = ServiceServer(window_ms=1.0, max_batch=4, workers=1, port=0)
            loop = asyncio.get_running_loop()
            async with server:
                return await loop.run_in_executor(
                    None, _post_raw, server.port, json.dumps(body).encode("utf-8")
                )

        status, raw = run(main())
        assert status == 200
        payload = _strict_json(raw)
        assert payload["error"]["type"] == "SingularSystemError"
        assert payload["residual"] is None

    def test_solution_coefficients_roundtrip_bitwise(self):
        """Wire limbs == in-process limbs: encode/decode loses nothing."""
        from repro.service.http import decode_coefficient, encode_coefficient

        value = MultiDouble([1.9318516525781366, -5.0927943124617904e-17])
        wire = encode_coefficient(value)
        assert decode_coefficient(wire).limbs == value.limbs
        z = decode_coefficient({"real": [1.5, 0.0], "imag": [2.5, 0.0]})
        assert encode_coefficient(z) == {"real": [1.5, 0.0], "imag": [2.5, 0.0]}
        assert decode_coefficient(0.25) == 0.25


def test_cli_config_command(capsys):
    from repro.service.__main__ import main

    assert main(["config", "--max-batch", "9"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["max_batch"] == 9
    assert printed["window_ms"] == DEFAULT_SERVICE_CONFIG.window_ms
