"""The four benchmark workloads, built from a seed and driven through public APIs.

Each workload builds its inputs from ``--seed`` alone, does its set-up
(system build, staging, first pack, warm-up) in :meth:`setup`, and then
either runs timed operations one at a time (:class:`OpWorkload`: one
caller, one call after another) or a closed loop of clients
(:class:`ServiceWorkload`).  Every output is checked; a failed check counts
as a failed operation.

The layer entry points the traced run wraps are listed in
:func:`install_hooks`.  Workload code calls ``repro.homotopy.<function>``
through the module attribute, so the wrapper installed there is the one
called.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import random
from statistics import median
from time import perf_counter_ns

import repro.homotopy as homotopy
from repro.circuits import Polynomial, make_p1, parse_polynomial
from repro.core import SystemEvaluator, default_schedule_cache
from repro.errors import ServiceOverloadedError
from repro.homotopy import NewtonOptions, PolynomialSystem, RetryPolicy, TrackOptions
from repro.md import MultiDouble
from repro.series import PowerSeries, random_series_vector
from repro.service import SolveEngine, SolveRequest


class Checks:
    """Operations attempted and failed, counted where outputs are checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what


def _md(value: float, limbs: int) -> MultiDouble:
    return MultiDouble.from_float(float(value), limbs)


def _max_abs(series_values) -> float:
    return max((abs(float(c)) for c in series_values), default=0.0)


# ---------------------------------------------------------------------- #
# one caller, one operation after another
# ---------------------------------------------------------------------- #
class OpWorkload:
    """A workload timed one operation at a time by a single caller."""

    name = ""
    #: units of work one operation completes (throughput numerator)
    work_per_op = 1
    #: timed operations per run even when --seconds has passed
    min_ops = 1

    def setup(self, seed: int, checks: Checks) -> None:
        raise NotImplementedError

    def prepare(self):
        """Inputs of the next operation (untimed)."""
        return None

    def op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, outcome, checks: Checks) -> None:
        raise NotImplementedError

    def counts(self, outcome) -> dict:
        """Per-operation counts read off the operation's own results."""
        return {}


class PaperEval(OpWorkload):
    """p1 and its gradient at a fresh power-series input, on a resident context."""

    name = "paper_eval"
    DEGREE = 15
    LIMBS = 2
    min_ops = 3

    def setup(self, seed, checks):
        self.rng = random.Random(seed)
        self.polynomial = make_p1(self.DEGREE, kind="md", precision=self.LIMBS, rng=self.rng)
        evaluator = SystemEvaluator([self.polynomial], mode="vectorized")
        self.context = evaluator.make_context(1)
        self.context.update_inputs(self.prepare())  # the first, full pack

    def prepare(self):
        return [random_series_vector(16, self.DEGREE, "md", self.LIMBS, self.rng)]

    def op(self, inputs):
        self.context.update_inputs(inputs)
        return self.context.run()[0][0]

    def check(self, inputs, outcome, checks):
        """Euler's identity for the quartic p1: sum x_i dp/dx_i = 4 (p - c)."""
        z = inputs[0]
        if len(outcome.gradient) != len(z):
            checks.record(False, "paper_eval: gradient has the wrong length")
            return
        terms = [zi * gi for zi, gi in zip(z, outcome.gradient)]
        lhs = terms[0]
        for term in terms[1:]:
            lhs = lhs + term
        shifted = outcome.value - self.polynomial.constant
        doubled = shifted + shifted
        rhs = doubled + doubled
        error = _max_abs((lhs - rhs).coefficients)
        scale = max(
            _max_abs(rhs.coefficients),
            max(sum(abs(float(t[k])) for t in terms) for k in range(self.DEGREE + 1)),
            1.0,
        )
        bound = 2.0 ** (-52 * self.LIMBS + 20) * scale
        checks.record(
            error <= bound, f"paper_eval: Euler identity off by {error:.3e} > {bound:.3e}"
        )


class NewtonBatch(OpWorkload):
    """Batched power-series Newton on a 6x6 multilinear system with a known root."""

    name = "newton"
    DIMENSION = 6
    DEGREE = 15
    LIMBS = 2
    STARTS = 8
    OFF_DIAGONAL = 6
    DIAGONAL = 8.0
    SPREAD = 1.0e-3
    TOLERANCE = 2.0**-92
    ROOT_TOLERANCE = 1.0e-25
    work_per_op = STARTS
    min_ops = 3

    def setup(self, seed, checks):
        self.rng = random.Random(seed)
        self.system = PolynomialSystem(self._polynomials(), mode="vectorized")
        self.options = NewtonOptions(max_iterations=8, tolerance=self.TOLERANCE)
        # one iteration packs, compiles the tensor program and solves once
        warm = self.options.override(max_iterations=1)
        homotopy.newton_power_series_batch(self.system, self.prepare(), options=warm)

    def _polynomials(self) -> list[Polynomial]:
        """Equation i: d_i x_i + sum_k a_ik prod(S_k) + c_i, with x(0) = 1 a root.

        Supports hold one to three variables; the diagonal coefficient's
        constant term dominates so every Jacobian is well conditioned.  The
        constant series is -(sum of all coefficient series) + w_i t, so the
        all-ones vector solves the system at t = 0 and the series solution
        is x(t) = 1 + O(t).
        """
        rng = self.rng
        n, degree, limbs = self.DIMENSION, self.DEGREE, self.LIMBS
        polynomials = []
        for i in range(n):
            supports = {(i,)}
            while len(supports) < 1 + self.OFF_DIAGONAL:
                size = rng.randint(1, 3)
                supports.add(tuple(sorted(rng.sample(range(n), size))))
            supports = sorted(supports)
            coefficients = random_series_vector(len(supports), degree, "md", limbs, rng)
            diagonal = coefficients[supports.index((i,))]
            diagonal.coefficients[0] = diagonal.coefficients[0] + _md(self.DIAGONAL, limbs)
            total = coefficients[0]
            for series in coefficients[1:]:
                total = total + series
            constant = -total
            constant.coefficients[1] = constant.coefficients[1] + _md(rng.uniform(-0.5, 0.5), limbs)
            polynomials.append(Polynomial.from_supports(n, constant, supports, coefficients))
        return polynomials

    def prepare(self):
        def start() -> PowerSeries:
            value = 1.0 + self.rng.uniform(-self.SPREAD, self.SPREAD)
            return PowerSeries.constant(_md(value, self.LIMBS), self.DEGREE)

        return [[start() for _ in range(self.DIMENSION)] for _ in range(self.STARTS)]

    def op(self, inputs):
        return homotopy.newton_power_series_batch(self.system, inputs, options=self.options)

    def check(self, inputs, outcome, checks):
        one = _md(1.0, self.LIMBS)
        for index, result in enumerate(outcome):
            error = max(abs(float(series.coefficients[0] - one)) for series in result.solution)
            checks.record(
                result.converged and error <= self.ROOT_TOLERANCE,
                f"newton: instance {index} converged={result.converged}, |x(0) - 1| = {error:.3e}",
            )

    def counts(self, outcome):
        return {"newton.iterations": sum(r.iterations for r in outcome) / len(outcome)}


class RetryFamily:
    """``(x - u(t)) (x - 1) = 0`` with ``u(t) = 2 + B t^2`` at ``precision`` limbs.

    The root ``x = u(t)`` has a residual floor near ``u^2 eps``, which double
    doubles cannot push below the tolerance near ``t = 1``; those paths fail
    and are retried at quad doubles.  The root ``x = 1`` stays exact.
    """

    STIFFNESS = 1.0e6

    def __init__(self, precision: int):
        self.precision = precision

    def __call__(self, t0: float, degree: int) -> PolynomialSystem:
        limbs = self.precision
        poly = parse_polynomial("x1^2 + x1", degree=degree, kind="md", precision=limbs)
        b = self.STIFFNESS
        u = [_md(2.0 + b * t0 * t0, limbs), _md(2.0 * b * t0, limbs), _md(b, limbs)]
        u += [_md(0.0, limbs)] * (degree + 1 - len(u))
        poly.constant.coefficients[:] = u
        linear = next(m for m in poly.monomials if m.exponents == ((0, 1),))
        negated = [-c for c in u]
        negated[0] = -(_md(1.0, limbs) + u[0])
        linear.coefficient.coefficients[:] = negated
        return PolynomialSystem([poly])


class Fleet(OpWorkload):
    """One track_paths fleet of 1,000 paths, 10% stiff, dd with a qd retry rung."""

    name = "fleet"
    PATHS = 1000
    STIFF = 100
    WARM_T_END = 0.2
    DEGREE = 8
    TOLERANCE = 1.0e-22
    work_per_op = PATHS

    def setup(self, seed, checks):
        self.rng = random.Random(seed)
        self.family = RetryFamily(2)
        self.options = TrackOptions().override(
            degree=self.DEGREE,
            mode="vectorized",
            step={"grow": 1.0},
            newton={"max_iterations": 6, "tolerance": self.TOLERANCE},
            retry=RetryPolicy(precision_ladder=(4,), max_rejections=2),
            shards=0,
        )
        # short fleets at both rungs stage the structure and pack once each
        for limbs in (2, 4):
            homotopy.track_paths(
                RetryFamily(limbs), [[1.0], [2.0]], options=self.options, t_end=self.WARM_T_END
            )

    def _starts(self, paths: int, stiff: int):
        hard = set(self.rng.sample(range(paths), stiff))
        return [[2.0] if i in hard else [1.0] for i in range(paths)]

    def prepare(self):
        return self._starts(self.PATHS, self.STIFF)

    def op(self, inputs):
        return homotopy.track_paths(self.family, inputs, options=self.options)

    def check(self, inputs, outcome, checks):
        stiff = {i for i, start in enumerate(inputs) if start[0] == 2.0}
        escalated = set(outcome.escalated_indices)
        checks.record(
            escalated == stiff,
            f"fleet: {len(escalated)} paths escalated, expected the {len(stiff)} stiff ones",
        )
        far = 2.0 + RetryFamily.STIFFNESS
        for index, (status, result) in enumerate(zip(outcome.statuses, outcome.results)):
            ok = status.converged and bool(result.points)
            if ok:
                x = float(result.points[-1].values[0])
                target = far if index in stiff else 1.0
                ok = abs(x - target) <= 1.0e-9 * target
                ok = ok and status.limbs == (4 if index in stiff else 2)
            checks.record(ok, f"fleet: path {index} ({status.reason}) missed its endpoint")

    def counts(self, outcome):
        return {
            "scheduler.rounds": sum(fleet["rounds"] for fleet in outcome.fleets),
            "scheduler.retries": outcome.total_retries,
            "scheduler.rejections": sum(status.rejections for status in outcome.statuses),
        }


# ---------------------------------------------------------------------- #
# closed loop of clients against the coalescing service
# ---------------------------------------------------------------------- #
class CircleHyperbola:
    """``x1^2 + x2^2 = a``, ``x1 x2 = b``: one structure, per-request coefficients."""

    DEGREE = 4
    LIMBS = 2
    OPTIONS = NewtonOptions(max_iterations=6, tolerance=1.0e-28)
    OFFSET = 0.01

    def request(self, a: float, b: float) -> SolveRequest:
        limbs = self.LIMBS
        circle = parse_polynomial(
            "x1^2 + x2^2 - 4", dimension=2, degree=self.DEGREE, kind="md", precision=limbs
        )
        hyperbola = parse_polynomial(
            "x1*x2 - 1", dimension=2, degree=self.DEGREE, kind="md", precision=limbs
        )
        circle.constant.coefficients[0] = _md(-a, limbs)
        hyperbola.constant.coefficients[0] = _md(-b, limbs)
        system = PolynomialSystem([circle, hyperbola], mode="vectorized")
        # a warm start a fixed 1% off the root: every request takes the same
        # number of Newton iterations, so each solve does the same work
        x1, x2 = self.root(a, b)
        initial = [
            PowerSeries.constant(_md(x1 * (1.0 + self.OFFSET), limbs), self.DEGREE),
            PowerSeries.constant(_md(x2 * (1.0 - self.OFFSET), limbs), self.DEGREE),
        ]
        return SolveRequest(system=system, initial=initial, options=self.OPTIONS)

    @staticmethod
    def root(a: float, b: float) -> tuple[float, float]:
        s, d = math.sqrt(a + 2.0 * b), math.sqrt(a - 2.0 * b)
        return (s + d) / 2.0, (s - d) / 2.0


class ServiceWorkload:
    """16 asyncio clients in a closed loop against one ``SolveEngine(workers=1)``."""

    name = "service"
    CLIENTS = 16
    #: distinct requests per client, built in set-up and sent in turn
    POOL = 8
    WARM_REQUESTS = 1
    THINK_MS = 20.0
    STAGGER_MS = 25.0

    def setup(self, seed, checks):
        self.seed = seed
        self.checks = checks
        self.family = CircleHyperbola()
        # Requests arrive ready-made, as from a wire decoder: building them
        # on the event loop would be load-generator work competing with the
        # solver thread for the interpreter lock.
        self.pools = []
        for k in range(self.CLIENTS):
            rng = random.Random(f"{seed}/client/{k}")
            pool = []
            for _ in range(self.POOL):
                a = 4.0 + rng.uniform(-0.2, 0.2)
                b = 1.0 + rng.uniform(-0.1, 0.1)
                pool.append((a, b, self.family.request(a, b)))
            self.pools.append(pool)
        self.engine = SolveEngine(workers=1)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.engine.start())
        # one request packs the pooled context and stages the structure
        a, b = 4.0, 1.0
        response = self.loop.run_until_complete(self.engine.submit(self.family.request(a, b)))
        self._check(a, b, response)

    def close(self):
        self.loop.run_until_complete(self.engine.stop())
        self.loop.close()

    def _check(self, a, b, response) -> bool:
        ok = response.ok and response.converged and response.solution is not None
        if ok:
            expected = self.family.root(a, b)
            got = [float(series.coefficients[0]) for series in response.solution]
            ok = all(abs(g - e) <= 1.0e-12 for g, e in zip(got, expected))
        self.checks.record(ok, f"service: request (a={a}, b={b}) failed: {response.error}")
        return ok

    def measure(self, windows: list, on_window=None) -> list[dict]:
        """Run the closed loop: warm-up, then one timed window per entry of ``windows``.

        Counting starts once every client has finished its first
        ``WARM_REQUESTS`` requests.  ``on_window(index)`` runs before each
        window (the traced run installs its hooks there); a later window
        starts once every client has had a reply since.  Returns one dict
        per window with its completed requests.
        """
        return self.loop.run_until_complete(self._drive(windows, on_window))

    async def _drive(self, windows, on_window):
        # (client, number, submit_ns, reply_ns, ok, request, newton iterations)
        done = self.done = []
        progress = [0] * self.CLIENTS
        warm = asyncio.Event()
        stop = False

        async def client(k: int):
            rng = random.Random(f"{self.seed}/think/{k}")
            think = self.THINK_MS / 1000.0
            pool = self.pools[k]
            while not stop:
                a, b, template = pool[progress[k] % len(pool)]
                request = dataclasses.replace(template)
                submitted = perf_counter_ns()
                try:
                    response = await self.engine.submit(request)
                except ServiceOverloadedError:
                    response = None
                replied = perf_counter_ns()
                ok = response is not None and self._check(a, b, response)
                if response is None:
                    self.checks.record(False, "service: request rejected")
                progress[k] += 1
                iterations = response.iterations if response is not None else 0
                done.append((k, progress[k], submitted, replied, ok, request, iterations))
                if min(progress) >= self.WARM_REQUESTS:
                    warm.set()
                await asyncio.sleep(rng.expovariate(1.0 / think))

        async def staggered(k: int):
            await asyncio.sleep(k * self.STAGGER_MS / 1000.0)
            await client(k)

        tasks = [asyncio.ensure_future(staggered(k)) for k in range(self.CLIENTS)]
        results = []
        try:
            await warm.wait()
            for index, seconds in enumerate(windows):
                if on_window is not None:
                    on_window(index)
                if index:
                    # flushes queued before on_window ran still call what it
                    # replaced; they are done once every client got a reply
                    mark = list(progress)
                    while any(now <= then for now, then in zip(progress, mark)):
                        await asyncio.sleep(0.01)
                begin = perf_counter_ns()
                first = len(done)
                await asyncio.sleep(seconds)
                end = perf_counter_ns()
                counted = [
                    entry for entry in done[first:]
                    if entry[1] > self.WARM_REQUESTS and begin <= entry[3] <= end
                ]
                results.append({"begin": begin, "end": end, "requests": counted})
        finally:
            stop = True
            await asyncio.gather(*tasks)
        return results


def window_metrics(window: dict) -> dict:
    """Throughput and median latency of one service window.

    A failed or rejected request counts as missing the latency (infinite).
    """
    requests = window["requests"]
    seconds = (window["end"] - window["begin"]) / 1e9
    latencies = sorted(
        (reply - submit) / 1e6 if ok else math.inf
        for _, _, submit, reply, ok, _, _ in requests
    )
    return {
        "throughput": len(requests) / seconds,
        "latency_ms": median(latencies) if latencies else math.inf,
        "latencies": latencies,
    }


WORKLOADS = {
    cls.name: cls for cls in (PaperEval, NewtonBatch, Fleet, ServiceWorkload)
}


# ---------------------------------------------------------------------- #
# traced-run hooks
# ---------------------------------------------------------------------- #
def install_hooks(tracer) -> None:
    """Register a wrapper for every layer entry point the benchmark attributes."""
    import repro.homotopy.newton as newton_module
    import repro.homotopy.scheduler as scheduler_module
    import repro.service.engine as engine_module
    import repro.service.fleet as service_fleet_module
    from repro.circuits.monomial import Monomial
    from repro.core.context import EvalContext
    from repro.core.system import ScheduleCache
    from repro.core.tensor import TensorProgram

    def density(args, kwargs, result):
        batch = args[2] if len(args) > 2 else kwargs["batch"]
        active = args[3] if len(args) > 3 else kwargs.get("active")
        return {"density": 1.0 if active is None else len(active) / batch}

    def bucket(args, kwargs, result):
        items = args[1].items
        return {"fill": len(items), "requests": [id(item[0]) for item in items]}

    tracer.hook(TensorProgram, "run", "core.sweep", density)
    tracer.hook(EvalContext, "update_inputs", "core.update_inputs")
    tracer.hook(EvalContext, "_pack", "core.pack")
    for method in ("run", "run_packed", "residual_norms", "unpack_vectors"):
        tracer.hook(EvalContext, method, "core.unpack")
    tracer.hook(EvalContext, "newton_system", "core.newton_system")
    for method in ("rebind", "rebind_fleet", "set_active"):
        tracer.hook(EvalContext, method, "core.rebind")
    tracer.hook(ScheduleCache, "get", "core.staging")
    tracer.hook(Monomial, "split_common_factor", "circuits.common_factor")
    tracer.hook(PowerSeries, "__add__", "series.ops")
    tracer.hook(PowerSeries, "evaluate", "series.ops")
    for module in (newton_module, scheduler_module, service_fleet_module):
        tracer.hook(module, "solve_packed", "linsolve.solve")
    tracer.hook(homotopy, "newton_power_series_batch", "newton.loop")
    tracer.hook(engine_module, "coalesced_newton", "newton.loop")
    tracer.hook(homotopy, "track_paths", "scheduler.track")
    tracer.hook(RetryFamily, "__call__", "scheduler.builder")
    tracer.hook(engine_module.SolveEngine, "_solve_bucket", "service.flush", bucket)


def cache_misses() -> int:
    return default_schedule_cache().stats()["misses"]
