"""Analytic timing model for the simulated GPUs.

The model predicts, for every kernel launch of a :class:`repro.core.JobSchedule`,
the elapsed kernel time and the host-side launch overhead, from which the
four numbers the paper reports (convolution sum, addition sum, their sum,
wall clock) follow.  The ingredients are:

* **occupancy in waves** — a launch of ``B`` one-block-per-job blocks runs in
  ``ceil(B / #SM)`` waves over the streaming multiprocessors (this is what
  makes 256-block launches under-occupy the V100 relative to the P100, the
  effect the paper observes for ``p2``);
* **compute time per block** — the double-operation count of the job
  (convolution: ``(d+1)^2`` ring multiplications and ``d(d+1)`` ring
  additions; addition: ``d+1`` ring additions; each ring operation expanded
  into double operations via :mod:`repro.md.opcounts`) divided by the SM's
  peak double rate times the calibrated efficiency
  (:mod:`repro.gpusim.calibration`);
* **memory time per block** — global-memory traffic (three series of
  ``(d+1)`` numbers of ``8*limbs`` bytes) over the per-SM bandwidth; the
  kernel time per wave is the maximum of compute and memory time (roofline);
* **warp scheduling overhead** — a fixed number of cycles per warp of the
  block, which dominates in plain double precision where the arithmetic is
  almost free;
* **launch overhead** — a per-launch host cost plus a per-job index-transfer
  cost, included in the wall clock only;
* **host-to-device transfers** — input series cross PCIe at the device's
  effective copy bandwidth; :meth:`TimingModel.predict_resident` accounts a
  *resident* batched run (the device analogue of
  :class:`repro.core.EvalContext`), where the full input region ships once
  and every later step re-sends only the variable slots instead of
  repacking the whole slot tensor.

The shared-memory capacity check reproduces the paper's degree ceiling
(degree 152 in deca-double precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..md.opcounts import opcounts_for
from ..md.precision import get_precision
from .calibration import efficiency_for
from .device import DeviceSpec, get_device
from .events import KernelLaunchTiming, TimingReport
from .memory import check_block_fits

__all__ = ["TimingModel"]


@dataclass
class TimingModel:
    """Predicts kernel launch times for one device and precision."""

    device: DeviceSpec
    limbs: int

    def __init__(self, device=None, precision=2):
        self.device = get_device(device)
        self.limbs = get_precision(precision).limbs

    # ------------------------------------------------------------------ #
    # per-launch predictions
    # ------------------------------------------------------------------ #
    def _waves(self, blocks: int) -> int:
        return max(1, math.ceil(blocks / self.device.multiprocessors))

    def _warp_time_s(self, degree: int) -> float:
        warps = math.ceil((degree + 1) / self.device.warp_size)
        return warps * self.device.warp_overhead_cycles / (self.device.clock_ghz * 1.0e9)

    def _block_times_s(self, degree: int, ring_mul: int, ring_add: int) -> float:
        counts = opcounts_for(self.limbs)
        block_ops = ring_mul * counts.mul_ops + ring_add * counts.add_ops
        efficiency = efficiency_for(self.limbs)
        compute = block_ops / (self.device.per_sm_gflops * 1.0e9 * efficiency)
        bytes_moved = 3 * (degree + 1) * 8 * self.limbs
        memory = bytes_moved / (self.device.per_sm_bandwidth_gb_s * 1.0e9)
        return max(compute, memory) + self._warp_time_s(degree)

    def _overhead_ms(self, blocks: int) -> float:
        return self.device.launch_overhead_ms + blocks * self.device.per_job_overhead_us * 1.0e-3

    def transfer_ms(self, n_series: int, degree: int, planes: int = 1) -> float:
        """Host-to-device copy time of ``n_series`` series (one copy call).

        Each series carries ``(degree + 1)`` coefficients of ``limbs``
        doubles; ``planes = 2`` accounts complex data (separate real and
        imaginary limb planes, twice the payload).
        """
        if n_series <= 0:
            return 0.0
        bytes_moved = n_series * (degree + 1) * 8 * self.limbs * planes
        return (
            self.device.h2d_latency_us * 1.0e-3
            + bytes_moved / (self.device.h2d_bandwidth_gb_s * 1.0e9) * 1.0e3
        )

    def convolution_launch(self, blocks: int, degree: int, layer: int = 1) -> KernelLaunchTiming:
        """Predicted timing of one convolution kernel launch of ``blocks`` blocks."""
        check_block_fits(degree, self.limbs, self.device)
        waves = self._waves(blocks)
        ring_mul = (degree + 1) ** 2
        ring_add = degree * (degree + 1)
        kernel_ms = waves * self._block_times_s(degree, ring_mul, ring_add) * 1.0e3
        return KernelLaunchTiming(
            stage="convolution",
            layer=layer,
            blocks=blocks,
            waves=waves,
            kernel_ms=kernel_ms,
            overhead_ms=self._overhead_ms(blocks),
        )

    def addition_launch(self, blocks: int, degree: int, layer: int = 1) -> KernelLaunchTiming:
        """Predicted timing of one addition kernel launch."""
        waves = self._waves(blocks)
        kernel_ms = waves * self._block_times_s(degree, 0, degree + 1) * 1.0e3
        return KernelLaunchTiming(
            stage="addition",
            layer=layer,
            blocks=blocks,
            waves=waves,
            kernel_ms=kernel_ms,
            overhead_ms=self._overhead_ms(blocks),
        )

    def scale_launch(self, blocks: int, degree: int, layer: int = 1) -> KernelLaunchTiming:
        """Predicted timing of the (optional) exponent-scaling launch."""
        waves = self._waves(blocks)
        kernel_ms = waves * self._block_times_s(degree, degree + 1, 0) * 1.0e3
        return KernelLaunchTiming(
            stage="scale",
            layer=layer,
            blocks=blocks,
            waves=waves,
            kernel_ms=kernel_ms,
            overhead_ms=self._overhead_ms(blocks),
        )

    # ------------------------------------------------------------------ #
    # whole schedules
    # ------------------------------------------------------------------ #
    def predict(self, schedule, batch: int = 1) -> TimingReport:
        """Predict all launches of a schedule.

        Works for a per-polynomial :class:`repro.core.JobSchedule` and for a
        fused :class:`repro.core.system.FusedSystemSchedule` alike — both
        expose ``degree``, per-layer launch sizes and scale jobs.  ``batch``
        accounts a batched sweep: every launch carries ``batch`` times as
        many blocks (more waves per launch, same number of launches), which
        is exactly how fused wide launches amortise the per-launch overhead.
        """
        degree = schedule.degree
        report = TimingReport()
        for layer, blocks in enumerate(schedule.convolution_launches, start=1):
            if blocks:
                report.add(self.convolution_launch(blocks * batch, degree, layer))
        if schedule.scale_jobs:
            report.add(self.scale_launch(len(schedule.scale_jobs) * batch, degree))
        for layer, blocks in enumerate(schedule.addition_launches, start=1):
            if blocks:
                report.add(self.addition_launch(blocks * batch, degree, layer))
        return report

    def predict_resident(
        self,
        schedule,
        batch: int = 1,
        steps: int = 1,
        update_slots: int | None = None,
        planes: int = 1,
    ) -> dict:
        """Timing of ``steps`` resident sweeps of a fused batched schedule.

        Models the device-side equivalent of a resident
        :class:`repro.core.EvalContext` driving a Newton run or a path
        track: the full input region (constants, coefficients, variables of
        every instance) crosses PCIe **once**, and each later step re-sends
        only ``update_slots`` series per instance — by default the variable
        slots, the only inputs Newton changes between iterations.  The
        returned dictionary also carries the non-resident alternative
        (``repack_wall_ms``: a full input transfer before every step, the
        pre-residency behaviour) and the saving between the two.

        ``planes = 2`` accounts complex data (paired real/imaginary limb
        planes).  ``schedule`` must be a fused
        :class:`repro.core.FusedSystemSchedule` (it knows its input region).
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        per_step = self.predict(schedule, batch=batch)
        input_series = schedule.input_slot_count * batch
        if update_slots is None:
            update_slots = schedule.variable_slot_count
        update_series = update_slots * batch
        full_ms = self.transfer_ms(input_series, schedule.degree, planes)
        update_ms = self.transfer_ms(update_series, schedule.degree, planes)
        resident = steps * per_step.wall_clock_ms + full_ms + (steps - 1) * update_ms
        repack = steps * (per_step.wall_clock_ms + full_ms)
        return {
            "steps": steps,
            "batch": batch,
            "planes": planes,
            "kernel_ms_per_step": per_step.sum_ms,
            "wall_ms_per_step": per_step.wall_clock_ms,
            "input_series": input_series,
            "update_series": update_series,
            "full_transfer_ms": full_ms,
            "update_transfer_ms": update_ms,
            "resident_wall_ms": resident,
            "repack_wall_ms": repack,
            "transfer_saved_ms": repack - resident,
        }

    def predict_masked(
        self,
        schedule,
        batch: int,
        active: int,
        steps: int = 1,
        planes: int = 1,
    ) -> dict:
        """Price ``steps`` masked sweeps of a shrinking resident fleet.

        The many-path scheduler keeps a fleet of ``batch`` instances packed
        and sweeps only the ``active`` ones still in flight
        (:meth:`repro.core.EvalContext.set_active`).  On the device this
        means every launch carries ``active`` instances' worth of blocks
        instead of ``batch`` — fewer waves per launch, same launch count —
        and each step's input update re-sends only the active instances'
        variable slots.  The returned dictionary compares the masked sweep
        against the full-batch alternative (the cost of *not* masking, i.e.
        sweeping converged and failed instances along), which is the number
        the scheduler's shrinking-active-set saving should be judged by.

        ``schedule`` must be a fused :class:`repro.core.FusedSystemSchedule`
        (it knows its variable slots); ``planes = 2`` accounts complex data.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if not 0 <= active <= batch:
            raise ValueError(
                f"active must lie in [0, batch] = [0, {batch}], got {active}"
            )
        full_step = self.predict(schedule, batch=batch)
        masked_step = self.predict(schedule, batch=active) if active else None
        update_series_full = schedule.variable_slot_count * batch
        update_series_active = schedule.variable_slot_count * active
        full_update_ms = self.transfer_ms(update_series_full, schedule.degree, planes)
        masked_update_ms = self.transfer_ms(update_series_active, schedule.degree, planes)
        masked_wall = masked_step.wall_clock_ms if masked_step else 0.0
        masked_kernel = masked_step.sum_ms if masked_step else 0.0
        full = steps * (full_step.wall_clock_ms + full_update_ms)
        masked = steps * (masked_wall + masked_update_ms)
        return {
            "steps": steps,
            "batch": batch,
            "active": active,
            "planes": planes,
            "kernel_ms_per_full_step": full_step.sum_ms,
            "kernel_ms_per_masked_step": masked_kernel,
            "wall_ms_per_full_step": full_step.wall_clock_ms,
            "wall_ms_per_masked_step": masked_wall,
            "update_transfer_full_ms": full_update_ms,
            "update_transfer_masked_ms": masked_update_ms,
            "full_wall_ms": full,
            "masked_wall_ms": masked,
            "masked_saved_ms": full - masked,
        }

    def predict_shards(
        self,
        schedule,
        batch: int,
        workers: int,
        steps: int = 1,
        planes: int = 1,
        spawn_ms: float = 300.0,
        ipc_gb_s: float = 5.0,
    ) -> dict:
        """Price sharding a resident fleet across ``workers`` processes.

        Models :class:`repro.parallel.ShardedFleetRunner`: the fleet of
        ``batch`` instances splits into ``workers`` near-even shards that
        sweep concurrently, so the parallel sweep time is that of the
        *largest* shard (``ceil(batch / workers)`` instances) — but every
        worker pays a one-off spawn/staging cost (``spawn_ms``: process
        start, schedule installation, shared-memory attach) and the results
        come back over an IPC queue at ``ipc_gb_s`` (sized from the shard's
        packed limb tensor, the dominant payload).  The returned dictionary
        compares against the single-process resident run and reports the
        break-even step count: below it the spawn overhead dominates and
        inline tracking wins, which is the guidance the README's
        worker-count section gives.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        single = self.predict_resident(schedule, batch=batch, steps=steps, planes=planes)
        shard_batch = math.ceil(batch / workers)
        shard = self.predict_resident(
            schedule, batch=shard_batch, steps=steps, planes=planes
        )
        shard_bytes = (
            planes * self.limbs * shard_batch * schedule.total_slots
            * (schedule.degree + 1) * 8
        )
        ipc_ms = workers * (shard_bytes / (ipc_gb_s * 1.0e9) * 1.0e3)
        overhead_ms = workers * spawn_ms + ipc_ms
        sharded_wall = shard["resident_wall_ms"] + overhead_ms
        single_wall = single["resident_wall_ms"]
        # Per-step saving decides how many steps amortise the fixed overhead.
        per_step_saving = (
            single["wall_ms_per_step"] - shard["wall_ms_per_step"]
        ) + (single["update_transfer_ms"] - shard["update_transfer_ms"])
        break_even = (
            math.inf if per_step_saving <= 0.0
            else math.ceil(overhead_ms / per_step_saving)
        )
        return {
            "batch": batch,
            "workers": workers,
            "steps": steps,
            "planes": planes,
            "shard_batch": shard_batch,
            "spawn_overhead_ms": workers * spawn_ms,
            "ipc_transfer_ms": ipc_ms,
            "single_wall_ms": single_wall,
            "sharded_wall_ms": sharded_wall,
            "speedup": single_wall / sharded_wall if sharded_wall > 0.0 else math.inf,
            "break_even_steps": break_even,
        }

    def predict_coalesce(
        self,
        schedule,
        requests: int,
        steps: int = 1,
        planes: int = 1,
    ) -> dict:
        """Price coalescing ``requests`` solves into one resident batch.

        Models the micro-batching merge of :class:`repro.service.SolveEngine`:
        ``requests`` structurally identical Newton solves of ``steps`` sweeps
        each either run **coalesced** — one resident batch-``requests``
        fleet, so every kernel launch carries ``requests`` times the blocks
        but the per-launch overhead and the full input transfer are paid
        once per step instead of once per request — or **sequentially**,
        each request its own batch-1 resident run paying its own launch
        overhead and transfers.  The gap between the two is the throughput
        the service's coalescing window buys, and what the ``coalesce``
        ledger entries compare measured flushes against.

        ``schedule`` must be a fused
        :class:`repro.core.FusedSystemSchedule`; ``planes = 2`` accounts
        complex data.
        """
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        coalesced = self.predict_resident(
            schedule, batch=requests, steps=steps, planes=planes
        )
        solo = self.predict_resident(schedule, batch=1, steps=steps, planes=planes)
        coalesced_wall = coalesced["resident_wall_ms"]
        sequential_wall = requests * solo["resident_wall_ms"]
        return {
            "requests": requests,
            "steps": steps,
            "planes": planes,
            "coalesced_wall_ms": coalesced_wall,
            "sequential_wall_ms": sequential_wall,
            "per_request_ms": coalesced_wall / requests,
            "solo_wall_ms": solo["resident_wall_ms"],
            "saved_ms": sequential_wall - coalesced_wall,
            "speedup": (
                sequential_wall / coalesced_wall if coalesced_wall > 0.0 else math.inf
            ),
        }

    def predict_solve(self, dimension: int, degree: int, batch: int = 1) -> TimingReport:
        """Predicted launch sequence of one batched lead-matrix series solve.

        Models :func:`repro.homotopy.batch_linsolve.batch_lu_solve_tensor`
        solving ``batch`` packed ``n x n`` systems (``n = dimension``) of
        degree-``degree`` series at once, launch for launch.  Every launch
        works on scalars, one block per ring operation of all instances, so
        each is priced as a degree-0 convolution launch (products and pivot
        reciprocals) or addition launch (sums and subtractions):

        * **the lead matrix** ``A_0``, by elimination on ``[A_0 | I]`` (layer
          ``c + 1``): per column ``c`` one reciprocal launch of ``batch``
          blocks, and while ``r = n - 1 - c`` rows remain a factor launch of
          ``r * batch`` blocks and an update pair, a product and an addition
          launch of ``r * (r + n) * batch`` blocks each; then per
          back-substitution row with ``l`` later rows (from the last) one
          launch of ``l * n * batch`` products, ``l`` sequential addition
          launches of ``n * batch`` blocks and one launch of ``n * batch``
          blocks scaling by the pivot reciprocal;
        * **per coefficient** ``k`` (layer ``n + k + 1``): for ``k >= 1`` one
          launch of the ``n^2 k batch`` products ``A_i x_(k-i)``, one
          addition launch per level of their pairwise tree (``n k`` terms per
          row, halving, rounded up) and one subtraction launch of ``n *
          batch`` blocks; then one launch of the ``n^2 batch`` products by
          ``A_0^(-1)`` and the levels of its tree over ``n`` terms.

        The coefficients run in sequence — each needs every earlier one — so
        a solve makes ``O(n^2 + d log(n d))`` launches.
        """
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        n = dimension
        report = TimingReport()

        def products(blocks: int, layer: int) -> None:
            report.add(self.convolution_launch(blocks, 0, layer=layer))

        def sums(blocks: int, layer: int) -> None:
            report.add(self.addition_launch(blocks, 0, layer=layer))

        def tree(terms: int, layer: int) -> None:
            while terms > 1:
                sums(terms // 2 * n * batch, layer)
                terms -= terms // 2

        for column in range(n):
            products(batch, column + 1)
            rows = n - 1 - column
            if rows:
                products(rows * batch, column + 1)
                products(rows * (rows + n) * batch, column + 1)
                sums(rows * (rows + n) * batch, column + 1)
        for row in range(n - 1, -1, -1):
            later = n - 1 - row
            if later:
                products(later * n * batch, row + 1)
            for _ in range(later):
                sums(n * batch, row + 1)
            products(n * batch, row + 1)
        for k in range(degree + 1):
            layer = n + k + 1
            if k:
                products(n * n * k * batch, layer)
                tree(n * k, layer)
                sums(n * batch, layer)
            products(n * n * batch, layer)
            tree(n, layer)
        return report

    def predict_from_launch_sizes(
        self,
        convolution_launches,
        addition_launches,
        degree: int,
    ) -> TimingReport:
        """Predict timings directly from launch sizes (no schedule needed).

        This is what the table benchmarks use: the launch sizes of the
        paper's test polynomials depend only on their structure, which is
        known, so the (large) schedules need not be rebuilt for every degree
        and precision.
        """
        report = TimingReport()
        for layer, blocks in enumerate(convolution_launches, start=1):
            if blocks:
                report.add(self.convolution_launch(blocks, degree, layer))
        for layer, blocks in enumerate(addition_launches, start=1):
            if blocks:
                report.add(self.addition_launch(blocks, degree, layer))
        return report
