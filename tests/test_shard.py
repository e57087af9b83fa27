"""Tests for process-sharded fleet execution on shared-memory limb tensors.

The contracts under test are the scale-out PR's headline guarantees:

* packed limb tensors round-trip through ``multiprocessing.shared_memory``
  **bitwise** — exported in one process, re-adopted zero-copy in a spawned
  child, every limb plane identical — across dd/qd and real/complex rings;
* ``track_paths`` with ``shards=1`` is bit-identical limb by limb to the
  in-process PR 7 scheduler (and so is any other worker count), while every
  shard packs its slot tensor exactly once, straight into its segment;
* the control plane degrades gracefully: a crashed worker's shard re-runs
  inline (or raises when the fallback is disabled), and an unpicklable
  family falls back to inline tracking with a diagnostic instead of a
  crash inside ``multiprocessing``;
* schedules are staged once in the parent and shipped to workers via
  ``ScheduleCache.export_entries`` / ``install_entries``.
"""

from __future__ import annotations

import math
import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import ScheduleCache
from repro.core.tensor import SlotTensor, tensor_nbytes
from repro.errors import ShardError
from repro.gpusim import TimingModel
from repro.homotopy import (
    PathScheduler,
    ShardOptions,
    TrackOptions,
    track_paths,
)
from repro.md import ComplexMD, MultiDouble
from repro.parallel import ShardedFleetRunner, partition_paths
from repro.series import (
    random_complex_md_series,
    random_complex_series,
    random_md_series,
)

from test_scheduler import _RETRY_OPTIONS, retry_family, sqrt_family


# --------------------------------------------------------------------- #
# spawn-side helpers (module level so they pickle)
# --------------------------------------------------------------------- #
def _read_planes(segment_name: str, spec: dict, channel) -> None:
    """Child side of the round-trip: adopt the segment, ship the planes back."""
    segment = shared_memory.SharedMemory(name=segment_name)
    try:
        tensor = SlotTensor.from_buffer(segment.buf, **spec)
        if len(tensor.planes) == 2:
            channel.put(tuple(plane.tobytes() for plane in tensor.planes))
        else:
            channel.put((tensor.planes[0].tobytes(), None))
    finally:
        segment.close()


class _ShardRetryFamily:
    """Picklable stand-in for ``test_scheduler.retry_family``.

    The original returns a closure, which ``spawn`` cannot pickle; this
    wrapper carries only the precision and rebuilds the closure on the
    child side at call time.
    """

    def __init__(self, precision: int = 2):
        self.precision = precision

    def __call__(self, t0: float, degree: int):
        return retry_family(self.precision)(t0, degree)


class _CrashInChildFamily:
    """A picklable family that kills any *worker* process it runs in.

    It remembers the pid it was built in: called from the parent (the
    inline fallback) it behaves like ``sqrt_family``, called from a spawned
    worker it hard-exits — the crashed-worker scenario the control plane
    must degrade through.
    """

    def __init__(self):
        import os

        self.parent_pid = os.getpid()

    def __call__(self, t0: float, degree: int):
        import os

        if os.getpid() != self.parent_pid:
            os._exit(13)
        return sqrt_family(t0, degree)


# --------------------------------------------------------------------- #
# shared-memory round-trips
# --------------------------------------------------------------------- #
class TestSharedMemoryRoundTrip:
    @pytest.mark.parametrize("limbs", (2, 4))
    def test_real_tensor_bitwise_roundtrip_in_child(self, limbs, rng):
        slots = [random_md_series(5, precision=limbs, rng=rng) for _ in range(7)]
        tensor = SlotTensor.pack(slots, limbs=limbs)
        segment = shared_memory.SharedMemory(create=True, size=tensor.nbytes)
        try:
            spec = tensor.export_buffer(segment.buf)
            context = multiprocessing.get_context("spawn")
            channel = context.Queue()
            child = context.Process(
                target=_read_planes, args=(segment.name, spec, channel)
            )
            child.start()
            data, imag = channel.get(timeout=120)
            child.join(timeout=30)
            assert child.exitcode == 0
            assert imag is None
            assert data == tensor.planes[0].tobytes()  # bitwise, limb by limb
        finally:
            segment.close()
            segment.unlink()

    @pytest.mark.parametrize("limbs", (2, 4))
    def test_complex_tensor_bitwise_roundtrip_in_child(self, limbs, rng):
        if limbs == 1:
            slots = [random_complex_series(4, rng=rng) for _ in range(5)]
        else:
            slots = [
                random_complex_md_series(4, precision=limbs, rng=rng)
                for _ in range(5)
            ]
        tensor = SlotTensor.pack(slots, limbs=limbs, ring="cmd")
        segment = shared_memory.SharedMemory(create=True, size=tensor.nbytes)
        try:
            spec = tensor.export_buffer(segment.buf)
            context = multiprocessing.get_context("spawn")
            channel = context.Queue()
            child = context.Process(
                target=_read_planes, args=(segment.name, spec, channel)
            )
            child.start()
            real, imag = channel.get(timeout=120)
            child.join(timeout=30)
            assert child.exitcode == 0
            assert real == tensor.planes[0].tobytes()
            assert imag == tensor.planes[1].tobytes()
        finally:
            segment.close()
            segment.unlink()

    def test_plain_complex_ring_roundtrip_in_child(self, rng):
        slots = [random_complex_series(4, rng=rng) for _ in range(5)]
        tensor = SlotTensor.pack(slots, limbs=1, ring="complex")
        segment = shared_memory.SharedMemory(create=True, size=tensor.nbytes)
        try:
            spec = tensor.export_buffer(segment.buf)
            assert spec["ring"] == "complex"
            context = multiprocessing.get_context("spawn")
            channel = context.Queue()
            child = context.Process(
                target=_read_planes, args=(segment.name, spec, channel)
            )
            child.start()
            real, imag = channel.get(timeout=120)
            child.join(timeout=30)
            assert real == tensor.planes[0].tobytes()
            assert imag == tensor.planes[1].tobytes()
        finally:
            segment.close()
            segment.unlink()

    def test_from_buffer_is_zero_copy(self, rng):
        slots = [random_md_series(3, precision=2, rng=rng) for _ in range(4)]
        tensor = SlotTensor.pack(slots, limbs=2)
        segment = shared_memory.SharedMemory(create=True, size=tensor.nbytes)
        try:
            spec = tensor.export_buffer(segment.buf)
            adopted = SlotTensor.from_buffer(
                segment.buf,
                limbs=spec["limbs"],
                rows=spec["rows"],
                width=spec["width"],
                ring=spec["ring"],
            )
            assert np.array_equal(adopted.planes[0], tensor.planes[0])
            # A write through the adopted view lands in the segment itself.
            adopted.planes[0][0, 0, 0] = 42.0
            twin = np.ndarray(
                tensor.planes[0].shape, dtype=np.float64, buffer=segment.buf
            )
            assert twin[0, 0, 0] == 42.0
        finally:
            segment.close()
            segment.unlink()

    def test_tensor_nbytes_matches_packed(self, rng):
        real = SlotTensor.pack(
            [random_md_series(5, precision=4, rng=rng) for _ in range(3)], limbs=4
        )
        assert tensor_nbytes("md", 4, 3, 6) == real.nbytes
        cplx = SlotTensor.pack(
            [random_complex_md_series(5, precision=2, rng=rng) for _ in range(3)],
            limbs=2,
            ring="cmd",
        )
        assert tensor_nbytes("cmd", 2, 3, 6) == cplx.nbytes


# --------------------------------------------------------------------- #
# options and cache plumbing
# --------------------------------------------------------------------- #
class TestShardOptions:
    def test_defaults_disable_sharding(self):
        options = TrackOptions()
        assert options.shard.workers == 0
        assert options.shard.resolve_workers() == 0

    def test_flat_shards_alias(self):
        options = TrackOptions().override(shards=3)
        assert options.shard.workers == 3

    def test_nested_mapping_merge(self):
        options = TrackOptions().override(
            shard={"workers": 2, "max_shard_size": 10, "fallback_inline": False}
        )
        assert options.shard == ShardOptions(
            workers=2, max_shard_size=10, fallback_inline=False
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardOptions(workers=-1)
        with pytest.raises(ValueError):
            ShardOptions(max_shard_size=0)
        with pytest.raises(ValueError):
            ShardOptions(start_timeout_s=0.0)
        with pytest.raises(ValueError):
            ShardOptions(heartbeat_timeout_s=-1.0)

    def test_repro_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ShardOptions(workers=None).resolve_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert ShardOptions(workers=None).resolve_workers() == 0
        monkeypatch.delenv("REPRO_WORKERS")
        assert ShardOptions(workers=None).resolve_workers() >= 1
        # An explicit count beats the environment.
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ShardOptions(workers=2).resolve_workers() == 2

    def test_partition_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            partition_paths(10, 0)


class TestScheduleShipping:
    def test_export_install_roundtrip(self):
        source = ScheduleCache(maxsize=8)
        source.get(("k1",), lambda: "schedule-1")
        source.get(("k2",), lambda: "schedule-2")
        snapshot = source.export_entries()
        assert snapshot == {("k1",): "schedule-1", ("k2",): "schedule-2"}
        partial = source.export_entries([("k2",), ("missing",)])
        assert partial == {("k2",): "schedule-2"}

        target = ScheduleCache(maxsize=8)
        target.install_entries(snapshot)
        # Installed entries are hits, not rebuilds: the builder must not run.
        assert target.get(("k1",), lambda: "REBUILT") == "schedule-1"
        stats = target.stats()
        assert stats["misses"] == 0 and stats["hits"] == 1

    def test_install_respects_maxsize(self):
        target = ScheduleCache(maxsize=2)
        target.install_entries({(i,): i for i in range(5)})
        assert len(target) == 2


# --------------------------------------------------------------------- #
# bit parity with the in-process scheduler
# --------------------------------------------------------------------- #
def _limb_signature(report):
    """Every path's every point as exact limb tuples (bit-level identity)."""
    signature = []
    for result in report.results:
        points = []
        for point in result.points:
            values = []
            for value in point.values:
                if isinstance(value, ComplexMD):
                    values.append(("cmd", value.real.limbs, value.imag.limbs))
                elif isinstance(value, MultiDouble):
                    values.append(("md", value.limbs))
                else:
                    values.append(("scalar", value))
            points.append((point.t, tuple(values), point.residual))
        signature.append((result.success, tuple(points)))
    return signature


class TestShardedBitParity:
    def test_one_worker_matches_inline_limb_by_limb(self):
        """The acceptance criterion: shards=1 == the in-process scheduler."""
        starts = [[2.0], [1.0], [1.0], [2.0], [1.0]]
        inline = PathScheduler(_ShardRetryFamily(2), _RETRY_OPTIONS).track(starts)
        sharded = track_paths(
            _ShardRetryFamily(2), starts, options=_RETRY_OPTIONS.override(shards=1)
        )
        assert _limb_signature(sharded) == _limb_signature(inline)
        assert [s.index for s in sharded.statuses] == list(range(len(starts)))
        for mine, theirs in zip(sharded.statuses, inline.statuses):
            assert (mine.converged, mine.reason, mine.steps, mine.retries) == (
                theirs.converged,
                theirs.reason,
                theirs.steps,
                theirs.retries,
            )
        # One process shard, run across a real process boundary.
        assert len(sharded.shards) == 1
        assert sharded.shards[0]["via"] == "process"

    def test_two_workers_match_inline_limb_by_limb(self):
        starts = [[2.0], [1.0], [1.0], [2.0], [1.0], [1.0]]
        inline = PathScheduler(_ShardRetryFamily(2), _RETRY_OPTIONS).track(starts)
        sharded = track_paths(
            _ShardRetryFamily(2), starts, options=_RETRY_OPTIONS.override(shards=2)
        )
        assert _limb_signature(sharded) == _limb_signature(inline)
        assert len(sharded.shards) == 2
        assert all(shard["via"] == "process" for shard in sharded.shards)

    def test_one_pack_per_shard_adopted_into_shared_memory(self):
        starts = [[1.0], [1.0], [1.0], [1.0]]
        options = _RETRY_OPTIONS.override(shards=2)
        report = track_paths(_ShardRetryFamily(2), starts, options=options)
        assert report.n_converged == len(starts)
        # Exactly one pack per shard, and that pack went straight into the
        # shared segment (no repacking across the process boundary).
        base_fleets = [fleet for fleet in report.fleets if fleet["limbs"] == 2]
        assert len(base_fleets) == 2
        assert all(fleet["packs"] == 1 for fleet in base_fleets)
        assert all(fleet["adopted"] for fleet in base_fleets)
        assert all(shard["packs"] == 1 for shard in report.shards)
        assert all(shard["adopted"] for shard in report.shards)
        assert all(shard["segment_bytes"] > 0 for shard in report.shards)

    def test_max_shard_size_queues_extra_shards(self):
        starts = [[1.0]] * 6
        options = _RETRY_OPTIONS.override(
            shard={"workers": 2, "max_shard_size": 2}
        )
        report = track_paths(_ShardRetryFamily(2), starts, options=options)
        assert report.n_converged == 6
        assert len(report.shards) == 3  # 6 paths / cap 2, throttled to 2 live
        assert [s["paths"] for s in report.shards] == [2, 2, 2]


# --------------------------------------------------------------------- #
# control-plane degradation
# --------------------------------------------------------------------- #
class TestControlPlane:
    def test_crashed_worker_falls_back_inline(self):
        starts = [[1.0], [-1.0]]
        options = TrackOptions().override(
            degree=4,
            mode="vectorized",
            step={"grow": 1.0},
            newton={"max_iterations": 6, "tolerance": 1e-10},
            shards=1,
        )
        runner = ShardedFleetRunner(_CrashInChildFamily(), options)
        report = runner.track(starts)
        assert len(report.shards) == 1
        assert report.shards[0]["via"] == "inline-fallback"
        assert "died" in report.shards[0]["failure"]
        # The inline re-run tracked the real family: full results, in order.
        assert report.n_converged == len(starts)
        assert [s.index for s in report.statuses] == list(range(len(starts)))

    def test_crashed_worker_raises_without_fallback(self):
        options = TrackOptions().override(
            degree=4, shard={"workers": 1, "fallback_inline": False}
        )
        runner = ShardedFleetRunner(_CrashInChildFamily(), options)
        with pytest.raises(ShardError):
            runner.track([[1.0]])

    def test_unpicklable_family_falls_back_inline(self):
        degree_cache = {}

        def closure_family(t0, degree):  # a closure cannot cross spawn
            key = (t0, degree)
            if key not in degree_cache:
                degree_cache[key] = sqrt_family(t0, degree)
            return degree_cache[key]

        options = TrackOptions().override(
            degree=4,
            mode="vectorized",
            step={"grow": 1.0},
            newton={"max_iterations": 6, "tolerance": 1e-10},
            shards=2,
        )
        report = track_paths(closure_family, [[1.0], [-1.0]], options=options)
        assert report.n_converged == 2
        assert len(report.shards) == 1
        assert report.shards[0]["via"] == "inline-fallback"
        assert "pickle" in report.shards[0]["reason"]

    def test_unpicklable_family_raises_without_fallback(self):
        def closure_family(t0, degree):
            return sqrt_family(t0, degree)

        options = TrackOptions().override(
            degree=4, shard={"workers": 2, "fallback_inline": False}
        )
        with pytest.raises(ShardError):
            ShardedFleetRunner(closure_family, options).track([[1.0], [-1.0]])

    def test_zero_workers_stays_inline(self):
        report = track_paths(
            sqrt_family,
            [[1.0], [-1.0]],
            options=TrackOptions().override(degree=4, shards=0),
        )
        assert report.n_converged == 2
        assert report.shards == []


# --------------------------------------------------------------------- #
# the shard cost model
# --------------------------------------------------------------------- #
class TestPredictShards:
    def _schedule(self):
        from repro.circuits import make_p1
        from repro.core import schedule_for_polynomial
        from repro.core.system import fuse_schedules

        p = make_p1(degree=8, kind="md", precision=2)
        return fuse_schedules([schedule_for_polynomial(p)])

    def test_shape_and_amortisation(self):
        schedule = self._schedule()
        model = TimingModel(device="P100", precision=2)
        priced = model.predict_shards(schedule, batch=64, workers=4, steps=100)
        assert priced["workers"] == 4
        assert priced["shard_batch"] == 16
        assert priced["sharded_wall_ms"] > 0.0
        assert priced["spawn_overhead_ms"] == pytest.approx(4 * 300.0)
        # More steps amortise the fixed spawn/IPC overhead: the speedup of a
        # long track dominates that of a short one.
        short = model.predict_shards(schedule, batch=64, workers=4, steps=1)
        assert priced["speedup"] > short["speedup"]
        if math.isfinite(priced["break_even_steps"]):
            assert priced["break_even_steps"] >= 1

    def test_validation(self):
        schedule = self._schedule()
        model = TimingModel(device="P100", precision=2)
        with pytest.raises(ValueError):
            model.predict_shards(schedule, batch=0, workers=2)
        with pytest.raises(ValueError):
            model.predict_shards(schedule, batch=8, workers=0)
        with pytest.raises(ValueError):
            model.predict_shards(schedule, batch=8, workers=2, steps=0)
