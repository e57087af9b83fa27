"""Tests for ``repro.obs`` — the fleet telemetry subsystem.

The contracts under test:

* configuration is layered (defaults → file → environment → per-call) and
  each layer only overrides the fields it names;
* the disabled path records nothing and hands out one cached null span —
  instrumented call sites never allocate when telemetry is off;
* spans/counters/gauges/ledger round-trip through snapshots, process
  merges, Chrome trace export and the ``python -m repro.obs`` CLI;
* an inline ``track_paths`` run with ``telemetry=True`` covers the whole
  stack: scheduler fleets, context packs/sweeps, packed solves, and a
  measured-vs-predicted ledger over the sweep / masked-sweep / solve /
  transfer kernel classes;
* sharded runs produce ONE merged timeline: ``shards=1`` matches the
  in-process trace span for span, a crashed worker degrades to an inline
  re-run whose spans are tagged ``fallback=True``, and the merged counters
  confirm the one-pack-per-fleet invariant per shard.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.circuits import parse_polynomial
from repro.circuits.monomial import Monomial
from repro.core import CommonFactorPlan, ScheduleCache, SystemEvaluator
from repro.core import system as system_module
from repro.homotopy import PathScheduler, TrackOptions, track_paths
from repro.obs import (
    DEFAULT_OBS_CONFIG,
    ObsConfig,
    build_report,
    chrome_trace,
    get_telemetry,
    load_trace,
    merge_snapshots,
    render_text,
    report_from_trace,
    resolve_config,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.config import coerce_layer, layer_config
from repro.obs.telemetry import _NULL_SPAN, Telemetry
from repro.series import random_series_vector

from test_scheduler import _RETRY_OPTIONS, retry_family, sqrt_family
from test_shard import _CrashInChildFamily, _ShardRetryFamily


@pytest.fixture(autouse=True)
def _clean_registry():
    """Reset the process-wide registry around every test."""
    tel = get_telemetry()
    previous = tel.config
    tel.reset()
    yield tel
    tel._apply(previous)
    tel.reset()


# --------------------------------------------------------------------- #
# layered configuration
# --------------------------------------------------------------------- #
class TestObsConfig:
    def test_defaults_off_full_sample_no_sink(self):
        assert DEFAULT_OBS_CONFIG == ObsConfig(enabled=False, sample=1.0, sink=None)

    def test_sample_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError, match="sample"):
            ObsConfig(sample=0.0)
        with pytest.raises(ValueError, match="sample"):
            ObsConfig(sample=1.5)
        assert ObsConfig(sample=1.0).sample == 1.0

    def test_partial_layer_inherits_unnamed_fields(self):
        base = ObsConfig(enabled=False, sample=1.0, sink="/tmp/base")
        merged = ObsConfig(enabled=True).merged_onto(base)
        assert merged == ObsConfig(enabled=True, sample=1.0, sink="/tmp/base")

    def test_coerce_layer_accepts_bool_mapping_config_none(self):
        assert coerce_layer(None) is None
        assert coerce_layer(True) == ObsConfig(enabled=True)
        assert coerce_layer(False) == ObsConfig(enabled=False)
        assert coerce_layer({"sample": 0.5}) == ObsConfig(sample=0.5)
        config = ObsConfig(enabled=True)
        assert coerce_layer(config) is config

    def test_coerce_layer_rejects_unknown_keys_and_types(self):
        with pytest.raises(TypeError, match="unknown telemetry option"):
            coerce_layer({"enable": True})
        with pytest.raises(TypeError, match="telemetry must be"):
            coerce_layer(42)

    def test_environment_layer(self):
        config = resolve_config({"REPRO_TELEMETRY": "on", "REPRO_OBS_SAMPLE": "0.25"})
        assert config == ObsConfig(enabled=True, sample=0.25, sink=None)
        config = resolve_config({"REPRO_TELEMETRY": "off"})
        assert config.enabled is False
        with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
            resolve_config({"REPRO_TELEMETRY": "maybe"})

    def test_file_layer_under_environment_layer(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"enabled": True, "sample": 0.5, "sink": "traces"}))
        config = resolve_config({"REPRO_OBS_CONFIG": str(path)})
        assert config == ObsConfig(enabled=True, sample=0.5, sink="traces")
        # The environment layer wins over the file for the fields it names.
        config = resolve_config(
            {"REPRO_OBS_CONFIG": str(path), "REPRO_TELEMETRY": "0"}
        )
        assert config == ObsConfig(enabled=False, sample=0.5, sink="traces")

    def test_broken_config_file_is_skipped(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text("{not json")
        assert resolve_config({"REPRO_OBS_CONFIG": str(path)}) == DEFAULT_OBS_CONFIG
        assert (
            resolve_config({"REPRO_OBS_CONFIG": str(tmp_path / "missing.json")})
            == DEFAULT_OBS_CONFIG
        )

    def test_per_call_layer_on_resolved_config(self):
        base = ObsConfig(enabled=False, sample=1.0, sink=None)
        assert layer_config(base, True).enabled is True
        assert layer_config(base, None) is base
        layered = layer_config(base, {"enabled": True, "sink": "out"})
        assert layered == ObsConfig(enabled=True, sample=1.0, sink="out")

    def test_track_options_normalise_the_telemetry_layer(self):
        options = TrackOptions().override(telemetry={"enabled": True, "sample": 0.5})
        assert options.telemetry == ObsConfig(enabled=True, sample=0.5)
        assert TrackOptions().telemetry is None
        assert TrackOptions().override(telemetry=True).telemetry == ObsConfig(
            enabled=True
        )
        with pytest.raises(TypeError, match="unknown telemetry option"):
            TrackOptions().override(telemetry={"verbose": 1})


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #
class TestTelemetry:
    def test_disabled_records_nothing_and_reuses_one_null_span(self):
        tel = Telemetry(ObsConfig(enabled=False, sample=1.0))
        assert tel.span("a") is _NULL_SPAN
        assert tel.span("b", attr=1) is _NULL_SPAN
        with tel.span("a"):
            pass
        tel.record_span("a", 0, 10)
        tel.count("c")
        tel.gauge("g", 1.0)
        tel.ledger("sweep", 1.0, 2.0)
        snap = tel.snapshot()
        assert snap["events"] == []
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["ledger"] == []

    def test_enabled_span_counter_gauge_ledger(self):
        tel = Telemetry(ObsConfig(enabled=True, sample=1.0))
        with tel.span("region", batch=4):
            pass
        tel.record_span("pair", 100, 300, limbs=2)
        tel.count("launches")
        tel.count("launches", 2)
        tel.gauge("density", 0.5)
        tel.gauge("density", 0.25)
        tel.ledger("sweep", 2.0, 1.0)
        names = [event[0] for event in tel.spans()]
        assert names == ["region", "pair"]
        pair = tel.spans()[1]
        assert (pair[1], pair[2], pair[5]) == (100, 300, {"limbs": 2})
        assert tel.counters() == {"launches": 3}
        gauge = tel.gauges()["density"]
        assert gauge == {"last": 0.25, "min": 0.25, "max": 0.5, "mean": 0.375, "count": 2}
        assert tel.snapshot()["ledger"] == [("sweep", 2.0, 1.0)]

    def test_sampling_thins_spans_but_never_counters(self):
        tel = Telemetry(ObsConfig(enabled=True, sample=0.25))
        for _ in range(20):
            tel.record_span("s", 0, 1)
            tel.count("c")
        assert len(tel.spans()) == 5  # every 4th span
        assert tel.counters() == {"c": 20}

    def test_scope_stamps_attrs_on_nested_spans(self):
        tel = Telemetry(ObsConfig(enabled=True, sample=1.0))
        with tel.scope(fallback=True, shard=3):
            tel.record_span("inner", 0, 1, batch=2)
        tel.record_span("outer", 0, 1)
        inner, outer = tel.spans()
        assert inner[5] == {"fallback": True, "shard": 3, "batch": 2}
        assert outer[5] is None

    def test_overridden_restores_previous_config(self):
        tel = Telemetry(ObsConfig(enabled=False, sample=1.0))
        with tel.overridden(True):
            assert tel.enabled is True
            tel.count("inside")
        assert tel.enabled is False
        assert tel.counters() == {"inside": 1}
        with tel.overridden(None):
            assert tel.enabled is False

    def test_configure_keywords_and_layer_are_exclusive(self):
        tel = Telemetry(ObsConfig(enabled=False, sample=1.0))
        tel.configure(enabled=True, sample=0.5)
        assert tel.config == ObsConfig(enabled=True, sample=0.5, sink=None)
        with pytest.raises(TypeError, match="either a layer or keyword"):
            tel.configure(True, sample=0.5)

    def test_snapshot_reset_and_merge_with_extra_attrs(self):
        parent = Telemetry(ObsConfig(enabled=True, sample=1.0))
        worker = Telemetry(ObsConfig(enabled=True, sample=1.0))
        worker.label = "shard 0 worker"
        worker.record_span("context.sweep", 10, 20, batch=8)
        worker.count("context.packs")
        worker.gauge("density", 1.0)
        worker.ledger("solve", 1.0, 0.5)
        snap = worker.snapshot(reset=True)
        assert worker.spans() == [] and worker.counters() == {}

        parent.record_span("shard.prepare", 0, 5)
        parent.count("context.packs")
        parent.gauge("density", 0.5)
        parent.merge(snap, shard=0)
        names = sorted(event[0] for event in parent.spans())
        assert names == ["context.sweep", "shard.prepare"]
        merged_attrs = next(e[5] for e in parent.spans() if e[0] == "context.sweep")
        assert merged_attrs == {"batch": 8, "shard": 0}
        assert parent.counters() == {"context.packs": 2}
        assert parent.gauges()["density"]["count"] == 2
        assert parent.snapshot()["labels"][snap["pid"]] == "shard 0 worker"
        parent.merge(None)  # a worker with nothing to report is a no-op

    def test_merge_snapshots_helper_matches_registry_merge(self):
        a = Telemetry(ObsConfig(enabled=True, sample=1.0))
        b = Telemetry(ObsConfig(enabled=True, sample=1.0))
        a.record_span("x", 0, 1)
        a.count("n", 2)
        b.record_span("y", 1, 2)
        b.count("n", 3)
        merged = merge_snapshots(a.snapshot(), [b.snapshot(), None])
        assert sorted(e[0] for e in merged["events"]) == ["x", "y"]
        assert merged["counters"] == {"n": 5}


# --------------------------------------------------------------------- #
# trace export, reports, the CLI
# --------------------------------------------------------------------- #
class TestTraceAndReport:
    def _snapshot(self):
        tel = Telemetry(ObsConfig(enabled=True, sample=1.0))
        tel.label = "driver"
        tel.record_span("context.sweep", 2_000, 5_000, batch=8)
        tel.record_span("solve.packed", 5_000, 6_000)
        tel.count("solve.launches", 2)
        tel.gauge("density", 0.5)
        tel.ledger("sweep", 2.0, 1.0)
        tel.ledger("sweep", 3.0, 1.5)
        tel.ledger("solve", 1.0, 4.0)
        return tel.snapshot()

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._snapshot())
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [e["name"] for e in complete] == ["context.sweep", "solve.packed"]
        # Timestamps are microseconds relative to the earliest span.
        assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 3.0
        assert complete[1]["ts"] == 3.0 and complete[1]["dur"] == 1.0
        assert complete[0]["args"] == {"batch": 8}
        assert len(meta) == 1 and meta[0]["args"] == {"name": "driver"}
        assert doc["otherData"]["counters"] == {"solve.launches": 2}

    def test_trace_round_trip_and_report_from_trace(self, tmp_path):
        tel = get_telemetry()
        tel.configure(enabled=True)
        tel.merge(self._snapshot())
        path = tmp_path / "trace.json"
        tel.write_trace(path)
        doc = load_trace(path)
        assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {
            "context.sweep",
            "solve.packed",
        }
        report = report_from_trace(doc)
        assert report["counters"] == {"solve.launches": 2}
        assert report["spans"]["context.sweep"]["count"] == 1

    def test_report_ledger_ratios(self):
        report = build_report(self._snapshot())
        sweep = report["ledger"]["sweep"]
        assert sweep["count"] == 2
        assert sweep["ratio"]["mean"] == 2.0
        assert sweep["ratio"]["median"] == 2.0
        solve = report["ledger"]["solve"]
        assert solve["ratio"] == {
            "mean": 0.25,
            "median": 0.25,
            "min": 0.25,
            "max": 0.25,
            "count": 1,
        }
        text = render_text(report)
        assert "measured vs predicted" in text
        assert "sweep" in text and "solve" in text

    def test_render_text_empty_report(self):
        assert "nothing recorded" in render_text(build_report({"events": []}))

    def test_cli_renders_trace_and_report(self, tmp_path, capsys):
        tel = get_telemetry()
        tel.configure(enabled=True)
        tel.merge(self._snapshot())
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        tel.write_trace(trace_path)
        tel.write_report(report_path)

        assert obs_main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "context.sweep" in out and "solve.launches" in out

        assert obs_main(["--json", str(report_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"] == {"solve.launches": 2}

        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit, match="not a repro.obs"):
            obs_main([str(bogus)])

    def test_write_sink_emits_trace_and_report(self, tmp_path):
        tel = get_telemetry()
        tel.configure(enabled=True, sink=str(tmp_path / "sink"))
        tel.record_span("x", 0, 1)
        directory = tel.write_sink()
        assert directory == str(tmp_path / "sink")
        assert (tmp_path / "sink" / "trace.json").exists()
        assert (tmp_path / "sink" / "report.json").exists()


# --------------------------------------------------------------------- #
# the instrumented stack, in process
# --------------------------------------------------------------------- #
class TestInlineIntegration:
    def test_disabled_tracking_records_nothing(self):
        tel = get_telemetry()
        track_paths(sqrt_family, [[1.0], [-1.0]], degree=6)
        snap = tel.snapshot()
        assert snap["events"] == [] and snap["counters"] == {} and snap["ledger"] == []

    def test_enabled_tracking_covers_the_whole_stack(self, monkeypatch):
        # A private default cache: the retry family's structure may already
        # be cached by earlier tests in this process, and this test counts
        # the misses of its own staging.
        monkeypatch.setattr(system_module, "_DEFAULT_CACHE", ScheduleCache())
        tel = get_telemetry()
        starts = [[2.0], [1.0], [2.0], [1.0]]
        report = track_paths(retry_family(), starts, _RETRY_OPTIONS, telemetry=True)
        assert tel.enabled is False  # the per-call layer was restored
        snap = tel.snapshot()

        names = {event[0] for event in snap["events"]}
        assert {
            "scheduler.track",
            "scheduler.fleet",
            "scheduler.round",
            "context.pack",
            "context.sweep",
            "context.update_inputs",
            "solve.packed",
        } <= names

        counters = snap["counters"]
        assert counters["context.packs"] == len(report.fleets)
        assert counters["solve.launches"] > 0
        assert counters["scheduler.retries"] == len(report.escalated_indices)
        assert counters["schedule_cache.misses"] >= 1
        assert "sweep.active_density" in snap["gauges"]

        # The measured-vs-predicted ledger covers all four kernel classes.
        kernels = {row[0] for row in snap["ledger"]}
        assert kernels == {"sweep", "masked-sweep", "solve", "transfer"}
        ledger = build_report(snap)["ledger"]
        for kernel in ("sweep", "masked-sweep", "solve", "transfer"):
            assert ledger[kernel]["ratio"]["count"] > 0

        # The cache stats ride on the report.
        assert report.cache["misses"] >= 1
        assert report.cache["entries"] >= 1

    def test_common_factor_span_and_transfer_ledger(self, monkeypatch):
        """The common-factor step is its own span, with its row count and
        path, and the transfer ledger times the variable-row writes only:
        slowing the common factor down leaves every transfer fast."""
        delay = 0.05

        def slowed(function):
            def slow(*args, **kwargs):
                time.sleep(delay)
                return function(*args, **kwargs)

            return slow

        monkeypatch.setattr(CommonFactorPlan, "factors", slowed(CommonFactorPlan.factors))
        monkeypatch.setattr(
            Monomial, "split_common_factor", slowed(Monomial.split_common_factor)
        )
        polynomial = parse_polynomial(
            "x1^3 + x1*x2^2 - 1", dimension=2, degree=4, kind="md", precision=2
        )
        evaluator = SystemEvaluator([polynomial], mode="vectorized", cache=ScheduleCache())
        rng = random.Random(5)
        tel = get_telemetry()
        with tel.overridden(True):
            for batch in (32, 1):
                context = evaluator.make_context(batch)
                for _ in range(2):  # the first update packs
                    context.update_inputs(
                        [random_series_vector(2, 4, "md", 2, rng) for _ in range(batch)]
                    )
        snap = tel.snapshot()
        spans = [event for event in snap["events"] if event[0] == "context.common_factor"]
        assert [(e[5]["rows"], e[5]["path"]) for e in spans] == [
            (64, "batched"),
            (64, "batched"),
            (2, "per-lane"),
            (2, "per-lane"),
        ]
        updates = [event for event in snap["events"] if event[0] == "context.update_inputs"]
        assert len(updates) == 4
        for event in spans + updates:
            assert event[2] - event[1] >= delay * 1e9
        transfers = [measured for kernel, measured, _ in snap["ledger"] if kernel == "transfer"]
        assert len(transfers) == 6  # two packs and four updates
        assert max(transfers) < delay * 1e3

    def test_telemetry_overhead_is_invisible_to_results(self):
        starts = [[1.0], [-1.0], [1.5]]
        plain = track_paths(sqrt_family, starts, degree=6)
        traced = track_paths(sqrt_family, starts, degree=6, telemetry=True)
        assert plain.n_converged == traced.n_converged
        for mine, theirs in zip(plain.statuses, traced.statuses):
            assert (mine.converged, mine.steps) == (theirs.converged, theirs.steps)

    def test_sink_written_at_the_end_of_track_paths(self, tmp_path):
        sink = tmp_path / "fleet"
        track_paths(
            sqrt_family,
            [[1.0]],
            degree=6,
            telemetry={"enabled": True, "sink": str(sink)},
        )
        trace = load_trace(sink / "trace.json")
        assert any(e["name"] == "scheduler.track" for e in trace["traceEvents"])
        report = json.loads((sink / "report.json").read_text())
        assert "scheduler.track" in report["spans"]


# --------------------------------------------------------------------- #
# sharded mode: one merged timeline
# --------------------------------------------------------------------- #
def _span_signature(snapshot):
    """Multiset of span names, parent-side shard plumbing excluded."""
    names = [
        event[0]
        for event in snapshot["events"]
        if not event[0].startswith("shard.")
    ]
    return sorted(names)


def _tracked_counters(snapshot):
    """Counters minus parent-side plumbing and the schedule cache.

    Cache hit/miss counts legitimately differ across the process boundary:
    the parent pre-builds every schedule and ships it, so a worker's cache
    starts warm (zero misses) where the in-process run builds on demand.
    """
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith(("shard.", "schedule_cache."))
    }


class TestShardedTelemetry:
    def test_one_shard_trace_matches_in_process_span_for_span(self):
        tel = get_telemetry()
        starts = [[2.0], [1.0], [1.0], [2.0]]

        PathScheduler(
            _ShardRetryFamily(2), _RETRY_OPTIONS.override(telemetry=True)
        ).track(starts)
        inline = tel.snapshot(reset=True)

        track_paths(
            _ShardRetryFamily(2),
            starts,
            options=_RETRY_OPTIONS.override(shards=1, telemetry=True),
        )
        sharded = tel.snapshot(reset=True)

        assert _span_signature(sharded) == _span_signature(inline)
        assert _tracked_counters(sharded) == _tracked_counters(inline)
        # The worker ran in its own process on the merged timeline: its pid
        # differs from the parent's, and its lane is labelled.
        worker_pids = {
            event[3] for event in sharded["events"] if not event[0].startswith("shard.")
        }
        assert worker_pids and sharded["pid"] not in worker_pids
        (worker_pid,) = worker_pids
        assert sharded["labels"][worker_pid] == "shard 0 worker"
        # Parent-side plumbing spans exist alongside the worker's.
        parent_names = {
            event[0] for event in sharded["events"] if event[0].startswith("shard.")
        }
        assert parent_names == {"shard.prepare", "shard.worker"}
        assert sharded["counters"]["shard.workers_spawned"] == 1

    def test_merged_counters_confirm_one_pack_per_shard(self):
        tel = get_telemetry()
        starts = [[1.0], [1.0], [1.0], [1.0]]
        report = track_paths(
            _ShardRetryFamily(2),
            starts,
            options=_RETRY_OPTIONS.override(shards=2, telemetry=True),
        )
        snap = tel.snapshot(reset=True)
        assert len(report.shards) == 2
        # The one-pack-per-fleet invariant, visible in the merged counters:
        # no retries here, so packs == number of shards.
        assert snap["counters"]["context.packs"] == len(report.shards)
        assert snap["counters"]["shard.workers_spawned"] == 2
        worker_spans = [e for e in snap["events"] if e[0] == "shard.worker"]
        assert sorted(e[5]["shard"] for e in worker_spans) == [0, 1]
        assert all(e[5]["outcome"] == "result" for e in worker_spans)
        # Every worker span carries its shard attribute into the trace.
        sweep_shards = {
            e[5].get("shard") for e in snap["events"] if e[0] == "context.sweep"
        }
        assert sweep_shards == {0, 1}

    def test_dead_worker_fallback_yields_coherent_tagged_trace(self):
        tel = get_telemetry()
        starts = [[1.0], [-1.0]]
        options = TrackOptions().override(
            degree=4,
            mode="vectorized",
            step={"grow": 1.0},
            newton={"max_iterations": 6, "tolerance": 1e-10},
            shards=1,
            telemetry=True,
        )
        report = track_paths(_CrashInChildFamily(), starts, options=options)
        snap = tel.snapshot(reset=True)
        assert report.shards[0]["via"] == "inline-fallback"
        assert report.n_converged == len(starts)

        assert snap["counters"]["shard.fallbacks"] == 1
        worker_spans = [e for e in snap["events"] if e[0] == "shard.worker"]
        assert [e[5]["outcome"] for e in worker_spans] == ["dead"]
        # The inline re-run's spans are all tagged fallback=True ...
        fallback = [e for e in snap["events"] if (e[5] or {}).get("fallback")]
        assert {"scheduler.track", "context.sweep"} <= {e[0] for e in fallback}
        assert all(e[5]["shard"] == 0 for e in fallback)
        # ... and the merged snapshot still renders as one coherent trace.
        doc = chrome_trace(snap)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete and all(e["dur"] >= 0 for e in complete)
        assert any(e.get("args", {}).get("fallback") for e in complete)
