"""Streaming: ingestion, watermarks, incremental parity, windows.

The load-bearing suite here is the **incremental parity gate**: a
dataset fed in K micro-batches and processed by
``Pipeline.run_incremental`` must produce bit-identical extraction
output to a single batch run over the union — on all three backends,
with the float-summing speed extractor (where merge order shows up in
the last bit), and with chaos-injected worker loss mid-batch.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Pipeline, Selector, TimeSeriesStructure
from repro.core.converters import Event2TsConverter, Traj2TsConverter
from repro.core.extractors import TsFlowExtractor, TsSpeedExtractor
from repro.engine import EngineContext
from repro.engine.faults import FaultPlan, FaultRule, PipelineCheckpoint
from repro.geometry import Envelope
from repro.instances import Event
from repro.obs.tracer import Tracer, installed
from repro.partitioners import TSTRPartitioner
from repro.stio import StDataset
from repro.stio.metadata import DatasetMetadata
from repro.stream import (
    StaleStreamStateError,
    StreamState,
    WindowedFlowExtractor,
    WindowedSpeedExtractor,
)
from repro.temporal import Duration
from tests import oracles
from tests.conftest import make_events, make_trajectories

ALL_BACKENDS = ["sequential", "thread", "process"]

AREA = Envelope(0.0, 0.0, 10.0, 10.0)
DAY = 86_400.0


def make_ctx(backend: str = "sequential", **kwargs) -> EngineContext:
    options = kwargs.pop("backend_options", {})
    if backend == "process":
        options.setdefault("warmup", False)
    return EngineContext(
        default_parallelism=4,
        backend=backend,
        backend_options=options or None,
        **kwargs,
    )


def event_batches(k: int = 4, per_batch: int = 250) -> list[list[Event]]:
    """K seeded micro-batches, batch i covering day i."""
    batches = []
    for i in range(k):
        day = make_events(per_batch, seed=100 + i, t_extent=DAY)
        batches.append(
            [
                Event.of_point(
                    e.spatial.x,
                    e.spatial.y,
                    e.temporal.start + i * DAY,
                    data=e.data,
                )
                for e in day
            ]
        )
    return batches


def flow_pipeline(days: int = 4) -> Pipeline:
    span = Duration(0.0, days * DAY)
    return Pipeline(
        selector=Selector(AREA, span),
        converter=Event2TsConverter(
            TimeSeriesStructure.of_interval(span, 6 * 3_600.0)
        ),
        extractor=TsFlowExtractor(),
    )


# ---------------------------------------------------------------------------
# Watermark persistence


class TestWatermark:
    def test_round_trips_through_metadata(self, tmp_path):
        StDataset.write(tmp_path / "ds", [[ ]], "event", watermark=123.5)
        assert DatasetMetadata.load(tmp_path / "ds").watermark == 123.5

    def test_absent_by_default(self, tmp_path):
        StDataset.write(tmp_path / "ds", [make_events(10)], "event")
        meta = DatasetMetadata.load(tmp_path / "ds")
        assert meta.watermark is None
        assert "watermark" not in json.loads(
            (tmp_path / "ds" / "metadata.json").read_text()
        )

    def test_merge_keeps_max(self):
        a = DatasetMetadata("event", [], watermark=100.0)
        b = DatasetMetadata("event", [], watermark=50.0)
        assert a.merged_with(b).watermark == 100.0
        assert b.merged_with(a).watermark == 100.0

    def test_merge_with_absent_side(self):
        a = DatasetMetadata("event", [], watermark=100.0)
        b = DatasetMetadata("event", [])
        assert a.merged_with(b).watermark == 100.0
        assert b.merged_with(a).watermark == 100.0
        assert b.merged_with(b).watermark is None

    def test_in_place_rewrite_preserves_watermark(self, tmp_path):
        events = make_events(50)
        StDataset.write(tmp_path / "ds", [events], "event", watermark=77.0)
        StDataset.write(tmp_path / "ds", [events[:25], events[25:]], "event")
        meta = DatasetMetadata.load(tmp_path / "ds")
        assert meta.watermark == 77.0
        assert meta.generation == 1


# ---------------------------------------------------------------------------
# Ingestion


class TestIngest:
    def test_first_ingest_creates_dataset(self, tmp_path):
        batch = make_events(100, t_extent=DAY)
        report = StDataset(tmp_path / "feed").ingest(batch, instance_type="event")
        assert report.records == 100
        assert report.blocks_added == 1
        assert report.watermark == max(e.temporal.end for e in batch)
        assert report.previous_watermark is None
        assert report.advanced
        meta = DatasetMetadata.load(tmp_path / "feed")
        assert meta.watermark == report.watermark

    def test_first_ingest_requires_instance_type(self, tmp_path):
        with pytest.raises(ValueError, match="instance_type"):
            StDataset(tmp_path / "feed").ingest(make_events(5))

    def test_batches_continue_numbering_and_bump_generation(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for i, batch in enumerate(event_batches(3)):
            kwargs = {"instance_type": "event"} if i == 0 else {}
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2), **kwargs)
        meta = ds.metadata()
        assert meta.generation == 2  # creation is gen 0, two appends
        names = [p.filename for p in meta.partitions]
        assert names == sorted(names)
        assert len(set(names)) == len(names)

    def test_watermark_advances_per_batch(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        highs = []
        for batch in event_batches(3):
            report = ds.ingest(batch, instance_type="event")
            highs.append(max(e.temporal.end for e in batch))
            assert report.watermark == max(highs)

    def test_late_batch_counted_not_dropped_and_mark_holds(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        ds.ingest(day1, instance_type="event")  # day 1 first
        mark = ds.metadata().watermark
        report = ds.ingest(day0)  # day 0 arrives late
        assert report.late_records == len(day0)
        assert report.watermark == mark  # monotone: no regression
        assert not report.advanced
        assert report.watermark_lag > 0
        assert ds.metadata().total_records == len(day0) + len(day1)

    def test_empty_batch_is_a_noop(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        ds.ingest(make_events(10), instance_type="event")
        before = ds.metadata()
        report = ds.ingest([])
        assert report.records == 0 and report.blocks_added == 0
        after = ds.metadata()
        assert after.generation == before.generation
        assert after.watermark == before.watermark

    def test_ingest_partitioner_fits_batch_alone(self, tmp_path):
        """T-STR maintenance: each batch gets its own cells; resident
        blocks are untouched (byte-identical before and after)."""
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], partitioner=TSTRPartitioner(2, 2),
                  instance_type="event")
        first_blocks = {
            p.filename: (tmp_path / "feed" / p.filename).read_bytes()
            for p in ds.metadata().partitions
        }
        ds.ingest(event_batches(2)[1], partitioner=TSTRPartitioner(2, 2))
        for name, blob in first_blocks.items():
            assert (tmp_path / "feed" / name).read_bytes() == blob

    def test_counters_reach_the_tracer(self, tmp_path):
        tracer = Tracer()
        with installed(tracer):
            ds = StDataset(tmp_path / "feed")
            day0, day1 = event_batches(2)
            ds.ingest(day1, instance_type="event")
            ds.ingest(day0)  # late
        assert tracer.counters["ingest_batches"] == 2
        assert tracer.counters["ingest_records"] == len(day0) + len(day1)
        assert tracer.counters["ingest_late_records"] == len(day0)
        assert tracer.counters["watermark_lag"] > 0


# ---------------------------------------------------------------------------
# Compaction


class TestCompaction:
    def test_threshold_triggers_rebalance(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(4, per_batch=100):
            report = ds.ingest(
                batch,
                partitioner=TSTRPartitioner(1, 2),
                rebalance_threshold=6,
                instance_type="event",
            )
        assert report.compacted
        assert report.blocks_compacted > 6
        meta = ds.metadata()
        assert len(meta.partitions) <= 6
        assert meta.total_records == 400

    def test_compaction_preserves_watermark_and_bumps_generation(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(3, per_batch=80):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        before = ds.metadata()
        replaced = ds.compact(TSTRPartitioner(2, 1))
        assert replaced == len(before.partitions)
        after = ds.metadata()
        assert after.watermark == before.watermark
        assert after.generation == before.generation + 1
        assert after.total_records == before.total_records

    def test_compaction_removes_orphan_blocks(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(4, per_batch=60):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        ds.compact(TSTRPartitioner(1, 1))
        named = {p.filename for p in ds.metadata().partitions}
        on_disk = {p.name for p in (tmp_path / "feed").glob("part-*")}
        assert on_disk == named

    def test_compaction_counter(self, tmp_path):
        tracer = Tracer()
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(2, per_batch=50):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        with installed(tracer):
            replaced = ds.compact()
        assert tracer.counters["blocks_compacted"] == replaced


# ---------------------------------------------------------------------------
# Offset reads


class TestOffsetRead:
    def test_offset_skips_leading_blocks(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        batches = event_batches(3, per_batch=40)
        for batch in batches:
            ds.ingest(batch, instance_type="event")
        rdd, stats = ds.read(ctx, offset=1)
        assert stats.partitions_total == 2
        assert rdd.count() == len(batches[1]) + len(batches[2])

    def test_offset_composes_with_pruning(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(3, per_batch=40):
            ds.ingest(batch, instance_type="event")
        day1 = Duration(1 * DAY, 2 * DAY)
        _, stats = ds.read(ctx, temporal=day1, offset=2)
        assert stats.partitions_selected == 0  # block 2 is day 2


# ---------------------------------------------------------------------------
# The incremental parity gate


class TestIncrementalParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_flow_parity_k_batches(self, tmp_path, backend):
        ctx = make_ctx(backend)
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        state = None
        for batch in event_batches(4):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
            run = pipe.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()
        assert state.watermark == ds.metadata().watermark

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_speed_parity_is_bit_identical(self, tmp_path, backend):
        """Float sums expose merge-order differences in the last bit."""
        ctx = make_ctx(backend)
        trajs = make_trajectories(120, seed=5)
        t_lo = min(t.temporal_extent.start for t in trajs)
        t_hi = max(t.temporal_extent.end for t in trajs)
        span = Duration(t_lo, t_hi)

        def pipe():
            return Pipeline(
                selector=Selector(AREA, span),
                converter=Traj2TsConverter(
                    TimeSeriesStructure.of_interval(span, (t_hi - t_lo) / 8)
                ),
                extractor=TsSpeedExtractor(),
            )

        ds = StDataset(tmp_path / "feed")
        runner = pipe()
        state = None
        for i in range(4):
            ds.ingest(trajs[i * 30:(i + 1) * 30],
                      partitioner=TSTRPartitioner(2, 1),
                      instance_type="trajectory")
            run = runner.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_vals = pipe().run(make_ctx(), tmp_path / "feed").cell_values()
        inc_vals = run.result.cell_values()
        assert all(
            (a is None and b is None) or a == b  # bit-equal, not approx
            for a, b in zip(inc_vals, batch_vals)
        )
        assert len(inc_vals) == len(batch_vals)

    def test_parity_survives_worker_loss_mid_batch(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker_kill", probability=0.3)], seed=11
        )
        ctx = make_ctx("process", fault_plan=plan)
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        state = None
        for batch in event_batches(4):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
            run = pipe.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()

    def test_columnar_and_scalar_agree(self, tmp_path):
        """Incremental (columnar partials) vs a batch run through the
        per-cell extraction oracle."""
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        state = None
        for batch in event_batches(3):
            ds.ingest(batch, instance_type="event")
            run = flow_pipeline(days=3).run_incremental(
                ctx, tmp_path / "feed", state=state
            )
            state = run.state
        pipe = flow_pipeline(days=3)
        converted = pipe.converter.convert(pipe.selector.select(ctx, tmp_path / "feed"))
        expected = oracles.extract(pipe.extractor, converted).cell_values()
        assert run.result.cell_values() == expected
        assert sum(expected) > 0

    def test_pruned_batch_contributes_nothing_but_advances(self, tmp_path):
        """A batch entirely outside the query range adds no partials —
        exactly like the batch run, where its blocks are pruned."""
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        pipe = flow_pipeline(days=1)  # query window: day 0 only
        ds.ingest(day0, instance_type="event")
        run = pipe.run_incremental(ctx, tmp_path / "feed")
        ds.ingest(day1)  # entirely outside the window
        run = pipe.run_incremental(ctx, tmp_path / "feed", state=run.state)
        assert run.blocks_new == 1
        assert run.blocks_selected == 0
        batch_result = flow_pipeline(days=1).run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()

    def test_no_new_blocks_returns_same_result(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        pipe = flow_pipeline(days=1)
        first = pipe.run_incremental(ctx, tmp_path / "feed")
        second = pipe.run_incremental(ctx, tmp_path / "feed", state=first.state)
        assert second.blocks_new == 0
        assert second.result.cell_values() == first.result.cell_values()

    def test_stale_state_detected_after_compaction(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        ds.ingest(event_batches(1)[0], partitioner=TSTRPartitioner(1, 2),
                  instance_type="event")
        run = pipe.run_incremental(ctx, tmp_path / "feed")
        ds.compact(TSTRPartitioner(1, 1))
        with pytest.raises(StaleStreamStateError):
            pipe.run_incremental(ctx, tmp_path / "feed", state=run.state)
        # A fresh state recovers and matches batch.
        fresh = pipe.run_incremental(ctx, tmp_path / "feed")
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert fresh.result.cell_values() == batch_result.cell_values()

    def test_incremental_counters(self, tmp_path):
        tracer = Tracer()
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        with installed(tracer):
            flow_pipeline().run_incremental(ctx, tmp_path / "feed")
        assert tracer.counters["incremental_runs"] == 1
        assert tracer.counters["incremental_blocks_new"] == 1


# ---------------------------------------------------------------------------
# Since-mode (stateless watermark queries)


class TestSinceMode:
    def test_since_selects_only_new_slice(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        ds.ingest(day0, instance_type="event")
        mark = ds.metadata().watermark
        ds.ingest(day1)
        pipe = flow_pipeline(days=2)
        run = pipe.run_incremental(ctx, tmp_path / "feed", since=mark)
        assert sum(run.result.cell_values()) == len(day1)

    def test_since_excludes_exact_boundary(self, tmp_path):
        """A record whose end time equals the watermark was already
        processed; strict-inequality semantics exclude it."""
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest([Event.of_point(5.0, 5.0, 1_000.0, data="old")],
                  instance_type="event")
        mark = ds.metadata().watermark
        assert mark == 1_000.0
        ds.ingest([
            Event.of_point(5.0, 5.0, 1_000.0, data="boundary-dup"),
            Event.of_point(5.0, 5.0, 2_000.0, data="new"),
        ])
        span = Duration(0.0, DAY)
        pipe = Pipeline(
            selector=Selector(AREA, span),
            converter=Event2TsConverter(
                TimeSeriesStructure.of_interval(span, DAY)
            ),
            extractor=TsFlowExtractor(),
        )
        run = pipe.run_incremental(ctx, tmp_path / "feed", since=mark)
        assert sum(run.result.cell_values()) == 1  # only the 2000.0 event

    def test_since_past_everything_is_empty(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        run = flow_pipeline().run_incremental(
            ctx, tmp_path / "feed", since=ds.metadata().watermark
        )
        assert run.result is None
        assert run.blocks_selected == 0

    def test_state_and_since_are_mutually_exclusive(self, tmp_path):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            flow_pipeline().run_incremental(
                ctx, tmp_path / "feed", state=StreamState(), since=0.0
            )


# ---------------------------------------------------------------------------
# Windowed extractors


class TestWindows:
    def test_tumbling_flow_counts_each_record_once(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        batches = event_batches(3, per_batch=100)
        for batch in batches:
            ds.ingest(batch, instance_type="event")
        win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        sel = Selector(AREA, Duration(0.0, 3 * DAY))
        win.update(sel.select(ctx, tmp_path / "feed"))
        assert sum(v for _, v in win.features()) == 300
        assert win.records_seen == 300

    def test_sliding_windows_overlap(self, ctx):
        events = [Event.of_point(1.0, 1.0, float(t), data=t) for t in (10, 20)]
        win = WindowedFlowExtractor(origin=0.0, size=20.0, step=10.0)
        win.update(ctx.parallelize(events, 1))
        counts = {w.start: v for w, v in win.features()}
        # t=20 is excluded from [0, 20) — half-open windows.
        assert counts == {0.0: 1, 10.0: 2, 20.0: 1}

    def test_incremental_updates_match_one_shot(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        batches = event_batches(3)
        sel = Selector(AREA, Duration(0.0, 3 * DAY))
        inc = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        position = 0
        for batch in batches:
            ds.ingest(batch, instance_type="event")
            inc.update(sel.select(ctx, tmp_path / "feed", offset=position))
            position = len(ds.metadata().partitions)
        ref = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        ref.update(sel.select(ctx, tmp_path / "feed"))
        assert inc.features() == ref.features()

    def test_speed_windows_span_assignment(self, ctx):
        trajs = make_trajectories(30, seed=9)
        t_lo = min(t.temporal_extent.start for t in trajs)
        win = WindowedSpeedExtractor(origin=t_lo, size=1_800.0, step=900.0)
        win.update(ctx.parallelize(trajs, 3))
        feats = win.features()
        assert feats
        assert all(isinstance(v, float) for _, v in feats)

    def test_checkpoint_restore_round_trip(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        win = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        win.update(ctx.parallelize(event_batches(1)[0], 4))
        win.checkpoint(ckpt)
        resumed = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        assert resumed.restore(ckpt)
        assert resumed.features() == win.features()
        assert resumed.records_seen == win.records_seen

    def test_restore_rejects_grid_mismatch(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        WindowedFlowExtractor(origin=0.0, size=3_600.0).checkpoint(ckpt)
        other = WindowedFlowExtractor(origin=0.0, size=7_200.0)
        with pytest.raises(ValueError, match="grid"):
            other.restore(ckpt)

    def test_restore_absent_returns_false(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        assert not WindowedFlowExtractor(0.0, 1.0).restore(ckpt)

    def test_window_state_survives_chaos_worker_loss(self, tmp_path):
        """Update under worker kills + checkpoint + restore: identical to
        a clean one-shot run."""
        plan = FaultPlan([FaultRule("worker_kill", probability=0.3)], seed=3)
        ctx = make_ctx("process", fault_plan=plan)
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        ds = StDataset(tmp_path / "feed")
        sel = Selector(AREA, Duration(0.0, 4 * DAY))
        win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        position = 0
        for i, batch in enumerate(event_batches(4)):
            ds.ingest(batch, instance_type="event")
            win.update(sel.select(ctx, tmp_path / "feed", offset=position))
            position = len(ds.metadata().partitions)
            win.checkpoint(ckpt)
            if i == 2:  # crash-and-restart between batches
                win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
                assert win.restore(ckpt)
        clean = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        clean.update(sel.select(make_ctx(), tmp_path / "feed"))
        assert win.features() == clean.features()

    def test_grid_index_arithmetic(self):
        win = WindowedFlowExtractor(origin=100.0, size=50.0, step=25.0)
        # center 130 → windows starting at 100 and 125 contain it
        assert list(win._indices(130.0, 130.0)) == [0, 1]
        # exact window-start boundary belongs to the starting window only
        assert list(win._indices(125.0, 125.0)) == [0, 1]
        # exact window-end boundary is excluded (half-open)
        assert 0 not in win._indices(150.0, 150.0)


# ---------------------------------------------------------------------------
# CLI: repro info table


class TestInfoTable:
    def test_info_prints_watermark_generation_and_formats(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(2, per_batch=30):
            ds.ingest(batch, instance_type="event")
        assert cli_main(["info", str(tmp_path / "feed")]) == 0
        out = capsys.readouterr().out
        meta = ds.metadata()
        assert "generation" in out and str(meta.generation) in out
        assert "watermark" in out and f"{meta.watermark:.3f}" in out
        lines = out.splitlines()
        header = next(l for l in lines if "file" in l and "records" in l)
        assert header.split() == ["part", "file", "records", "time", "range"]
        for i, p in enumerate(meta.partitions):
            row = next(l for l in lines if p.filename in l)
            assert row.split()[:3] == [str(i), p.filename, f"{p.count:,}"]

    def test_info_without_watermark(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        StDataset.write(tmp_path / "ds", [make_events(10)], "event")
        assert cli_main(["info", str(tmp_path / "ds")]) == 0
        assert "(none)" in capsys.readouterr().out
