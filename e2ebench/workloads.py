"""The workloads: two disk pipelines, streaming ingest and a serve mix.

Each workload class builds its inputs in :meth:`setup`, runs its
operations for a time budget in :meth:`run` (tracing off) or
:meth:`run_traced` (layer spans on), and checks every output against the
oracles in :mod:`oracles`.  An operation is one user-visible unit of
work: a pipeline over one range, one micro-batch ingested and folded into
the features, or one client query.  Every program call goes through the
public API; boundaries are forced only with ``rdd.glom().collect()`` and
``ctx.from_partitions``.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles
import yardstick
from spans import Spans

from repro import (
    EngineContext,
    Envelope,
    Duration,
    Pipeline,
    RasterStructure,
    Selector,
    StDataset,
    TimeSeriesStructure,
    TSTRPartitioner,
    save_dataset,
)
from repro.core.converters import Event2TsConverter, Traj2RasterConverter
from repro.core.extractors import RasterSpeedExtractor, TsFlowExtractor
from repro.serve import ServeClient, ServeError, wait_until_ready
from repro.stream import StaleStreamStateError

SLOT = inputs.HOUR


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def count_median(values) -> int:
    """An observed count: the lower median, so it stays an exact integer."""
    return int(statistics.median_low(values)) if values else 0


def p95(values) -> float:
    """95th percentile, interpolated between the closest samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=20, method="inclusive")[18])


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def file_versions(path: Path) -> dict[str, tuple[int, int, int]]:
    """``name -> (inode, mtime_ns, size)`` of every file in a dataset directory."""
    out = {}
    for f in path.iterdir():
        st = f.stat()
        out[f.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files that are new or rewritten between two snapshots."""
    return sum(v[2] for k, v in after.items() if before.get(k) != v)


def _span_range(r: inputs.Range) -> tuple[Envelope, Duration]:
    return Envelope(r.x0, r.y0, r.x1, r.y1), Duration(r.t0, r.t1)


@dataclass
class Outcome:
    """What one run measured: samples, counts and failures."""

    op_seconds: list[float] = field(default_factory=list)
    op_records: list[int] = field(default_factory=list)
    #: The reference task's time (see :mod:`yardstick`) measured right
    #: before each op, one entry per ``op_seconds`` entry.
    op_refs: list[float] = field(default_factory=list)
    #: What rates are taken over: the summed op time where ops run one at
    #: a time, the loop's wall time where clients overlap.
    wall_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    self_times: dict[str, float] = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


class Workload:
    """Shared life cycle; subclasses fill in setup, run and run_traced."""

    name = ""
    #: The op name its human report uses for op latency.
    op_label = "op"

    def __init__(self, seed: int, scale: float, work: Path, root: Path):
        self.seed = seed
        self.scale = scale
        self.work = work
        self.root = root
        self.ctx: EngineContext | None = None
        self.inputs_meta: dict = {}
        self.dataset_bytes = 0

    def context(self) -> EngineContext:
        if self.ctx is None:
            self.ctx = EngineContext()
        return self.ctx

    def measured_pid(self) -> int:
        """The process doing the work, whose peak RSS is reported."""
        return os.getpid()

    def backend(self) -> str:
        return self.context().backend_name

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release the previous setup's outputs before setting up again."""

    def warm(self) -> None:
        """Untimed first op, so lazy imports do not land in a timed op."""

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def run_traced(self, seconds: float, spans: Spans) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        if self.ctx is not None:
            self.ctx.stop()
            self.ctx = None


# -- events_flow and trajs_raster_speed -------------------------------------------


class DiskPipeline(Workload):
    """Selector + T-STR(2, 4) -> converter -> extractor, from a v2 dataset.

    Each op runs the pipeline over the next range of a seeded sequence,
    so a longer run covers more ranges rather than repeating them.
    """

    op_label = "pipeline"
    dataset_tstr = (8, 4)
    select_tstr = (2, 4)
    #: Ranges cover this share of the city and this many of its 30 days.
    range_area = 0.6
    range_days = 6
    max_ranges = 1_000
    records = 0
    instance_type = ""

    def __init__(self, seed, scale, work, root):
        super().__init__(seed, scale, work, root)
        self.directory: Path | None = None
        self.ranges: list[inputs.Range] = []
        self._selected: dict[int, int] = {}

    # Subclass hooks ---------------------------------------------------------------

    def generate(self) -> list:
        raise NotImplementedError

    def bbox_and_start(self):
        raise NotImplementedError

    def converter(self, env: Envelope, dur: Duration):
        raise NotImplementedError

    def extractor(self):
        raise NotImplementedError

    def count_selected(self, r: inputs.Range) -> int:
        """Brute-force number of records the range selects."""
        raise NotImplementedError

    def check_op(self, i: int, converter, values: list, out: Outcome) -> None:
        raise NotImplementedError

    def finish_checks(self, outputs: dict[int, list], out: Outcome) -> None:
        """Checks made once per run, after the timed ops."""

    # Life cycle -------------------------------------------------------------------

    def setup(self, directory: Path) -> None:
        instances = self.generate()
        save_dataset(
            directory,
            instances,
            self.instance_type,
            partitioner=TSTRPartitioner(*self.dataset_tstr),
            ctx=self.context(),
            block_format="v2",
        )
        self.directory = directory
        self.dataset_bytes = dir_bytes(directory)
        self.inputs_meta.update(records=len(instances), days=30)
        bbox, start = self.bbox_and_start()
        self.ranges = inputs.ranges(
            self.seed, self.max_ranges, bbox, start, days=30,
            area=self.range_area, window_days=self.range_days, stream=0,
        )
        self._selected = {}

    def discard(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def selected(self, i: int) -> int:
        if i not in self._selected:
            self._selected[i] = self.count_selected(self.ranges[i])
        return self._selected[i]

    def pipeline(self, r: inputs.Range) -> Pipeline:
        env, dur = _span_range(r)
        return Pipeline(
            Selector(env, dur, partitioner=TSTRPartitioner(*self.select_tstr)),
            self.converter(env, dur),
            self.extractor(),
        )

    def warm(self) -> None:
        self.pipeline(self.ranges[-1]).run(self.context(), self.directory)

    def _ops(self, indices, op, out: Outcome) -> dict[int, list]:
        """Run ``op`` over range indices; returns each range's output."""
        outputs: dict[int, list] = {}
        for i in indices:
            out.attempted += 1
            try:
                outputs[i] = op(i)
            except Exception:  # noqa: BLE001 - count it, keep measuring
                out.fail(f"range {i}: {traceback.format_exc(limit=3)}")
        out.wall_seconds = sum(out.op_seconds)
        return outputs

    def _until(self, seconds: float):
        """Range indices in sequence order until ``seconds`` have elapsed."""
        begin = time.perf_counter()
        for i in range(len(self.ranges)):
            if i and time.perf_counter() - begin >= seconds:
                return
            yield i

    def _timed_op(self, out: Outcome, engine: list | None = None):
        ctx = self.context()
        m = ctx.metrics

        def op(i: int) -> list:
            pipeline = self.pipeline(self.ranges[i])
            before = (m.task_count, m.stages, m.shuffle_records)
            ref = yardstick.measure()
            start = time.perf_counter()
            result = pipeline.run(ctx, self.directory)
            out.op_seconds.append(time.perf_counter() - start)
            out.op_refs.append(ref)
            if engine is not None:
                after = (m.task_count, m.stages, m.shuffle_records)
                engine.append(tuple(a - b for a, b in zip(after, before)))
            values = result.cell_values()
            out.op_records.append(self.selected(i))
            self.check_op(i, pipeline.converter, values, out)
            return values

        return op

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        outputs = self._ops(self._until(seconds), self._timed_op(out), out)
        self.finish_checks(outputs, out)
        return out

    def _traced_op(self, spans: Spans, out: Outcome):
        """The pipeline split at every layer boundary, one span per layer."""
        ctx = self.context()
        m = ctx.metrics

        def op(i: int) -> list:
            r = self.ranges[i]
            env, dur = _span_range(r)
            tag = f"range-{i}"
            with spans.span("pipeline", tag):
                with spans.span("stio.load", tag) as c:
                    rdd, stats = StDataset(self.directory).read(ctx, env, dur)
                    parts = rdd.glom().collect()
                    c.update(
                        partitions_scanned=stats.partitions_selected,
                        partitions_pruned=stats.partitions_total - stats.partitions_selected,
                        records_loaded=stats.records_loaded,
                        bytes_read=stats.bytes_read,
                    )
                with spans.span("selector.filter", tag) as c:
                    selected = Selector(env, dur).select(ctx, ctx.from_partitions(parts))
                    parts = selected.glom().collect()
                    c["rows_out"] = sum(map(len, parts))
                with spans.span("partitioners.repartition", tag) as c:
                    shuffled = m.shuffle_records
                    partitioner = TSTRPartitioner(*self.select_tstr)
                    parts = partitioner.partition(ctx.from_partitions(parts)).glom().collect()
                    sizes = [len(p) for p in parts]
                    mean = statistics.fmean(sizes) if sizes else 0.0
                    c.update(
                        shuffle_records=m.shuffle_records - shuffled,
                        balance_cv=statistics.pstdev(sizes) / mean if mean else 0.0,
                    )
                with spans.span("converters.convert", tag) as c:
                    broadcast = m.broadcast_records
                    converter = self.converter(env, dur)
                    parts = converter.convert(ctx.from_partitions(parts)).glom().collect()
                    c["broadcast_records"] = m.broadcast_records - broadcast
                with spans.span("extractors.extract", tag) as c:
                    result = self.extractor().extract(ctx.from_partitions(parts))
                    c["cells_out"] = result.n_cells
            # The whole selection as a user runs it, lineage intact, so
            # any repeated evaluation of load and filter is included.
            with spans.span("selector.select", tag) as c:
                tasks = m.task_count
                sel = Selector(env, dur, partitioner=TSTRPartitioner(*self.select_tstr))
                sel.select(ctx, self.directory).glom().collect()
                c["tasks"] = m.task_count - tasks
            values = result.cell_values()
            self.check_op(i, converter, values, out)
            return values

        return op

    def run_traced(self, seconds: float, spans: Spans) -> Outcome:
        # A third of the time untraced, then the same ranges traced: the
        # traced op also runs the whole selection, so it costs about twice.
        untraced, out = Outcome(), Outcome()
        engine: list[tuple] = []
        done = self._ops(self._until(seconds / 3), self._timed_op(untraced, engine), untraced)
        outputs = self._ops(sorted(done), self._traced_op(spans, out), out)
        for i, values in outputs.items():
            out.attempted += 1
            if done.get(i) != values:
                out.fail(f"range {i}: traced output differs from the untraced one")
        self.finish_checks(outputs, out)
        out.attempted += untraced.attempted
        out.failed += untraced.failed
        out.notes += untraced.notes
        loaded = spans.counts("stio.load", "records_loaded")
        rows = spans.counts("selector.filter", "rows_out")
        out.layer.update(
            {
                "stio.load_s": median(spans.durations("stio.load")),
                "stio.partitions_scanned": count_median(spans.counts("stio.load", "partitions_scanned")),
                "stio.partitions_pruned": count_median(spans.counts("stio.load", "partitions_pruned")),
                "stio.records_loaded": count_median(loaded),
                "stio.bytes_read": count_median(spans.counts("stio.load", "bytes_read")),
                "stio.bytes_written_per_record": self.dataset_bytes / self.inputs_meta["records"],
                "selector.select_s": median(spans.durations("selector.select")),
                "selector.filter_s": median(spans.durations("selector.filter")),
                "selector.rows_out": count_median(rows),
                "selector.survival_ratio": median([a / b for a, b in zip(rows, loaded) if b]),
                "selector.tasks": count_median(spans.counts("selector.select", "tasks")),
                "partitioners.repartition_s": median(spans.durations("partitioners.repartition")),
                "partitioners.shuffle_records": count_median(
                    spans.counts("partitioners.repartition", "shuffle_records")
                ),
                "partitioners.balance_cv": median(spans.counts("partitioners.repartition", "balance_cv")),
                "converters.convert_s": median(spans.durations("converters.convert")),
                "converters.broadcast_records": count_median(
                    spans.counts("converters.convert", "broadcast_records")
                ),
                "extractors.extract_s": median(spans.durations("extractors.extract")),
                "extractors.cells_out": count_median(spans.counts("extractors.extract", "cells_out")),
                "engine.tasks": count_median([e[0] for e in engine]),
                "engine.stages": count_median([e[1] for e in engine]),
                "engine.shuffle_records": count_median([e[2] for e in engine]),
                "trace.delta_frac": median(spans.durations("pipeline")) / median(untraced.op_seconds) - 1.0,
            }
        )
        out.self_times = spans.self_times("pipeline")
        selection = sum(
            out.self_times.get(name, 0.0)
            for name in ("stio.load", "selector.filter", "partitioners.repartition")
        )
        out.summary.append(
            "selection share of the traced pipeline (stio + selector + partitioners): "
            f"{selection / median(spans.durations('pipeline')):.1%}"
        )
        out.self_times["selector.select (a separate op)"] = out.layer["selector.select_s"]
        return out


class EventsFlow(DiskPipeline):
    """Hourly flow over NYC-like events: selection-heavy."""

    name = "events_flow"
    instance_type = "event"
    records = 60_000

    def generate(self) -> list:
        self.cols = inputs.event_columns(self.seed, max(1, int(self.records * self.scale)), days=30)
        self.inputs_meta["kind"] = "NYC-like events"
        return inputs.to_events(self.cols)

    def bbox_and_start(self):
        return inputs.NYC_BBOX, inputs.EVENT_START

    def converter(self, env, dur):
        return Event2TsConverter(TimeSeriesStructure.of_interval(dur, SLOT))

    def extractor(self):
        return TsFlowExtractor()

    def count_selected(self, r):
        return oracles.event_ids(self.cols, r).size

    def check_op(self, i, converter, values, out):
        if values != oracles.flow(self.cols, None, self.ranges[i], SLOT):
            out.fail(f"range {i}: hourly flow differs from the brute-force counts")


class TrajsRasterSpeed(DiskPipeline):
    """Raster speed over Porto-like trajectories: conversion-heavy.

    Each op's selected-trajectory count (what the converter allocated)
    is checked by brute force for any seed; the features themselves are
    checked by a digest recorded for the default seed and scale.
    """

    name = "trajs_raster_speed"
    instance_type = "trajectory"
    records = 3_000
    #: Ranges whose outputs the recorded digest covers.
    digest_ranges = 4

    def generate(self) -> list:
        instances, self.cols = inputs.trajectories(
            self.seed, max(1, int(self.records * self.scale)), days=30
        )
        self.inputs_meta.update(kind="Porto-like trajectories", points=len(self.cols.t))
        return instances

    def bbox_and_start(self):
        return inputs.PORTO_BBOX, inputs.TRAJ_START

    def converter(self, env, dur):
        return Traj2RasterConverter(RasterStructure.regular(env, dur, 8, 8, 12))

    def extractor(self):
        return RasterSpeedExtractor()

    def count_selected(self, r):
        return oracles.trajs_selected(self.cols, r)

    def check_op(self, i, converter, values, out):
        got = converter.stats.instances
        if got != self.selected(i):
            out.fail(f"range {i}: converted {got} trajectories, brute force selects {self.selected(i)}")

    def finish_checks(self, outputs, out):
        for i in range(self.digest_ranges):
            if i not in outputs:
                outputs[i] = self.pipeline(self.ranges[i]).run(self.context(), self.directory).cell_values()
        self.digest = oracles.digest([outputs[i] for i in range(self.digest_ranges)])
        wanted = oracles.recorded_digest(self.name, self.seed, self.scale)
        if wanted is not None:
            out.attempted += 1
            if self.digest != wanted:
                out.fail(f"raster digest {self.digest} differs from the recorded {wanted}")


# -- stream_ingest ----------------------------------------------------------------


class StreamIngest(Workload):
    """Daily micro-batches through ``ingest`` + ``run_incremental``."""

    name = "stream_ingest"
    op_label = "batch"
    n_batches = 12
    per_batch = 2_000
    late_share = 0.05
    ingest_tstr = (1, 4)
    #: Each batch adds about 4 blocks; compaction to 4 blocks fires when
    #: the count passes 20, so twice in 12 batches.
    rebalance_threshold = 20

    def setup(self, directory: Path) -> None:
        per_batch = max(4, int(self.per_batch * self.scale))
        self.cols = inputs.stream_columns(self.seed, self.n_batches, per_batch)
        self.batch_rows = inputs.stream_batches(self.seed, self.n_batches, per_batch, self.late_share)
        self.batches = [inputs.to_events(self.cols, rows) for rows in self.batch_rows]
        (self.query,) = inputs.ranges(
            self.seed, 1, inputs.NYC_BBOX, inputs.EVENT_START,
            days=self.n_batches, area=0.6, window_days=self.n_batches, stream=1,
        )
        self.work_dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.records = sum(len(b) for b in self.batches)
        self.inputs_meta.update(
            kind="NYC-like event micro-batches",
            batches=self.n_batches,
            records=self.records,
            late_share=self.late_share,
        )
        self.passes = 0

    def pipeline(self) -> Pipeline:
        env, dur = _span_range(self.query)
        return Pipeline(Selector(env, dur), Event2TsConverter(TimeSeriesStructure.of_interval(dur, SLOT)), TsFlowExtractor())

    def expected(self, k: int) -> list[int]:
        rows = np.concatenate(self.batch_rows[: k + 1])
        return oracles.flow(self.cols, rows, self.query, SLOT)

    def _stream(self, out: Outcome, spans: Spans | None) -> None:
        """One pass: every batch into a fresh dataset, then the parity check."""
        ctx = self.context()
        m = ctx.metrics
        self.passes += 1
        directory = self.work_dir / f"pass-{self.passes}"
        ds = StDataset(directory)
        pipe = self.pipeline()
        state = None
        n_slots = int(round((self.query.t1 - self.query.t0) / SLOT))
        try:
            for k, batch in enumerate(self.batches):
                out.attempted += 1
                tag = f"batch-{k}"
                before = file_versions(directory) if spans is not None and directory.exists() else {}
                ref = yardstick.measure()
                start = time.perf_counter()
                with _span(spans, "batch", tag):
                    with _span(spans, "stream.ingest", tag) as c:
                        report = ds.ingest(
                            batch,
                            partitioner=TSTRPartitioner(*self.ingest_tstr),
                            rebalance_threshold=self.rebalance_threshold,
                            instance_type="event",
                            block_format="v2",
                        )
                    if spans is not None:
                        c.update(
                            records=report.records,
                            compacted=report.compacted,
                            late_records=report.late_records,
                            bytes_written=bytes_written(before, file_versions(directory)),
                        )
                    engine = (m.task_count, m.stages, m.shuffle_records)
                    try:
                        with _span(spans, "stream.incremental", tag) as c:
                            run = pipe.run_incremental(ctx, directory, state=state)
                    except StaleStreamStateError:
                        # Compaction rewrote the consumed blocks: start over.
                        with _span(spans, "stream.rebootstrap", tag) as c:
                            run = pipe.run_incremental(ctx, directory, state=None)
                    c.update(
                        tasks=m.task_count - engine[0],
                        stages=m.stages - engine[1],
                        shuffle_records=m.shuffle_records - engine[2],
                        records_loaded=run.records_loaded,
                        blocks_selected=run.blocks_selected,
                        blocks_new=run.blocks_new,
                    )
                out.op_seconds.append(time.perf_counter() - start)
                out.op_refs.append(ref)
                out.op_records.append(len(batch))
                state = run.state
                values = run.result.cell_values() if run.result is not None else [0] * n_slots
                if values != self.expected(k):
                    out.fail(f"pass {self.passes} batch {k}: incremental flow differs from brute force")
            # From-scratch batch run over the final dataset, untimed.
            out.attempted += 1
            if pipe.run(ctx, directory).cell_values() != values:
                out.fail(f"pass {self.passes}: run_incremental differs from a from-scratch Pipeline.run")
            self.dataset_bytes = dir_bytes(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _passes(self, seconds: float, spans: Spans | None, out: Outcome) -> None:
        begin = time.perf_counter()
        while True:
            self._stream(out, spans)
            if time.perf_counter() - begin >= seconds:
                break
        out.wall_seconds = sum(out.op_seconds)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        self._passes(seconds, None, out)
        return out

    def run_traced(self, seconds: float, spans: Spans) -> Outcome:
        untraced = Outcome()
        begin = time.perf_counter()
        self._passes(0.0, None, untraced)
        out = Outcome()
        self._passes(seconds - (time.perf_counter() - begin), spans, out)
        out.attempted += untraced.attempted
        out.failed += untraced.failed
        out.notes += untraced.notes
        ingests = [r["counts"] | {"s": r["end"] - r["start"]} for r in spans.records if r["name"] == "stream.ingest"]
        updates = [r["counts"] for r in spans.records if r["name"] in ("stream.incremental", "stream.rebootstrap") and r["counts"]]
        compacting = [i["s"] for i in ingests if i["compacted"]]
        ingested = sum(i["records"] for i in ingests)
        passes = max(1, len(ingests) // self.n_batches)
        out.layer.update(
            {
                "stio.partitions_scanned": count_median([u["blocks_selected"] for u in updates]),
                "stio.partitions_pruned": count_median([u["blocks_new"] - u["blocks_selected"] for u in updates]),
                "stio.records_loaded": count_median([u["records_loaded"] for u in updates]),
                "stio.bytes_written_per_record": sum(i["bytes_written"] for i in ingests) / ingested,
                "engine.tasks": count_median([u["tasks"] for u in updates]),
                "engine.stages": count_median([u["stages"] for u in updates]),
                "engine.shuffle_records": count_median([u["shuffle_records"] for u in updates]),
                "stream.ingest_s": median([i["s"] for i in ingests if not i["compacted"]]),
                "stream.compact_s": median(compacting),
                "stream.incremental_s": median(
                    [r["end"] - r["start"] for r in spans.records if r["name"] == "stream.incremental" and r["counts"]]
                ),
                "stream.rebootstrap_s": median(spans.durations("stream.rebootstrap")),
                "stream.compactions": len(compacting) // passes,
                "stream.late_records": sum(i["late_records"] for i in ingests) // passes,
                "trace.delta_frac": median(spans.durations("batch")) / median(untraced.op_seconds) - 1.0,
            }
        )
        out.self_times = spans.self_times("batch")
        return out


def _span(spans: Spans | None, name: str, tag: str):
    """A layer span when tracing, else a no-op yielding a scratch count dict."""
    return spans.span(name, tag) if spans is not None else nullcontext({})


# -- serve_mixed ------------------------------------------------------------------


class ServeMixed(Workload):
    """A ``repro serve`` daemon under a closed loop of two clients."""

    name = "serve_mixed"
    op_label = "query"
    clients = 2
    #: Hot ranges repeat, so after its first visit each is a result-cache
    #: hit.  32 rather than 8 keeps the mean answer size of the hot half
    #: from swinging with the seed.
    hot_pool = 32
    query_side = 0.2
    query_hours = 24
    fresh_pool = 20_000
    #: The loop pauses this often, with no query in flight, to time the
    #: reference task while the daemon is idle.
    window_s = 0.5

    def __init__(self, seed, scale, work, root):
        super().__init__(seed, scale, work, root)
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.directory: Path | None = None
        self.daemon_backend = "unknown"

    def measured_pid(self) -> int:
        return self.proc.pid

    def backend(self) -> str:
        return self.daemon_backend

    def setup(self, directory: Path) -> None:
        n = max(1, int(50_000 * self.scale))
        self.cols = inputs.event_columns(self.seed, n, days=30)
        save_dataset(
            directory,
            inputs.to_events(self.cols),
            "event",
            partitioner=TSTRPartitioner(8, 4),
            ctx=self.context(),
            block_format="v2",
        )
        self.directory = directory
        self.dataset_bytes = dir_bytes(directory)
        self.inputs_meta.update(kind="NYC-like events", records=n, days=30)
        self._start_daemon(directory)
        # Warm: one hour of the whole city on each day makes every block
        # resident and builds its selection index.
        with ServeClient("127.0.0.1", self.port) as client:
            for d in range(30):
                t0 = inputs.EVENT_START + d * inputs.DAY
                resp = client.query(bbox=list(inputs.NYC_BBOX), time_range=[t0, t0 + inputs.HOUR])
                if resp.get("status") != "ok":
                    raise RuntimeError(f"warm-up query failed: {resp}")
            self.daemon_backend = client.stats().get("backend", "unknown")

    def _start_daemon(self, directory: Path) -> None:
        # The daemon inherits this process's CPU pinning (see run.py), so
        # client and daemon share one CPU.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        log = open(self.work / f"daemon-{directory.name}.log", "wb")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", str(directory),
                    "--port", "0", "--workers", "2",
                    "--default-tenant", "1000000:1000000:64",
                    # A small result cache fills early in a run, so the
                    # daemon's peak RSS does not grow with its throughput.
                    "--cache-bytes", str(4 << 20),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                cwd=self.root,
                env=env,
            )
        finally:
            log.close()
        line = _readline(self.proc, timeout=60.0)
        if " on " not in line:
            log_tail = Path(log.name).read_text(errors="replace")[-2000:]
            raise RuntimeError(f"serve daemon did not start: {line!r}\n{log_tail}")
        self.port = int(line.rsplit(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        wait_until_ready("127.0.0.1", self.port, timeout=30.0)

    def _stop_daemon(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                try:
                    ServeClient("127.0.0.1", self.port, timeout=5.0).shutdown()
                except (ServeError, OSError):
                    pass  # Fall through to signals.
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()

    def discard(self) -> None:
        self._stop_daemon()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def close(self) -> None:
        self._stop_daemon()
        super().close()

    def _loop(self, seconds: float, stream: int, spans: Spans | None, out: Outcome) -> list[dict]:
        """Closed loop: each client sends its next query when the last returns.

        The loop runs in windows of ``window_s``; before each, with no
        query in flight, it times the reference task.
        """
        hot = inputs.query_ranges(
            self.seed, self.hot_pool, inputs.NYC_BBOX, inputs.EVENT_START, 30,
            self.query_side, self.query_hours, stream=2 * stream,
        )
        fresh = inputs.query_ranges(
            self.seed, self.fresh_pool, inputs.NYC_BBOX, inputs.EVENT_START, 30,
            self.query_side, self.query_hours, stream=2 * stream + 1,
        )
        rng = np.random.default_rng([self.seed, 7, stream])
        picks = rng.integers(0, self.hot_pool, self.fresh_pool)
        is_hot = rng.uniform(0.0, 1.0, self.fresh_pool) < 0.5
        sequence = iter(range(self.fresh_pool))
        done: list[dict] = []
        # One thread drives both connections through a selector: client
        # threads would contend for this process's interpreter lock and
        # add that wait to the latency they measure.
        sel = selectors.DefaultSelector()
        conns = [socket.create_connection(("127.0.0.1", self.port), timeout=60.0) for _ in range(self.clients)]
        window_end = 0.0
        exhausted = False

        def send(c: int, conn: socket.socket) -> None:
            nonlocal exhausted
            i = None
            if time.perf_counter() < window_end:
                i = next(sequence, None)
                exhausted = i is None
            if i is None:
                sel.unregister(conn)
                return
            r = hot[picks[i]] if is_hot[i] else fresh[i]
            line = json.dumps({"op": "query", "id": int(i), "tenant": "default",
                               "bbox": r.bbox(), "time": [r.t0, r.t1]})
            sel.modify(conn, selectors.EVENT_READ, (c, i, r, bytearray(), time.perf_counter()))
            conn.sendall(line.encode() + b"\n")

        deadline = time.perf_counter() + seconds
        try:
            while not exhausted and time.perf_counter() < deadline:
                ref = yardstick.measure()
                begin = time.perf_counter()
                window_end = min(begin + self.window_s, deadline)
                for c, conn in enumerate(conns):
                    sel.register(conn, selectors.EVENT_READ, None)
                    send(c, conn)
                while sel.get_map():
                    for key, _ in sel.select(timeout=60.0) or [(None, None)]:
                        if key is None:
                            raise TimeoutError("no serve response within 60 s")
                        c, i, r, buf, start = key.data
                        chunk = key.fileobj.recv(1 << 20)
                        if not chunk:
                            raise ConnectionError("serve daemon closed the connection")
                        buf += chunk
                        if not buf.endswith(b"\n"):
                            continue
                        resp = json.loads(buf)
                        end = time.perf_counter()
                        done.append(
                            {
                                "range": r,
                                "hot": bool(is_hot[i]),
                                "latency": end - start,
                                "ref": ref,
                                "status": resp.get("status"),
                                "count": resp.get("count", 0),
                                "queue_ms": resp.get("queue_ms", 0.0),
                                "exec_ms": resp.get("exec_ms", 0.0),
                                "cached": resp.get("cached", False),
                                "ids": oracles.answer_ids(resp.get("records", [])),
                            }
                        )
                        if spans is not None:
                            rec = done[-1]
                            spans.add(
                                "serve.query", f"query-{i}", start, end,
                                client=c, hot=rec["hot"], cached=rec["cached"],
                                records=rec["count"], queue_ms=rec["queue_ms"],
                                exec_ms=rec["exec_ms"],
                            )
                        send(c, key.fileobj)
                out.wall_seconds += time.perf_counter() - begin
        except (OSError, ValueError):
            out.attempted += 1
            out.fail(f"client error: {traceback.format_exc(limit=3)}")
        finally:
            sel.close()
            for conn in conns:
                conn.close()
        truth: dict[inputs.Range, np.ndarray] = {}
        for rec in done:
            out.attempted += 1
            out.op_seconds.append(rec["latency"])
            out.op_refs.append(rec["ref"])
            out.op_records.append(rec["count"])
            if rec["status"] != "ok":
                out.fail(f"query answered {rec['status']}")
                continue
            r = rec["range"]
            if r not in truth:
                truth[r] = oracles.event_ids(self.cols, r)
            if not np.array_equal(rec["ids"], truth[r]):
                out.fail("query answer's event ids differ from the brute-force scan")
        return done

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        self._loop(seconds, 0, None, out)
        return out

    def run_traced(self, seconds: float, spans: Spans) -> Outcome:
        untraced = Outcome()
        self._loop(seconds / 2, 0, None, untraced)
        with ServeClient("127.0.0.1", self.port) as client:
            before = client.stats()
            out = Outcome()
            done = self._loop(seconds / 2, 1, spans, out)
            after = client.stats()
        out.attempted += untraced.attempted
        out.failed += untraced.failed
        out.notes += untraced.notes

        def delta(section: str, key: str) -> float:
            return after[section].get(key, 0) - before[section].get(key, 0)

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        ok = [d for d in done if d["status"] == "ok"]
        misses = delta("counters", "serve_cache_misses")
        out.layer.update(
            {
                "stio.bytes_written_per_record": self.dataset_bytes / self.inputs_meta["records"],
                "selector.rows_out": count_median([d["count"] for d in ok]),
                "serve.queue_ms": median([d["queue_ms"] for d in ok]),
                "serve.exec_hit_ms": median([d["exec_ms"] for d in ok if d["cached"]]),
                "serve.exec_miss_ms": median([d["exec_ms"] for d in ok if not d["cached"]]),
                "serve.transport_ms": median(
                    [d["latency"] * 1e3 - d["queue_ms"] - d["exec_ms"] for d in ok]
                ),
                "serve.result_cache_hit_ratio": ratio(
                    delta("result_cache", "hits"), delta("result_cache", "misses")
                ),
                "serve.index_cache_hit_ratio": ratio(
                    delta("index_cache", "hits"), delta("index_cache", "misses")
                ),
                "serve.partitions_scanned_per_miss": (
                    delta("counters", "serve_partitions_scanned") / misses if misses else 0.0
                ),
                "trace.delta_frac": median(spans.durations("serve.query"))
                / median(untraced.op_seconds) - 1.0,
            }
        )
        out.self_times = {
            "serve.query": median(spans.durations("serve.query")),
            "serve.queue (from the response)": out.layer["serve.queue_ms"] / 1e3,
            "serve.exec (from the response)": median([d["exec_ms"] for d in ok]) / 1e3,
            "serve.transport (the rest)": out.layer["serve.transport_ms"] / 1e3,
        }
        return out


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    """First stdout line of ``proc``, or ``""`` if none arrives in time."""
    box: list[bytes] = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0].decode("utf-8", "replace").strip() if box else ""


WORKLOADS = {
    w.name: w for w in (EventsFlow, TrajsRasterSpeed, StreamIngest, ServeMixed)
}

