"""v2 blocks: round-trip, oracle parity, pushdown, legacy rejection, corruption.

Also the regression tests for the block-decode hot-path fixes that landed
with the format: ``read_block`` metadata caching and corruption contract,
``LoadStats`` locking/set-dedupe, and orphan-block cleanup on rewrite.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.columnar.cache import (
    invalidate_partition_indexes,
    partition_boxtable,
    selection_cache,
)
from repro.core import Selector
from repro.engine import EngineContext
from repro.engine.errors import CorruptPartitionError, TaskFailure
from repro.engine.faults import FaultPlan, FaultRule
from repro.geometry import Envelope, LineString, Point, Polygon
from repro.instances import Event
from repro.partitioners import TSTRPartitioner
from repro.index.boxes import st_query_box
from repro.stio import (
    DatasetMetadata,
    LegacyLayoutError,
    StDataset,
    V2Block,
    encode_v2_block,
    open_v2_block,
    save_dataset,
    scan_v2_block,
)
from repro.temporal import Duration
from tests import oracles
from tests.conftest import make_events, make_trajectories

QUERY_SPATIAL = Envelope(1.0, 1.0, 3.0, 3.0)
QUERY_TEMPORAL = Duration(0.0, 40_000.0)


@pytest.fixture(autouse=True)
def _fresh_index_cache():
    invalidate_partition_indexes()
    yield
    invalidate_partition_indexes()


def _identities(instances) -> list:
    return sorted(inst.identity() for inst in instances)


# -- block round-trip -------------------------------------------------------------


class TestV2BlockRoundTrip:
    def test_events(self, tmp_path):
        events = make_events(50)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        assert block.n == 50
        assert block.filterable
        assert block.decode_all("tuple") == events

    def test_trajectories(self, tmp_path):
        trajs = make_trajectories(8)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(trajs, "tuple"))
        assert open_v2_block(path).decode_all("tuple") == trajs

    def test_geometry_variants(self, tmp_path):
        records = [
            Event(geom, Duration(0, 5), data=i)
            for i, geom in enumerate(
                (
                    Point(1, 2),
                    Envelope(0, 0, 1, 1),
                    LineString([(0, 0), (1, 1)]),
                    Polygon([(0, 0), (1, 0), (0, 1)]),
                )
            )
        ]
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(records, "tuple"))
        assert open_v2_block(path).decode_all("tuple") == records

    def test_empty_block(self, tmp_path):
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block([], "tuple"))
        block = open_v2_block(path)
        assert block.n == 0
        assert block.decode_all("tuple") == []
        assert block.payload_nbytes() == 0

    def test_pickle_codec_is_not_filterable(self, tmp_path):
        # Arbitrary pickled payloads (checkpoint state) have no ST
        # extent; the block must decode whole rather than mask rows.
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block([{"a": 1}, {"b": 2}], "pickle"))
        block = open_v2_block(path)
        assert not block.filterable
        assert block.decode_all("pickle") == [{"a": 1}, {"b": 2}]

    def test_pushdown_mask_matches_scalar_filter(self, tmp_path):
        from repro.index.boxes import st_query_box

        events = make_events(200)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        rows = block.candidate_rows(box)
        decoded = block.decode_rows(rows, "tuple")
        expected = [e for e in events if e.st_box().intersects(box)]
        assert decoded == expected
        assert block.payload_nbytes(rows) <= block.payload_nbytes()

    def test_block_pickles_as_path(self, tmp_path):
        events = make_events(10)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        clone = pickle.loads(pickle.dumps(block))
        assert isinstance(clone, V2Block)
        assert clone.path == block.path
        assert clone.decode_all("tuple") == events

    def test_truncated_and_garbage_blocks_rejected(self, tmp_path):
        path = tmp_path / "block.stb"
        path.write_bytes(b"junk")
        with pytest.raises(ValueError, match="block.stb"):
            open_v2_block(path)
        good = encode_v2_block(make_events(20), "tuple")
        path.write_bytes(good[: len(good) // 2])
        with pytest.raises(ValueError, match="block.stb"):
            open_v2_block(path)

    def test_scan_matches_compute_accounting(self, tmp_path):
        from repro.index.boxes import st_query_box

        events = make_events(100)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        block = open_v2_block(path)
        rows = block.candidate_rows(box)
        records, nbytes = scan_v2_block(path, box)
        assert records == len(rows)
        assert nbytes == block.index_nbytes + block.payload_nbytes(rows)
        full_records, full_nbytes = scan_v2_block(path, None)
        assert full_records == 100
        assert full_nbytes == block.index_nbytes + block.payload_nbytes()


# -- dataset-level format behaviour ------------------------------------------------


class TestV2Dataset:
    def test_write_uses_stb_blocks_and_autodetects(self, ctx, tmp_path):
        events = make_events(120)
        ds = save_dataset(tmp_path / "ds", events, "event")
        meta = ds.metadata()
        assert json.loads((tmp_path / "ds" / "metadata.json").read_text())[
            "block_format"
        ] == "v2"
        assert all(m.filename.endswith(".stb") for m in meta.partitions)
        # No format argument anywhere: read() autodetects from metadata.
        rdd, _ = StDataset(tmp_path / "ds").read(ctx)
        assert _identities(rdd.collect()) == _identities(events)

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    @pytest.mark.parametrize("mk", [make_events, make_trajectories])
    def test_selection_matches_oracle(self, ctx, tmp_path, mk, backend):
        # save_dataset writes one block per in-memory partition, so the
        # oracle's per-partition filter over the same slicing must match
        # the pushdown read partition by partition, in order.
        data = mk(150)
        itype = "event" if mk is make_events else "trajectory"
        ds = save_dataset(tmp_path / "ds", data, itype, num_partitions=8)
        expected = oracles.select(
            ctx.parallelize(data, 8), QUERY_SPATIAL, QUERY_TEMPORAL
        ).glom().collect()
        run_ctx = EngineContext(
            default_parallelism=2,
            backend=backend,
            backend_options={"warmup": False} if backend == "process" else None,
        )
        try:
            selector = Selector(QUERY_SPATIAL, QUERY_TEMPORAL)
            got = selector.select(run_ctx, tmp_path / "ds").glom().collect()
        finally:
            run_ctx.stop()
        assert [p for p in got if p] == [p for p in expected if p]
        assert any(expected) and sum(map(len, expected)) < len(data)
        # Load accounting equals what a pushdown scan of each selected
        # block reports, whether the blocks were read on the driver or in
        # a worker.
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        scans = [
            scan_v2_block(tmp_path / "ds" / m.filename, box)
            for m in ds.metadata().select_partitions(QUERY_SPATIAL, QUERY_TEMPORAL)
        ]
        stats = selector.last_load_stats
        assert stats.records_loaded == sum(n for n, _ in scans)
        assert stats.bytes_read == sum(b for _, b in scans)

    def test_pruned_read_decodes_only_matching_rows(self, ctx, tmp_path):
        events = make_events(300)
        save_dataset(tmp_path / "ds", events, "event")
        rdd, stats = StDataset(tmp_path / "ds").read(
            ctx, QUERY_SPATIAL, QUERY_TEMPORAL
        )
        got = rdd.collect()
        # Point events: the extent mask is exact, so the pushdown loads
        # precisely the matching rows — the Figure 5 proportionality.
        assert stats.records_loaded == len(got) < len(events)
        assert stats.bytes_read > 0

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_partitioned_select_decodes_each_row_once(self, tmp_path, monkeypatch, backend):
        # Fitting the partitioner reuses the one evaluation of load and
        # filter: every row the pushdown loads is decoded exactly once.
        import repro.stio.blockv2 as blockv2

        save_dataset(tmp_path / "ds", make_events(600), "event")
        decodes = []
        decode = blockv2.decode_record
        monkeypatch.setattr(
            blockv2, "decode_record", lambda r: decodes.append(1) or decode(r)
        )
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            selector = Selector(
                Envelope(0.0, 0.0, 6.0, 6.0), QUERY_TEMPORAL,
                partitioner=TSTRPartitioner(2, 4),
            )
            rows = sum(map(len, selector.select(ctx, tmp_path / "ds").glom().collect()))
        finally:
            ctx.stop()
        loaded = selector.last_load_stats.records_loaded
        assert 0 < rows <= loaded == len(decodes)

    def test_unpruned_read_loads_everything(self, ctx, tmp_path):
        events = make_events(100)
        save_dataset(tmp_path / "ds", events, "event")
        rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
        assert len(rdd.collect()) == len(events)
        assert stats.records_loaded == len(events)

    def test_append_continues_v2_format(self, ctx, tmp_path):
        events = make_events(80)
        ds = save_dataset(tmp_path / "ds", events[:40], "event", num_partitions=2)
        ds.append([events[40:60], events[60:]])
        meta = ds.metadata()
        assert [m.filename for m in meta.partitions][-1] == "part-00003.stb"
        rdd, _ = ds.read(ctx)
        assert _identities(rdd.collect()) == _identities(events)

    def test_unknown_block_format_rejected(self, tmp_path):
        save_dataset(tmp_path / "ok", make_events(10), "event")
        meta_path = tmp_path / "ok" / "metadata.json"
        meta_path.write_text(
            meta_path.read_text().replace('"block_format": "v2"', '"block_format": "v9"')
        )
        with pytest.raises(LegacyLayoutError, match="'v9'.*regenerate the dataset"):
            StDataset(tmp_path / "ok").metadata()


def _make_legacy(directory, block_format):
    """Rewrite a v2 dataset's metadata the way a legacy writer left it."""
    meta_path = directory / "metadata.json"
    payload = json.loads(meta_path.read_text())
    if block_format is None:
        del payload["block_format"]
    else:
        payload["block_format"] = block_format
    meta_path.write_text(json.dumps(payload))


class TestLegacyInput:
    @pytest.mark.parametrize("block_format", [None, "v1"])
    def test_legacy_metadata_rejected_everywhere(self, ctx, tmp_path, block_format):
        from repro.cli import main as cli_main

        ds = save_dataset(tmp_path / "ds", make_events(40), "event")
        part = ds.metadata().partitions[0]
        _make_legacy(tmp_path / "ds", block_format)
        match = "v1 pickle-per-partition layout was removed"
        with pytest.raises(LegacyLayoutError, match=match):
            StDataset(tmp_path / "ds").read(ctx)
        with pytest.raises(LegacyLayoutError, match=match):
            StDataset(tmp_path / "ds").read_block(part)
        with pytest.raises(LegacyLayoutError, match=match):
            cli_main(["info", str(tmp_path / "ds")])

    def test_save_dataset_rejects_v1_before_writing(self, tmp_path):
        (tmp_path / "ds").mkdir()
        with pytest.raises(ValueError, match="'v1'"):
            save_dataset(tmp_path / "ds", make_events(40), "event", block_format="v1")
        assert list((tmp_path / "ds").iterdir()) == []

    def test_ingest_rejects_v1_before_writing(self, tmp_path):
        (tmp_path / "feed").mkdir()
        with pytest.raises(ValueError, match="'v1'"):
            StDataset(tmp_path / "feed").ingest(
                make_events(40), instance_type="event", block_format="v1"
            )
        assert list((tmp_path / "feed").iterdir()) == []

    def test_checkpoint_round_trip_writes_unfilterable_blocks(self, ctx, tmp_path):
        from repro.engine.faults.checkpoint import PipelineCheckpoint

        # Phase outputs without an ST extent: (key, value) pairs.
        phase = ctx.parallelize([(i % 3, {"n": i}) for i in range(30)], 4)
        ckpt = PipelineCheckpoint(tmp_path / "ck", ctx)
        expected = ckpt.save("select", phase).glom().collect()
        blocks = sorted((tmp_path / "ck" / "select").glob("part-*"))
        assert [b.name for b in blocks] == [f"part-{i:05d}.stb" for i in range(4)]
        assert not any(open_v2_block(b).filterable for b in blocks)
        assert ckpt.has("select")
        assert ckpt.load("select").glom().collect() == expected


# -- corruption -------------------------------------------------------------------


class TestV2Corruption:
    def test_corrupt_v2_block_raises_with_filename(self, ctx, tmp_path):
        save_dataset(tmp_path / "ds", make_events(60), "event")
        (tmp_path / "ds" / "part-00001.stb").write_bytes(b"scrambled")
        rdd, _ = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
        with pytest.raises(TaskFailure) as exc_info:
            rdd.collect()
        assert isinstance(exc_info.value.cause, CorruptPartitionError)
        assert "part-00001.stb" in str(exc_info.value.cause)

    def test_quarantine_skips_corrupt_v2_block(self, ctx, tmp_path):
        events = make_events(60)
        save_dataset(tmp_path / "ds", events, "event")
        lost = StDataset(tmp_path / "ds").metadata().partitions[1].count
        (tmp_path / "ds" / "part-00001.stb").write_bytes(b"scrambled")
        rdd, stats = StDataset(tmp_path / "ds").read(
            ctx, use_metadata=False, on_corrupt="quarantine"
        )
        assert rdd.count() == len(events) - lost
        assert stats.partitions_quarantined == 1
        assert stats.quarantined_files == ["part-00001.stb"]

    def test_injected_corrupt_read_is_transient_on_v2(self, tmp_path):
        events = make_events(60)
        save_dataset(tmp_path / "ds", events, "event")
        plan = FaultPlan([FaultRule("corrupt_read", path="part-00000")])
        ctx = EngineContext(default_parallelism=4, fault_plan=plan)
        try:
            rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            assert rdd.count() == len(events)
            assert ctx.metrics.faults_injected >= 1
            assert stats.partitions_quarantined == 0
        finally:
            ctx.stop()


# -- hot-path regression fixes ----------------------------------------------------


class TestReadBlockRegressions:
    def test_read_block_parses_metadata_once(self, tmp_path, monkeypatch):
        ds = save_dataset(tmp_path / "ds", make_events(100), "event")
        metas = ds.metadata().partitions
        handle = StDataset(tmp_path / "ds")
        calls = {"n": 0}
        original = DatasetMetadata.load.__func__

        def counting(cls, directory):
            calls["n"] += 1
            return original(cls, directory)

        monkeypatch.setattr(DatasetMetadata, "load", classmethod(counting))
        for meta in metas:
            handle.read_block(meta)
        # One parse, memoized on the file's stat signature — not one per block.
        assert calls["n"] == 1

    def test_read_block_honors_corruption_contract_v1(self, tmp_path):
        ds = save_dataset(tmp_path / "ds", make_events(40), "event")
        meta = ds.metadata().partitions[0]
        (tmp_path / "ds" / meta.filename).write_bytes(b"not a pickle")
        handle = StDataset(tmp_path / "ds")
        with pytest.raises(CorruptPartitionError) as exc_info:
            handle.read_block(meta)
        assert meta.filename in str(exc_info.value)
        assert handle.read_block(meta, on_corrupt="quarantine") == []

    def test_read_block_indexed_returns_mmap_boxtable(self, tmp_path):
        events = make_events(50)
        ds = save_dataset(
            tmp_path / "ds", events, "event", num_partitions=1
        )
        meta = ds.metadata().partitions[0]
        records, table = ds.read_block_indexed(meta)
        assert len(records) == len(events)
        assert table is not None
        assert len(table) == len(records)
        # Unfilterable (pickle-codec checkpoint) blocks carry no table.
        ck = StDataset.write(tmp_path / "ck", [[{"a": 1}]], "checkpoint", codec="pickle")
        records, no_table = ck.read_block_indexed(ck.metadata().partitions[0])
        assert records == [{"a": 1}]
        assert no_table is None


class TestOrphanCleanup:
    def test_shrinking_rewrite_removes_stale_blocks(self, tmp_path):
        events = make_events(80)
        parts = [events[i::8] for i in range(8)]
        StDataset.write(tmp_path / "ds", parts, "event")
        assert len(list((tmp_path / "ds").glob("part-*.stb"))) == 8
        StDataset.write(tmp_path / "ds", [events[:40], events[40:]], "event")
        remaining = sorted(p.name for p in (tmp_path / "ds").glob("part-*"))
        assert remaining == ["part-00000.stb", "part-00001.stb"]
        meta = StDataset(tmp_path / "ds").metadata()
        assert meta.total_records == len(events)


class TestLoadStats:
    def test_concurrent_note_block_is_exact(self):
        from repro.stio.dataset import LoadStats

        stats = LoadStats()
        names = [f"part-{i:05d}.stb" for i in range(50)]

        def hammer():
            for name in names:
                stats.note_block(name, 10, 100)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every block counted exactly once despite 8 racing readers.
        assert stats.partitions_read == 50
        assert stats.records_loaded == 500
        assert stats.bytes_read == 5_000

    def test_stats_survive_pickling(self):
        from repro.stio.dataset import LoadStats

        stats = LoadStats()
        stats.note_block("part-00000.stb", 5, 50)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.partitions_read == 1
        assert clone.files == {"part-00000.stb"}
        # The recreated lock still guards further mutation.
        assert clone.note_block("part-00001.stb", 1, 10)

    def test_thread_backend_load_counts_each_block_once(self, tmp_path):
        events = make_events(200)
        save_dataset(tmp_path / "ds", events, "event")
        ctx = EngineContext(default_parallelism=8, backend="thread")
        try:
            rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            rdd.collect()
            rdd.collect()  # recompute: dedupe must hold across evaluations
            assert stats.records_loaded == len(events)
            assert stats.partitions_read == len(stats.files)
        finally:
            ctx.stop()


# -- zero-copy shipping ------------------------------------------------------------


class TestZeroCopyShipping:
    def test_captured_mmap_boxtable_ships_out_of_band(self, tmp_path):
        from repro.engine.exec.base import StageSpec
        from repro.engine.exec.process import _serialize_stage

        events = make_events(200)
        ds = save_dataset(
            tmp_path / "ds", events, "event", num_partitions=1
        )
        meta = ds.metadata().partitions[0]
        records, table = ds.read_block_indexed(meta)
        assert table is not None

        def task(split: int, t=table) -> list:
            return [float(t.xmin[0])]

        payload, buffers = _serialize_stage(StageSpec(num_partitions=1, task=task))
        # The six extent columns ride protocol-5 out-of-band buffers
        # instead of being copied into the in-band pickle stream.
        assert buffers
        assert sum(len(b) for b in buffers) >= 6 * len(records) * 8


# -- serve residency ---------------------------------------------------------------


class TestServeOverV2:
    def _state(self, tmp_path, **kwargs):
        from repro.serve.server import DatasetState

        events = make_events(150)
        save_dataset(tmp_path / "ds", events, "event")
        return events, DatasetState(tmp_path / "ds", **kwargs)

    def test_resident_blocks_seed_the_selection_cache(self, tmp_path):
        _, state = self._state(tmp_path)
        cache = selection_cache()
        partitions, scanned, _ = state.partitions_for(QUERY_SPATIAL, QUERY_TEMPORAL)
        assert scanned == len(partitions)
        for partition in partitions:
            before = cache.misses
            table, hit = partition_boxtable(partition)
            # The mmapped table was planted at decode time: first probe hits.
            assert hit
            assert cache.misses == before
            assert len(table) == len(partition)

    def test_quarantined_block_answers_empty_and_is_not_cached(self, tmp_path):
        _, state = self._state(tmp_path, on_corrupt="quarantine")
        target = state.meta.partitions[0]
        (state.dataset.directory / target.filename).write_bytes(b"bad")
        partitions, _, _ = state.partitions_for(None, None)
        assert [] in partitions
        assert state.blocks_quarantined == 1
        # Not resident: a repaired file is picked up on the next query.
        assert state.resident_blocks() == len(state.meta.partitions) - 1
