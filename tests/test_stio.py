"""On-disk dataset, metadata index, and format codec tests."""

import json

import pytest

from repro.engine import EngineContext
from repro.geometry import Envelope, LineString, Point, Polygon
from repro.instances import Event, Trajectory
from repro.partitioners import TSTRPartitioner
from repro.stio import (
    DatasetMetadata,
    NonFiniteRecordError,
    PartitionMeta,
    StDataset,
    decode_record,
    encode_record,
    load_dataset,
    read_raster_csv,
    save_dataset,
    write_raster_csv,
)
from repro.index import STBox
from repro.temporal import Duration
from tests.conftest import make_events, make_trajectories


class TestRecordCodec:
    def test_event_roundtrip(self):
        ev = Event.of_point(1.5, 2.5, 100.0, value="aux", data=42)
        assert decode_record(encode_record(ev)) == ev

    def test_trajectory_roundtrip(self):
        traj = Trajectory.of_points([(0, 0, 0, "a"), (1, 1, 15, "b")], data="t1")
        restored = decode_record(encode_record(traj))
        assert restored == traj

    def test_event_geometry_variants(self):
        for geom in (
            Point(1, 2),
            Envelope(0, 0, 1, 1),
            LineString([(0, 0), (1, 1)]),
            Polygon([(0, 0), (1, 0), (0, 1)]),
        ):
            ev = Event(geom, Duration(0, 5), data="g")
            assert decode_record(encode_record(ev)) == ev

    def test_collective_rejected(self):
        from repro.instances import TimeSeries

        with pytest.raises(TypeError):
            encode_record(TimeSeries.regular(Duration(0, 2), 1.0))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_record(("X", None))


class TestRasterCsv:
    def test_roundtrip(self, tmp_path):
        cells = [
            (Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), Duration(0, 3600)),
            (Polygon([(1, 0), (2, 0), (2, 1)]), Duration(3600, 7200)),
        ]
        path = tmp_path / "raster.csv"
        write_raster_csv(path, cells)
        restored = read_raster_csv(path)
        assert restored == cells

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "raster.csv"
        path.write_text("# comment\n0,0|1,0|1,1;0;10\n")
        cells = read_raster_csv(path)
        assert len(cells) == 1

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "raster.csv"
        path.write_text("0,0|1,0|1,1;0\n")
        with pytest.raises(ValueError):
            read_raster_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "raster.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_raster_csv(path)


class TestMetadata:
    def test_save_load_roundtrip(self, tmp_path):
        meta = DatasetMetadata(
            instance_type="event",
            partitions=[
                PartitionMeta("part-00000.pkl", 10, STBox((0, 0, 0), (1, 1, 1))),
            ],
        )
        meta.save(tmp_path)
        loaded = DatasetMetadata.load(tmp_path)
        assert loaded.instance_type == "event"
        assert loaded.partitions[0].bounds == STBox((0, 0, 0), (1, 1, 1))
        assert loaded.total_records == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DatasetMetadata.load(tmp_path)

    def test_corrupted_json(self, tmp_path):
        (tmp_path / "metadata.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupted"):
            DatasetMetadata.load(tmp_path)

    def test_missing_key(self, tmp_path):
        (tmp_path / "metadata.json").write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match="missing key"):
            DatasetMetadata.load(tmp_path)

    def test_future_version_rejected(self, tmp_path):
        (tmp_path / "metadata.json").write_text(
            json.dumps({"version": 99, "instance_type": "event", "partitions": []})
        )
        with pytest.raises(ValueError, match="newer"):
            DatasetMetadata.load(tmp_path)

    def test_select_partitions_pruning(self):
        parts = [
            PartitionMeta("a", 5, STBox((0, 0, 0), (1, 1, 10))),
            PartitionMeta("b", 5, STBox((5, 5, 0), (6, 6, 10))),
            PartitionMeta("empty", 0, STBox((0, 0, 0), (9, 9, 10))),
        ]
        meta = DatasetMetadata("event", parts)
        hits = meta.select_partitions(Envelope(0, 0, 2, 2), Duration(0, 5))
        assert [p.filename for p in hits] == ["a"]
        # Unconstrained query returns all non-empty partitions.
        assert len(meta.select_partitions(None, None)) == 2

    def test_merged_with(self):
        a = DatasetMetadata("event", [PartitionMeta("a", 1, STBox((0,) * 3, (1,) * 3))])
        b = DatasetMetadata("event", [PartitionMeta("b", 2, STBox((0,) * 3, (1,) * 3))])
        merged = a.merged_with(b)
        assert merged.total_records == 3

    def test_merged_type_mismatch(self):
        a = DatasetMetadata("event", [])
        b = DatasetMetadata("trajectory", [])
        with pytest.raises(ValueError):
            a.merged_with(b)


class TestStDataset:
    def test_save_and_full_read(self, tmp_path):
        events = make_events(100)
        ctx = EngineContext(4)
        save_dataset(tmp_path / "d", events, "event", ctx=ctx)
        rdd, stats = load_dataset(ctx, tmp_path / "d")
        assert sorted(ev.data for ev in rdd.collect()) == sorted(
            ev.data for ev in events
        )
        assert stats.partitions_read == stats.partitions_total

    def test_pruned_read_equals_filtered_full_read(self, tmp_path):
        events = make_events(500, seed=9)
        ctx = EngineContext(4)
        save_dataset(
            tmp_path / "d", events, "event", partitioner=TSTRPartitioner(3, 3), ctx=ctx
        )
        spatial = Envelope(0, 0, 3, 3)
        temporal = Duration(0, 30_000)

        pruned, stats = load_dataset(ctx, tmp_path / "d", spatial, temporal)
        pruned_ids = {
            ev.data
            for ev in pruned.collect()
            if ev.intersects(spatial, temporal)
        }
        expected = {
            ev.data for ev in events if ev.intersects(spatial, temporal)
        }
        assert pruned_ids == expected
        assert stats.partitions_read < stats.partitions_total

    def test_lazy_loading_counts_only_computed(self, tmp_path):
        events = make_events(100)
        ctx = EngineContext(4)
        save_dataset(tmp_path / "d", events, "event", num_partitions=10, ctx=ctx)
        rdd, stats = load_dataset(ctx, tmp_path / "d")
        assert stats.partitions_read == 0  # nothing touched yet
        rdd.take(1)
        assert stats.partitions_read >= 1
        assert stats.partitions_read < 10

    def test_write_trajectories(self, tmp_path):
        trajectories = make_trajectories(20)
        ctx = EngineContext(4)
        save_dataset(tmp_path / "t", trajectories, "trajectory", ctx=ctx)
        rdd, _ = load_dataset(ctx, tmp_path / "t")
        assert rdd.count() == 20

    def test_empty_partitions_handled(self, tmp_path):
        StDataset.write(tmp_path / "d", [[], []], "event")
        ctx = EngineContext(2)
        rdd, _ = load_dataset(ctx, tmp_path / "d")
        assert rdd.collect() == []

    def test_metadata_counts(self, tmp_path):
        events = make_events(60)
        ctx = EngineContext(4)
        ds = save_dataset(tmp_path / "d", events, "event", ctx=ctx)
        assert ds.metadata().total_records == 60

    def test_bounds_are_tight(self, tmp_path):
        events = [Event.of_point(1.0, 1.0, 5.0, data=0)]
        StDataset.write(tmp_path / "d", [events], "event")
        meta = DatasetMetadata.load(tmp_path / "d")
        assert meta.partitions[0].bounds == STBox((1, 1, 5), (1, 1, 5))


def _with_non_finite(bad_kind: str) -> list:
    """Valid events plus one with an infinite coordinate or timestamp."""
    bad = {
        "x+inf": Event.of_point(float("inf"), 1.0, 500.0, data="bad"),
        "y-inf": Event.of_point(1.0, float("-inf"), 500.0, data="bad"),
        "t+inf": Event(Point(1.0, 1.0), Duration(500.0, float("inf")), data="bad"),
        "t-inf": Event(Point(1.0, 1.0), Duration.instant(float("-inf")), data="bad"),
    }[bad_kind]
    return make_events(80) + [bad]


def _listing(directory):
    if not directory.exists():
        return None
    return sorted((p.name, p.read_bytes()) for p in directory.iterdir())


class TestNonFiniteRejected:
    """±inf extents are rejected on the way in, leaving nothing on disk."""

    BAD_KINDS = ["x+inf", "y-inf", "t+inf", "t-inf"]

    @pytest.mark.parametrize("block_format", ["v1", "v2"])
    @pytest.mark.parametrize("bad_kind", BAD_KINDS)
    def test_write_and_write_rdd(self, tmp_path, block_format, bad_kind):
        records = _with_non_finite(bad_kind)
        with pytest.raises(NonFiniteRecordError, match="infinite"):
            StDataset.write(
                tmp_path / "w", [records[:40], records[40:]], "event",
                block_format=block_format,
            )
        ctx = EngineContext(default_parallelism=2)
        with pytest.raises(NonFiniteRecordError):
            StDataset.write_rdd(
                tmp_path / "wr", ctx.parallelize(records, 2), "event",
                partitioner=TSTRPartitioner(2, 2), block_format=block_format,
            )
        assert _listing(tmp_path / "w") is None
        assert _listing(tmp_path / "wr") is None

    @pytest.mark.parametrize("block_format", ["v1", "v2"])
    @pytest.mark.parametrize("bad_kind", BAD_KINDS)
    def test_append_and_ingest(self, tmp_path, block_format, bad_kind):
        records = _with_non_finite(bad_kind)
        ds = StDataset.write(
            tmp_path / "d", [make_events(30, seed=3)], "event", block_format=block_format
        )
        before = _listing(tmp_path / "d")
        with pytest.raises(NonFiniteRecordError):
            ds.append([records])
        with pytest.raises(NonFiniteRecordError):
            ds.ingest(records, partitioner=TSTRPartitioner(2, 2))
        assert _listing(tmp_path / "d") == before
        fresh = StDataset(tmp_path / "fresh")
        with pytest.raises(NonFiniteRecordError):
            fresh.ingest(records, instance_type="event", block_format=block_format)
        assert _listing(tmp_path / "fresh") is None

    def test_finite_bounds_recorded(self, tmp_path):
        ds = StDataset.write(tmp_path / "ok", [make_events(40)], "event", block_format="v2")
        bounds = ds.metadata().partitions[0].bounds
        assert all(abs(v) < 1e6 for v in bounds.mins + bounds.maxs)


class TestPruningEquivalence:
    """Metadata pruning must agree with the in-memory filter exactly.

    Both sides now share one canonical query-box construction
    (``st_query_box``), so a query that merely *touches* a partition MBR
    edge keeps that partition — a record sitting exactly on the edge
    matches the closed-interval filter and would be silently dropped by
    any stricter pruning predicate.
    """

    def _boundary_queries(self, dataset):
        """Queries whose edges coincide exactly with stored partition MBRs."""
        queries = []
        for part in dataset.metadata().partitions:
            if part.count == 0:
                continue
            min_x, min_y, min_t = part.bounds.mins
            max_x, max_y, max_t = part.bounds.maxs
            # Query ending exactly at the partition's min corner: shares
            # only the boundary plane with the MBR.
            queries.append(
                (
                    Envelope(min_x - 1.0, min_y - 1.0, min_x, min_y),
                    Duration(max(0.0, min_t - 10.0), min_t),
                )
            )
            # Query starting exactly at the max corner.
            queries.append(
                (
                    Envelope(max_x, max_y, max_x + 1.0, max_y + 1.0),
                    Duration(max_t, max_t + 10.0),
                )
            )
        return queries

    def test_boundary_touching_pruned_load_equals_full_scan(self, tmp_path):
        from repro.core.selector import Selector

        events = make_events(400, seed=11)
        ctx = EngineContext(4)
        ds = save_dataset(
            tmp_path / "d", events, "event", partitioner=TSTRPartitioner(2, 3), ctx=ctx
        )
        # Place one event exactly on each partition MBR corner so a
        # boundary-touching query has something real to find.
        corner_events = []
        for i, part in enumerate(ds.metadata().partitions):
            x, y, t = part.bounds.mins
            corner_events.append(Event.of_point(x, y, t, data=f"corner-{i}"))
        all_events = events + corner_events
        ds2 = save_dataset(
            tmp_path / "d2",
            all_events,
            "event",
            partitioner=TSTRPartitioner(2, 3),
            ctx=ctx,
        )

        for spatial, temporal in self._boundary_queries(ds2):
            selector = Selector(spatial, temporal)
            pruned = {
                ev.data
                for ev in selector.select(ctx, tmp_path / "d2").collect()
            }
            full = {
                ev.data
                for ev in selector.select(
                    ctx, tmp_path / "d2", use_metadata=False
                ).collect()
            }
            assert pruned == full

    def test_overlaps_matches_filter_on_edge(self):
        """PartitionMeta.overlaps is True whenever a record could match."""
        part = PartitionMeta("p", 3, STBox((0.0, 0.0, 0.0), (5.0, 5.0, 100.0)))
        # Touching the max corner in every dimension: must keep.
        assert part.overlaps(Envelope(5.0, 5.0, 9.0, 9.0), Duration(100.0, 200.0))
        # Touching the min corner: must keep.
        assert part.overlaps(Envelope(-2.0, -2.0, 0.0, 0.0), Duration(-5.0, 0.0))
        # Touching spatially but disjoint temporally: prune.
        assert not part.overlaps(Envelope(5.0, 5.0, 9.0, 9.0), Duration(100.5, 200.0))
        # Unconstrained dimensions keep everything non-empty.
        assert part.overlaps(None, None)
        assert part.overlaps(Envelope(5.0, 5.0, 9.0, 9.0), None)
        assert part.overlaps(None, Duration(100.0, 101.0))

    def test_empty_partition_always_pruned(self):
        part = PartitionMeta("p", 0, STBox((0.0, 0.0, 0.0), (5.0, 5.0, 100.0)))
        assert not part.overlaps(None, None)
        assert not part.overlaps(Envelope(0.0, 0.0, 5.0, 5.0), Duration(0.0, 100.0))

    def test_edge_record_survives_pruned_load(self, tmp_path):
        """A record exactly on a partition edge is found via pruned load."""
        from repro.core.selector import Selector

        ctx = EngineContext(2)
        inside = [Event.of_point(2.0, 2.0, 50.0, data="inside")]
        edge = [Event.of_point(5.0, 5.0, 100.0, data="edge")]
        StDataset.write(tmp_path / "d", [inside, edge], "event")

        selector = Selector(Envelope(5.0, 5.0, 9.0, 9.0), Duration(100.0, 200.0))
        got = {ev.data for ev in selector.select(ctx, tmp_path / "d").collect()}
        assert got == {"edge"}
