"""Partitioned on-disk datasets with metadata-pruned loading."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox, st_query_box
from repro.instances.base import Instance
from repro.stio.blockv2 import encode_v2_block, open_v2_block, scan_v2_block
from repro.stio.metadata import (
    BLOCK_FORMAT,
    METADATA_FILENAME,
    DatasetMetadata,
    PartitionMeta,
)
from repro.temporal.duration import Duration

if TYPE_CHECKING:  # pragma: no cover
    from repro.partitioners.base import STPartitioner
    from repro.stream.ingest import IngestReport

#: One v2 block file per partition.
_BLOCK_NAME = "part-{:05d}.stb"


class NonFiniteRecordError(ValueError):
    """A record with a ±inf coordinate or timestamp reached a write.

    Raised before any block or metadata is written: an infinite extent
    would widen its partition's recorded bounds to infinity, and metadata
    pruning could then never exclude that partition.  (NaN is already
    rejected by ``Point``/``Envelope``/``Duration``.)
    """


def _require_v2(block_format: str) -> None:
    """Validate the ``block_format`` compatibility argument: only v2 exists."""
    if block_format != BLOCK_FORMAT:
        raise ValueError(
            f"unknown block format {block_format!r}: {BLOCK_FORMAT!r} is the "
            f"only block layout"
        )


def _require_finite(partitions: Sequence[Sequence], bounds: Sequence[STBox]) -> None:
    """Raise :class:`NonFiniteRecordError` if any record is non-finite.

    A block's merged MBR is finite exactly when every record's is, so
    only the bounds of non-empty blocks — computed for the metadata
    anyway — are checked; the offending record is located only on
    failure.
    """
    for i, (records, box) in enumerate(zip(partitions, bounds)):
        if records and not all(map(math.isfinite, box.mins + box.maxs)):
            bad = next(
                (r for r in records if not all(map(math.isfinite, r.st_bounds()))),
                None,
            )
            raise NonFiniteRecordError(
                f"partition {i} holds a record with an infinite coordinate or "
                f"timestamp ({bad!r}); nothing was written"
            )


@dataclass
class LoadStats:
    """I/O accounting for one load — the currency of Figure 5.

    ``partitions_total`` vs ``partitions_read`` is the pruning ratio;
    ``records_loaded`` is what Figure 5c/d plot as "memory loaded": under
    query pushdown, the rows whose payloads were actually unpickled.
    ``bytes_read`` counts each block's index region plus those rows'
    payload bytes.
    ``partitions_selected`` is known at :meth:`StDataset.read` time (how
    many partitions survived metadata pruning), while ``partitions_read``
    counts the *distinct* block files deserialized so far — they converge
    once every partition has been computed, and lineage recomputation
    (retries, a second shuffle pass, post-demotion re-evaluation) never
    double-counts a block.  ``partitions_quarantined``
    counts corrupt block files skipped under ``on_corrupt="quarantine"``
    (the graceful-degradation alternative to aborting the load).

    All mutation goes through the ``note_*`` methods, which serialize on
    an internal lock: the thread backend evaluates partitions of one load
    concurrently, and unlocked ``+=`` on shared counters drops updates.
    """

    partitions_total: int = 0
    partitions_selected: int = 0
    partitions_read: int = 0
    records_loaded: int = 0
    bytes_read: int = 0
    files: set[str] = field(default_factory=set)
    partitions_quarantined: int = 0
    quarantined_files: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def seen(self, filename: str) -> bool:
        """Has this block already been accounted?"""
        with self._lock:
            return filename in self.files

    def note_block(self, filename: str, records: int, nbytes: int) -> bool:
        """Account one decoded block exactly once; True when newly counted.

        Dedupe on filename (an O(1) set probe, not a list scan): lineage
        recomputation — a second shuffle pass, a retry, a post-demotion
        re-evaluation — re-reads the same block, but "memory loaded"
        counts each block once, identically on every backend.
        """
        with self._lock:
            if filename in self.files:
                return False
            self.files.add(filename)
            self.partitions_read += 1
            self.records_loaded += records
            self.bytes_read += nbytes
            return True

    def note_quarantined(self, filename: str) -> None:
        """Count one undecodable block skipped under ``on_corrupt="quarantine"``."""
        with self._lock:
            if filename not in self.quarantined_files:
                self.partitions_quarantined += 1
                self.quarantined_files.append(filename)

    def __getstate__(self) -> dict:
        # Ships inside stage closures to process workers; the lock stays
        # behind (worker-side stats are a throwaway copy anyway — see
        # _DiskPartitionRDD.__getstate__).
        state = {k: getattr(self, k) for k in self.__dataclass_fields__}
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._lock = threading.Lock()


class _DiskPartitionRDD(RDD):
    """Source RDD whose partitions deserialize lazily from block files.

    ``on_corrupt`` decides what an undecodable block does: ``"raise"``
    (the default) surfaces :class:`~repro.engine.errors.CorruptPartitionError`
    through the retry loop, ``"quarantine"`` skips the block — an empty
    partition — and counts it in ``LoadStats.partitions_quarantined``.
    An active fault plan's ``corrupt_read`` rules fail a read without
    touching the file, so injected corruption is transient: the retry's
    re-read recovers, and quarantine stays reserved for genuinely bad
    on-disk blocks.

    With a ``query_box``, the compute is the pruned-load fast path: mmap
    the extent columns, run the vectorized mask straight off disk, and
    unpickle payload bytes only for surviving rows.  Shipping this RDD to
    a process worker moves the directory path and partition metadata —
    never block bytes; each worker mmaps its own blocks locally.
    """

    def __init__(
        self,
        ctx: EngineContext,
        directory: Path,
        metas: list[PartitionMeta],
        stats: LoadStats,
        codec: str = "tuple",
        on_corrupt: str = "raise",
        query_box: STBox | None = None,
    ):
        super().__init__(ctx, max(1, len(metas)))
        self._directory = directory
        self._metas = metas
        self._stats = stats
        self._codec = codec
        self._on_corrupt = on_corrupt
        self._query_box = query_box

    def _inject_corrupt_read(self, path: Path) -> None:
        """Honor an active fault plan's ``corrupt_read`` rules.

        A block read never reads the whole file, so the plan decides on a
        small probe — the decision (and its per-file read counter) depends
        only on the path.  Raising instead of decoding garbage means the
        retry loop's re-read sees the (clean) on-disk bytes and recovers.
        """
        plan = getattr(self.ctx, "fault_plan", None)
        if plan is None:
            return
        probe = b"stb2"
        if plan.corrupt_read(path, probe) is not probe:
            from repro.engine.errors import InjectedFault

            raise InjectedFault(
                f"injected corrupt read of {path.name}", site=path.name
            )

    def _compute(self, split: int) -> list:
        if not self._metas:
            return []
        meta = self._metas[split]
        path = self._directory / meta.filename
        self._inject_corrupt_read(path)
        try:
            block = open_v2_block(path)
            if self._query_box is not None and block.filterable:
                rows = block.candidate_rows(self._query_box)
                records = block.decode_rows(rows, self._codec)
                nbytes = block.index_nbytes + block.payload_nbytes(rows)
            else:
                records = block.decode_all(self._codec)
                nbytes = block.index_nbytes + block.payload_nbytes()
        except Exception as exc:
            from repro.engine.errors import CorruptPartitionError

            if self._on_corrupt == "quarantine":
                self._stats.note_quarantined(meta.filename)
                return []
            raise CorruptPartitionError(meta.filename, repr(exc)) from exc
        self._stats.note_block(meta.filename, len(records), nbytes)
        return records

    def __getstate__(self):
        # Shipping this source to process workers means the blocks are read
        # worker-side, where mutations of the driver's LoadStats are
        # invisible.  Account for the whole read now — exact: the extent
        # mask runs off the mmap without decoding any payload
        # (scan_v2_block matches the worker's pushdown arithmetic).
        # Per-file dedupe (not an all-or-nothing guard): after a backend
        # demotion mid-job, some blocks may already have been read — and
        # accounted — driver-side.
        for meta in self._metas:
            if self._stats.seen(meta.filename):
                continue
            try:
                records, nbytes = scan_v2_block(
                    self._directory / meta.filename, self._query_box
                )
            except Exception:
                # An unreadable block is the worker's problem to surface
                # (CorruptPartitionError / quarantine); don't let stats
                # accounting break stage serialization.
                continue
            self._stats.note_block(meta.filename, records, nbytes)
        return dict(self.__dict__)


class StDataset:
    """A directory holding one block file per partition + ``metadata.json``.

    This is the engine-facing face of Section 4.1: :meth:`write` persists a
    partitioned layout with its boundaries, :meth:`read` returns a lazy RDD
    over only the partitions surviving metadata pruning.

    Each block is a v2 file (``part-*.stb``, :mod:`repro.stio.blockv2`):
    mmap-able extent columns plus per-row payload offsets, so pruned
    loads decode only matching rows.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._meta_cache: tuple[tuple[int, int], DatasetMetadata] | None = None

    # -- writing ------------------------------------------------------------------

    @staticmethod
    def _block_bounds(
        records: Sequence,
        boundaries: Sequence[STBox] | None,
        index: int,
        codec: str,
    ) -> STBox:
        if records:
            if codec == "pickle":
                # Checkpoint payloads may not expose st_box (partial
                # collective instances); pruning is off for them anyway.
                try:
                    return STBox.merge_all([r.st_box() for r in records])
                except Exception:
                    return STBox((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
            return STBox.merge_all([r.st_box() for r in records])
        if boundaries is not None and index < len(boundaries):
            return boundaries[index]
        return STBox((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @staticmethod
    def _remove_orphan_blocks(directory: Path, keep: set[str]) -> None:
        """Delete ``part-*`` block files the new metadata doesn't name.

        An in-place rewrite with fewer partitions must not leave stale
        blocks behind: they waste disk and poison glob-based tooling that
        enumerates ``part-*`` files instead of reading the metadata.
        """
        for stale in directory.glob("part-*"):
            if stale.name not in keep:
                stale.unlink()

    @classmethod
    def write(
        cls,
        directory: str | Path,
        partitions: Sequence[Sequence[Instance]],
        instance_type: str,
        boundaries: Sequence[STBox] | None = None,
        codec: str = "tuple",
        watermark: float | None = None,
    ) -> "StDataset":
        """Persist partition lists and build the metadata index.

        Per-partition bounds recorded in the metadata are the MBRs of the
        *actual* records (tight pruning); ``boundaries`` — the theoretical
        partitioner cells — are accepted for API parity but only used for
        partitions that hold no records.  A record with an infinite
        coordinate or timestamp raises :class:`NonFiniteRecordError`
        before anything is written.

        ``codec`` names how records encode within a block: ``"tuple"``
        routes them through :func:`~repro.stio.formats.encode_record`
        (compact, schema-checked); ``"pickle"`` stores them verbatim —
        lossless for anything picklable, which is what checkpoints need
        (replica flags, partial collective instances).
        """
        if codec not in ("pickle", "tuple"):
            raise ValueError(f"unknown block codec {codec!r}")
        partitions = list(partitions)
        bounds = [
            cls._block_bounds(records, boundaries, i, codec)
            for i, records in enumerate(partitions)
        ]
        _require_finite(partitions, bounds)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Rewriting an existing dataset in place (re-index / repartition)
        # is an edit like any other: continue its
        # generation counter so long-lived readers keyed on it (the serve
        # result cache) miss.  The streaming watermark survives rewrites
        # the same way — compaction reshuffles blocks, it does not change
        # what has been ingested.
        generation = 0
        if (directory / METADATA_FILENAME).exists():
            try:
                existing = DatasetMetadata.load(directory)
                generation = existing.generation + 1
                if watermark is None:
                    watermark = existing.watermark
            except (ValueError, FileNotFoundError):
                generation = 1
        metas = []
        for i, records in enumerate(partitions):
            filename = _BLOCK_NAME.format(i)
            (directory / filename).write_bytes(encode_v2_block(records, codec))
            metas.append(
                PartitionMeta(filename=filename, count=len(records), bounds=bounds[i])
            )
        DatasetMetadata(
            instance_type=instance_type,
            partitions=metas,
            codec=codec,
            generation=generation,
            watermark=watermark,
        ).save(directory)
        cls._remove_orphan_blocks(directory, {m.filename for m in metas})
        return cls(directory)

    @classmethod
    def write_rdd(
        cls,
        directory: str | Path,
        rdd: RDD,
        instance_type: str,
        partitioner: "STPartitioner | None" = None,
        sample_fraction: float = 0.1,
    ) -> "StDataset":
        """Optionally ST-partition an RDD, then persist it.

        This is the offline index-generation step: ``TSTRPartitioner`` +
        ``write_rdd`` together implement the ``stPartitionWithInfo`` /
        ``toDisk`` code of Section 4.1.
        """
        boundaries = None
        if partitioner is not None:
            rdd, boundaries = partitioner.partition_with_info(
                rdd, sample_fraction=sample_fraction
            )
        return cls.write(directory, rdd._collect_partitions(), instance_type, boundaries)

    def append(
        self,
        partitions: Sequence[Sequence[Instance]],
        boundaries: Sequence[STBox] | None = None,
        watermark: float | None = None,
    ) -> "StDataset":
        """Add a newly indexed batch to an existing dataset.

        The periodic-indexing workflow of Section 4.1's discussion:
        "application programmers may periodically index the new group of
        data and merge the metadata file with the existing ones."  New
        block files continue the existing numbering and codec; the
        metadata files are merged — incrementally: existing partition
        entries are reused as-is, only the new blocks' entries are
        computed.  ``watermark``, when given, is the batch's high-water
        mark; the merge keeps the max of it and the dataset's existing
        mark, and the whole commit (partitions + generation + watermark)
        is one atomic metadata replace.  Non-finite records are rejected
        as in :meth:`write`, before any block lands.
        """
        existing = self.metadata()
        partitions = list(partitions)
        bounds = [
            self._block_bounds(records, boundaries, i, existing.codec)
            for i, records in enumerate(partitions)
        ]
        _require_finite(partitions, bounds)
        offset = len(existing.partitions)
        new_metas = []
        for i, records in enumerate(partitions):
            filename = _BLOCK_NAME.format(offset + i)
            (self.directory / filename).write_bytes(
                encode_v2_block(records, existing.codec)
            )
            new_metas.append(
                PartitionMeta(filename=filename, count=len(records), bounds=bounds[i])
            )
        merged = existing.merged_with(
            DatasetMetadata(
                instance_type=existing.instance_type,
                partitions=new_metas,
                codec=existing.codec,
                watermark=watermark,
            )
        )
        merged.save(self.directory)
        return self

    def append_rdd(
        self,
        rdd: RDD,
        partitioner: "STPartitioner | None" = None,
        sample_fraction: float = 0.1,
    ) -> "StDataset":
        """Partition (optionally) and append an RDD batch; see :meth:`append`."""
        boundaries = None
        if partitioner is not None:
            rdd, boundaries = partitioner.partition_with_info(
                rdd, sample_fraction=sample_fraction
            )
        return self.append(rdd._collect_partitions(), boundaries)

    # -- streaming ----------------------------------------------------------------

    def ingest(
        self,
        batch: Sequence[Instance],
        partitioner: "STPartitioner | None" = None,
        rebalance_threshold: int | None = None,
        instance_type: str | None = None,
        block_format: str = BLOCK_FORMAT,
    ) -> "IngestReport":
        """Append one micro-batch and advance the persisted watermark.

        The streaming front door: incremental metadata + T-STR maintenance
        (new temporal slices get new cells — no repartition of resident
        data), one atomic metadata commit advancing partitions +
        generation + watermark together, and an optional compaction when
        the block count crosses ``rebalance_threshold``.  Creates the
        dataset on first call (``instance_type`` required then).  See
        :func:`repro.stream.ingest_batch` for the full contract; returns
        its :class:`~repro.stream.IngestReport`.  ``block_format`` accepts
        only ``"v2"``; any other value raises ``ValueError`` before a file
        is written.
        """
        from repro.stream.ingest import ingest_batch

        _require_v2(block_format)
        return ingest_batch(
            self,
            batch,
            partitioner=partitioner,
            rebalance_threshold=rebalance_threshold,
            instance_type=instance_type,
        )

    def compact(self, partitioner: "STPartitioner | None" = None) -> int:
        """Rewrite the whole dataset under a fresh partition fit.

        See :func:`repro.stream.compact_dataset`; returns the number of
        blocks the rewrite replaced.
        """
        from repro.stream.ingest import compact_dataset

        return compact_dataset(self, partitioner=partitioner)

    # -- reading -------------------------------------------------------------------

    def metadata(self) -> DatasetMetadata:
        """Load the dataset's metadata file (always re-read from disk)."""
        return DatasetMetadata.load(self.directory)

    def cached_metadata(self) -> DatasetMetadata:
        """The parsed metadata, memoized on the file's stat signature.

        One ``os.stat`` per call instead of a full read + JSON parse: the
        hot paths (``read_block`` per block, the serve daemon per query)
        re-validate cheaply and re-parse only when an append or rewrite
        actually changed the file.  Handing out the same object on a hit
        is safe — ``DatasetMetadata`` is treated as immutable everywhere.
        """
        stat = (self.directory / METADATA_FILENAME).stat()
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._meta_cache
        if cached is None or cached[0] != signature:
            cached = (signature, DatasetMetadata.load(self.directory))
            self._meta_cache = cached
        return cached[1]

    def read_block(
        self,
        meta: PartitionMeta,
        codec: str | None = None,
        on_corrupt: str = "raise",
    ) -> list:
        """Eagerly read and decode one partition's block file.

        The resident-block path of the ``repro serve`` daemon: unlike
        :meth:`read` (a lazy RDD that re-reads and re-decodes per
        evaluation), this returns a plain list the caller can keep — the
        stable list identity is what lets the per-partition
        selection-index cache hit across queries.  ``codec`` defaults to
        the dataset's metadata value via :meth:`cached_metadata` (a stat,
        not a re-parse, per call); callers holding the metadata should
        pass it.  An undecodable
        block honors the same corruption contract as the lazy reader:
        :class:`~repro.engine.errors.CorruptPartitionError` naming the
        file, or an empty list under ``on_corrupt="quarantine"``.
        """
        records, _ = self.read_block_indexed(meta, codec=codec, on_corrupt=on_corrupt)
        return records

    def read_block_indexed(
        self,
        meta: PartitionMeta,
        codec: str | None = None,
        on_corrupt: str = "raise",
    ) -> tuple[list, object | None]:
        """:meth:`read_block`, plus the block's columnar selection index.

        The second element is a :class:`~repro.columnar.boxtable.BoxTable`
        whose extent columns are *views into the mmapped file* — the serve
        daemon seeds the selection-index cache with it, so resident
        partitions never re-extract bounds instance-by-instance.  ``None``
        for non-filterable blocks.
        """
        if codec is None:
            codec = self.cached_metadata().codec
        from repro.engine.errors import CorruptPartitionError

        try:
            block = open_v2_block(self.directory / meta.filename)
            records = block.decode_all(codec)
            return records, block.boxtable(records)
        except Exception as exc:
            if on_corrupt == "quarantine":
                return [], None
            raise CorruptPartitionError(meta.filename, repr(exc)) from exc

    def read(
        self,
        ctx: EngineContext,
        spatial: Envelope | None = None,
        temporal: Duration | None = None,
        use_metadata: bool = True,
        on_corrupt: str = "raise",
        offset: int = 0,
    ) -> tuple[RDD, LoadStats]:
        """A lazy RDD over the partitions that may contain matching data.

        ``offset`` skips the first ``offset`` partitions *before* pruning
        — the incremental-read primitive: appends only ever add blocks at
        the end, so "everything since the last run" is exactly
        ``partitions[offset:]``.  Skipped partitions do not count toward
        ``partitions_total``.

        ``use_metadata=False`` loads everything — the "native Spark" mode
        Figure 5 compares against.  The returned RDD still needs in-memory
        fine-grained filtering (step (3) of Figure 4); the Selector does
        that with per-partition R-trees.  A metadata-pruned read
        additionally pushes the query box down to the block reader:
        extent columns are mmapped, masked off disk, and only matching
        rows' payloads are unpickled — the coarse mask is a superset of
        the fine filter, so downstream results are unchanged.
        ``on_corrupt="quarantine"`` degrades gracefully on undecodable
        block files: the partition loads empty and
        ``LoadStats.partitions_quarantined`` counts it, instead of the
        default :class:`~repro.engine.errors.CorruptPartitionError`.
        """
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError("on_corrupt must be 'raise' or 'quarantine'")
        meta = self.cached_metadata()
        candidates = meta.partitions[offset:] if offset else meta.partitions
        if use_metadata:
            selected = [p for p in candidates if p.overlaps(spatial, temporal)]
        else:
            selected = list(candidates)
        stats = LoadStats(
            partitions_total=len(candidates),
            partitions_selected=len(selected),
        )
        query_box = None
        if use_metadata and (spatial is not None or temporal is not None):
            query_box = st_query_box(spatial, temporal)
        rdd = _DiskPartitionRDD(
            ctx,
            self.directory,
            selected,
            stats,
            codec=meta.codec,
            on_corrupt=on_corrupt,
            query_box=query_box,
        )
        return rdd, stats


def save_dataset(
    directory: str | Path,
    instances: Sequence[Instance],
    instance_type: str,
    partitioner: "STPartitioner | None" = None,
    num_partitions: int = 8,
    ctx: EngineContext | None = None,
    block_format: str = BLOCK_FORMAT,
) -> StDataset:
    """Convenience writer from a plain instance list.

    ``block_format`` accepts only ``"v2"``; any other value raises
    ``ValueError`` before a file is written.
    """
    _require_v2(block_format)
    own_ctx = ctx or EngineContext(default_parallelism=num_partitions)
    rdd = own_ctx.parallelize(instances, num_partitions)
    return StDataset.write_rdd(directory, rdd, instance_type, partitioner)


def load_dataset(
    ctx: EngineContext,
    directory: str | Path,
    spatial: Envelope | None = None,
    temporal: Duration | None = None,
    use_metadata: bool = True,
    on_corrupt: str = "raise",
) -> tuple[RDD, LoadStats]:
    """Convenience reader; see :meth:`StDataset.read`."""
    return StDataset(directory).read(ctx, spatial, temporal, use_metadata, on_corrupt)
