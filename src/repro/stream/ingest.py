"""Micro-batch ingestion: incremental T-STR maintenance + the watermark.

ST4ML's batch story ends at :meth:`~repro.stio.dataset.StDataset.append`
— Section 4.1's "periodically index the new group of data and merge the
metadata file".  This module is the streaming front door built on it:

* :func:`ingest_batch` indexes one micro-batch *by itself* (T-STR fit on
  the batch — new temporal slices get new cells; resident blocks are
  never touched), appends the resulting blocks, and advances the
  persisted **watermark** in the same atomic metadata commit that
  publishes the new partitions and generation;
* when the block count crosses an explicit ``rebalance_threshold``,
  :func:`compact_dataset` rewrites the whole dataset under one fresh
  partition fit — the safety valve that keeps a long-lived feed from
  accumulating thousands of sliver blocks.

Crash safety is write-ordering, not locking: block files land first,
metadata last, and :meth:`~repro.stio.metadata.DatasetMetadata.save` is
an atomic replace — a crashed ingest leaves at worst orphan blocks the
metadata never names (invisible to every reader, reclaimed by the next
compaction's orphan sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.obs.tracer import current_tracer
from repro.stio.metadata import METADATA_FILENAME

if TYPE_CHECKING:  # pragma: no cover
    from repro.instances.base import Instance
    from repro.partitioners.base import STPartitioner
    from repro.stio.dataset import StDataset


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`ingest_batch` call did, for callers and tests.

    ``watermark_lag`` is event-time staleness: how far the batch's oldest
    record sits behind the post-ingest watermark (0.0 for a batch of
    strictly new data).  ``late_records`` counts records whose end time
    is at or below the *previous* watermark — data that arrived after
    the mark already passed it.  Late data is ingested, never dropped;
    the counters exist so an operator can see it happening.
    """

    records: int
    blocks_added: int
    generation: int
    watermark: float | None
    previous_watermark: float | None
    late_records: int
    watermark_lag: float
    compacted: bool
    blocks_compacted: int

    @property
    def advanced(self) -> bool:
        """Did this batch move the watermark forward?"""
        if self.watermark is None:
            return False
        if self.previous_watermark is None:
            return True
        return self.watermark > self.previous_watermark


def _batch_partitions(
    batch: Sequence["Instance"],
    partitioner: "STPartitioner | None",
) -> tuple[list[list], list | None]:
    """Split one micro-batch into its own blocks, driver-side.

    With a partitioner the fit runs on the batch alone — this is the
    incremental T-STR maintenance: the batch's temporal extent gets its
    own fresh slices/cells, and nothing resident moves.  Without one the
    batch becomes a single block.  Empty cells are dropped (a feed's
    batch rarely tiles its fit grid fully; zero-count blocks would only
    be pruned on every read anyway).
    """
    if partitioner is None:
        return [list(batch)], None
    partitioner.fit(list(batch))
    assignments = partitioner.assign_batch(list(batch))
    cells: list[list] = [[] for _ in range(partitioner.num_partitions)]
    for inst, pid in zip(batch, assignments):
        cells[pid].append(inst)
    boundaries = partitioner.boundaries()
    kept = [(c, b) for c, b in zip(cells, boundaries) if c]
    if not kept:
        return [list(batch)], None
    return [c for c, _ in kept], [b for _, b in kept]


def ingest_batch(
    dataset: "StDataset",
    batch: Sequence["Instance"],
    partitioner: "STPartitioner | None" = None,
    rebalance_threshold: int | None = None,
    instance_type: str | None = None,
) -> IngestReport:
    """Append one micro-batch and advance the persisted watermark.

    The first call on a fresh directory creates the dataset
    (``instance_type`` is required then).  Subsequent calls inherit it
    from the metadata.
    ``rebalance_threshold``, when given, triggers
    :func:`compact_dataset` once the post-ingest block count exceeds it.

    Tracer counters (when a tracer is installed): ``ingest_batches``,
    ``ingest_records``, ``ingest_late_records``, ``watermark_lag``
    (cumulative event-time lag, seconds), and ``blocks_compacted``.
    """
    from repro.stio.dataset import StDataset

    exists = (dataset.directory / METADATA_FILENAME).exists()
    previous_watermark = dataset.cached_metadata().watermark if exists else None
    if not batch:
        meta = dataset.cached_metadata() if exists else None
        return IngestReport(
            records=0,
            blocks_added=0,
            generation=meta.generation if meta else 0,
            watermark=previous_watermark,
            previous_watermark=previous_watermark,
            late_records=0,
            watermark_lag=0.0,
            compacted=False,
            blocks_compacted=0,
        )

    ends = [inst.temporal_extent.end for inst in batch]
    batch_high = max(ends)
    batch_low = min(ends)
    late = (
        sum(1 for e in ends if e <= previous_watermark)
        if previous_watermark is not None
        else 0
    )
    watermark = (
        batch_high
        if previous_watermark is None
        else max(previous_watermark, batch_high)
    )
    lag = max(0.0, watermark - batch_low)

    partitions, boundaries = _batch_partitions(batch, partitioner)
    if exists:
        dataset.append(partitions, boundaries, watermark=watermark)
    else:
        if instance_type is None:
            raise ValueError(
                "first ingest into a fresh dataset needs instance_type"
            )
        StDataset.write(
            dataset.directory,
            partitions,
            instance_type,
            boundaries=boundaries,
            watermark=watermark,
        )
    meta = dataset.cached_metadata()

    compacted_blocks = 0
    if (
        rebalance_threshold is not None
        and len(meta.partitions) > rebalance_threshold
    ):
        compacted_blocks = compact_dataset(dataset, partitioner=partitioner)
        meta = dataset.cached_metadata()

    tracer = current_tracer()
    if tracer is not None:
        tracer.counter("ingest_batches", 1)
        tracer.counter("ingest_records", len(batch))
        if late:
            tracer.counter("ingest_late_records", late)
        tracer.counter("watermark_lag", lag)
        # blocks_compacted is counted inside compact_dataset itself.

    return IngestReport(
        records=len(batch),
        blocks_added=len(partitions),
        generation=meta.generation,
        watermark=meta.watermark,
        previous_watermark=previous_watermark,
        late_records=late,
        watermark_lag=lag,
        compacted=compacted_blocks > 0,
        blocks_compacted=compacted_blocks,
    )


def compact_dataset(
    dataset: "StDataset",
    partitioner: "STPartitioner | None" = None,
) -> int:
    """Rewrite the whole dataset under one fresh partition fit.

    The rebalance arm of ingestion: reads every block, refits the
    partitioner on the *full* resident population (a default
    ``TSTRPartitioner(≈√blocks, 1)`` when none is given), and rewrites
    in place.  Codec and — crucially — the watermark are
    preserved; the generation bumps (an in-place rewrite is an edit) and
    orphan blocks from the old layout are removed.  Returns the number
    of blocks the rewrite replaced.
    """
    from repro.partitioners.tstr import TSTRPartitioner
    from repro.stio.dataset import StDataset

    meta = dataset.metadata()
    replaced = len(meta.partitions)
    records: list = []
    for part in meta.partitions:
        records.extend(dataset.read_block(part, codec=meta.codec))
    if not records:
        return 0
    if partitioner is None:
        partitioner = TSTRPartitioner(max(1, math.isqrt(replaced)), 1)
    partitions, boundaries = _batch_partitions(records, partitioner)
    StDataset.write(
        dataset.directory,
        partitions,
        meta.instance_type,
        boundaries=boundaries,
        codec=meta.codec,
        watermark=meta.watermark,
    )
    tracer = current_tracer()
    if tracer is not None:
        tracer.counter("blocks_compacted", replaced)
    return replaced
