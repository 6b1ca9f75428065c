"""Columnar kernels: the pipeline's hot loops as structure-of-arrays numpy.

Selection, routing, allocation and extraction run as numpy kernels over a
per-partition :class:`BoxTable` (six float64 extent columns plus a
row→instance indirection):

* :meth:`BoxTable.intersects_box` — vectorized closed-interval ST-range
  predicate (the selection filter without an index);
* :class:`PackedRTree` — STR bulk-load packed into per-level MBR arrays,
  queried level-at-a-time (the selection filter with an index, and the
  irregular-structure allocation path);
* batched partition-id assignment (``Partitioner.assign_batch``), one
  call per partition in ``STPartitioner.partition``;
* an analytic row→cell range kernel for regular structures
  (``Grid.candidate_ranges_batch``);
* extraction aggregation (:mod:`repro.columnar.aggregate`) — per-partition
  :class:`CellTable` partials built with scatter-add kernels and an
  :class:`AggSpec` per extractor, merged through ``RDD.tree_reduce``.

These are the only production paths; the per-instance loops they
replaced live on as the test oracle the parity suites compare against.
Exact geometry tests (LineString/Polygon containment, trajectory cell
matching) run per instance — the kernels only shrink the candidate set
they run on.
"""

from __future__ import annotations

from repro.columnar.aggregate import (
    AggSpec,
    CellTable,
    CountSpec,
    FieldMeanSpec,
    PortionSpeedSpec,
    TransitSpec,
    WholeTrajSpeedSpec,
)
from repro.columnar.boxtable import BoxTable, intersects_box
from repro.columnar.cache import (
    PartitionIndexCache,
    configure_selection_cache,
    invalidate_partition_indexes,
    partition_boxtable,
    partition_packed_tree,
    seed_partition_boxtable,
    selection_cache,
)
from repro.columnar.packed_rtree import PackedRTree, packed_tree_from_boxes


def selection_index(partition: list, with_tree: bool, capacity: int = 32):
    """The partition's cached columnar selection index.

    Returns ``(table, tree, was_cached)``; ``tree`` is ``None`` when
    ``with_tree`` is false (plain BoxTable scan selection).
    """
    if with_tree:
        return partition_packed_tree(partition, capacity=capacity)
    table, hit = partition_boxtable(partition)
    return table, None, hit


__all__ = [
    "AggSpec",
    "BoxTable",
    "CellTable",
    "CountSpec",
    "FieldMeanSpec",
    "PackedRTree",
    "PartitionIndexCache",
    "PortionSpeedSpec",
    "TransitSpec",
    "WholeTrajSpeedSpec",
    "configure_selection_cache",
    "intersects_box",
    "invalidate_partition_indexes",
    "packed_tree_from_boxes",
    "partition_boxtable",
    "partition_packed_tree",
    "seed_partition_boxtable",
    "selection_cache",
    "selection_index",
]
