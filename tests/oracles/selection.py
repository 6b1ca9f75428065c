"""Reference selection: per-instance filter and per-instance routing."""

from __future__ import annotations

from repro.index.boxes import st_query_box
from repro.index.rtree import RTree


def partition_rtree(partition: list, capacity: int = 32) -> RTree:
    """A scalar 3-d R-tree over one partition's instance MBRs."""
    return RTree.build(((inst.st_box(), inst) for inst in partition), capacity=capacity)


def _exact(inst, spatial, temporal) -> bool:
    s = spatial if spatial is not None else inst.spatial_extent
    t = temporal if temporal is not None else inst.temporal_extent
    return inst.intersects(s, t)


def filter_partition(partition: list, spatial, temporal, index: bool = True) -> list:
    """Instances of ``partition`` in the ST range, in partition order.

    With ``index`` the candidates come from a scalar R-tree query,
    restored to the partition's own order; without it every instance is
    tested.  Either way the exact per-instance predicate decides.
    """
    if index and partition:
        box = st_query_box(spatial, temporal)
        candidates = partition_rtree(partition).query(box)
        positions = {id(inst): i for i, inst in enumerate(partition)}
        candidates.sort(key=lambda inst: positions[id(inst)])
    else:
        candidates = partition
    return [inst for inst in candidates if _exact(inst, spatial, temporal)]


def fan_out(instance, assign, assign_all) -> list:
    """(partition id, copy) pairs for one instance in duplicate mode.

    One primary copy for ``assign(instance)``, one tagged replica per
    additional overlapping partition.
    """
    primary = assign(instance)
    return [
        (pid, instance if pid == primary else instance.replica())
        for pid in assign_all(instance)
    ]


def partition(rdd, partitioner, duplicate=False, sample_fraction=0.1, seed=17):
    """``STPartitioner.partition`` with per-instance ``assign`` routing."""
    sample = [x for p in rdd.sample(sample_fraction, seed)._collect_partitions() for x in p]
    if not sample:
        sample = rdd.take(1000)
    partitioner.fit(sample)
    n = partitioner.num_partitions
    if not duplicate:
        return rdd.shuffle_by(n, partitioner.assign)
    assign = partitioner.assign
    assign_all = partitioner.assign_all
    routed = rdd.flat_map(lambda inst: fan_out(inst, assign, assign_all))
    return routed.shuffle_by(n, lambda pair: pair[0]).map(lambda pair: pair[1])


def select(rdd, spatial, temporal, index=True, partitioner=None, duplicate=False):
    """Reference ``Selector(...).select`` over an in-memory RDD."""
    selected = rdd.map_partitions(
        lambda part: filter_partition(part, spatial, temporal, index)
    )
    if partitioner is not None:
        selected = partition(selected, partitioner, duplicate)
    return selected
