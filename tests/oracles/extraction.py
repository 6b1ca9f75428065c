"""Reference extraction: per-cell ``local``/``merge``/``finalize``."""

from __future__ import annotations


def extract(extractor, rdd):
    """The extracted collective instance, with no columnar kernels.

    Each partition folds its instances' ``local`` partials left to right,
    then ``tree_reduce`` pairs the partials exactly as production does, so
    results compare with plain ``==``.
    """
    local = extractor.local
    merge = extractor.merge

    def premerge(instances: list) -> list:
        acc = None
        for inst in instances:
            partial = inst.map_value_plus(local)
            acc = partial if acc is None else acc.merge_with(partial, merge)
        return [] if acc is None else [acc]

    merged = rdd.map_partitions(premerge).tree_reduce(
        lambda a, b: a.merge_with(b, merge), depth=extractor.reduce_depth
    )
    return merged.map_value(extractor.finalize)
