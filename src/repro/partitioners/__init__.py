"""ST-aware data partitioners (paper Sections 3.1 and 4.1).

A partitioner learns partition boundaries from a data sample, then assigns
every instance to one partition (or several, when boundary duplication is
required for correctness — Algorithm 1's ``duplicate`` flag).
:meth:`STPartitioner.partition` evaluates its input once, fits on a
sample of it and routes every record on the driver through batched
``assign_batch`` calls.

Provided partitioners:

* :class:`HashPartitioner` — record-level randomness, pure load balance,
  no ST locality (for applications that don't need proximity);
* :class:`STRPartitioner` — classic 2-d sort-tile-recursive, spatial
  locality only;
* :class:`QuadTreePartitioner` — quadtree leaves as partitions;
* :class:`TBalancePartitioner` — temporal percentile slicing;
* :class:`TSTRPartitioner` — the paper's novel temporal-then-spatial STR
  (Algorithm 1), partitioning time into equal-count slices first and
  applying 2-d STR within each slice;
* :class:`KDBPartitioner` — alternating-dimension median splits, standing
  in for GeoSpark's K-D-B partitioning in the baselines.
"""

from repro.partitioners.base import STPartitioner
from repro.partitioners.hash import HashPartitioner
from repro.partitioners.str2d import STRPartitioner
from repro.partitioners.tstr import TSTRPartitioner
from repro.partitioners.quadtree import QuadTreePartitioner
from repro.partitioners.tbalance import TBalancePartitioner
from repro.partitioners.kdb import KDBPartitioner
from repro.partitioners.keyed import KeyedSTRPartitioner
from repro.partitioners.metrics import load_cv, load_ov, evaluate_partitioning

__all__ = [
    "STPartitioner",
    "HashPartitioner",
    "STRPartitioner",
    "TSTRPartitioner",
    "QuadTreePartitioner",
    "TBalancePartitioner",
    "KDBPartitioner",
    "KeyedSTRPartitioner",
    "load_cv",
    "load_ov",
    "evaluate_partitioning",
]
