"""On-disk storage with partition-level ST metadata (paper Section 4.1).

The Scala original persists T-STR-partitioned data as Parquet files in
HDFS and keeps a metadata file of per-partition ST boundaries on the
master; selection then reads only the partitions whose boundary overlaps
the query.  This package reproduces those mechanics on a local
filesystem:

* :class:`StDataset` — a directory of v2 block files
  (:mod:`repro.stio.blockv2`) plus a ``metadata.json`` sidecar recording
  each partition's record count and ST MBR;
* :func:`save_dataset` / :func:`load_dataset` — the write / pruned-read
  pair, with I/O counters (partitions read, records deserialized) that
  back the Figure 5 benchmarks;
* :mod:`repro.stio.formats` — record-level codecs between instances and
  plain tuples (the "ST4ML data standard" of the preprocessing step), plus
  CSV helpers including the ``ReadRaster`` structure reader of Section 3.4.
"""

from repro.stio.blockv2 import V2Block, encode_v2_block, open_v2_block, scan_v2_block
from repro.stio.metadata import DatasetMetadata, LegacyLayoutError, PartitionMeta
from repro.stio.dataset import NonFiniteRecordError, StDataset, load_dataset, save_dataset
from repro.stio.formats import (
    decode_record,
    encode_record,
    read_raster_csv,
    write_raster_csv,
)

__all__ = [
    "DatasetMetadata",
    "LegacyLayoutError",
    "NonFiniteRecordError",
    "PartitionMeta",
    "StDataset",
    "save_dataset",
    "load_dataset",
    "encode_record",
    "decode_record",
    "read_raster_csv",
    "write_raster_csv",
    "V2Block",
    "encode_v2_block",
    "open_v2_block",
    "scan_v2_block",
]
