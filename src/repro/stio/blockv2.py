"""The stio v2 block format: mmap-able columnar extents + row payloads.

A whole-partition pickle would make even a metadata-pruned load pay a
full deserialization before the columnar BoxTable could be built.  A v2
block splits the partition into two regions so the selection hot path
never touches bytes it does not need:

* **extent columns** — the six structure-of-arrays BoxTable columns
  (``xmin/ymin/tmin/xmax/ymax/tmax`` as float64) plus the ``box_exact``
  mask, laid out so a reader can ``mmap`` them directly and run the
  vectorized ``intersects_box`` kernel straight off disk;
* **payload region** — each record pickled *individually*, with an
  ``int64`` offset index, so only the rows surviving the extent mask are
  ever unpickled.

Layout (all little-endian, section offsets recorded in the header)::

    [ header 64B ][ 6 × n float64 columns ][ n × u8 box_exact ]
    [ (n+1) × i64 payload offsets ][ concatenated row pickles ]

The ``filterable`` header flag is cleared when any record refuses
``st_bounds()`` (pickle-codec checkpoint payloads): such blocks decode
whole — pushdown is an optimization, never a semantics change.  :class:`V2Block` pickles as its *path* and re-opens (re-mmaps)
on the other side, so shipping a block handle to a process worker moves a
filename, not megabytes; ndarray views taken from it ride pickle
protocol 5's out-of-band buffers when they are captured by stage
closures.
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path
from typing import Sequence

from repro._deps import require_numpy
from repro.index.boxes import STBox
from repro.stio.formats import decode_record, encode_record

MAGIC = b"STB2"
BLOCK_VERSION = 1
HEADER_SIZE = 64
FLAG_FILTERABLE = 1

#: magic, version, flags, n_rows, columns_off, exact_off, index_off, payload_off
_HEADER = struct.Struct("<4sHHQQQQQ")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _row_extent(record) -> tuple[float, float, float, float, float, float, bool]:
    """One record's ``(xmin, ymin, tmin, xmax, ymax, tmax, box_exact)``."""
    from repro.geometry.envelope import Envelope
    from repro.geometry.point import Point

    bounds = record.st_bounds()
    entries = record.entries
    exact = len(entries) == 1 and isinstance(entries[0].spatial, (Point, Envelope))
    return (*bounds, exact)


def encode_v2_block(records: Sequence, codec: str) -> bytes:
    """Serialize one partition into the v2 on-disk layout."""
    np = require_numpy("stio v2 block format")
    n = len(records)
    xmin = np.zeros(n, dtype=np.float64)
    ymin = np.zeros(n, dtype=np.float64)
    tmin = np.zeros(n, dtype=np.float64)
    xmax = np.zeros(n, dtype=np.float64)
    ymax = np.zeros(n, dtype=np.float64)
    tmax = np.zeros(n, dtype=np.float64)
    box_exact = np.zeros(n, dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    payloads = []
    filterable = True
    for i, record in enumerate(records):
        row = encode_record(record) if codec == "tuple" else record
        data = pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)
        payloads.append(data)
        offsets[i + 1] = offsets[i] + len(data)
        if filterable:
            try:
                (
                    xmin[i], ymin[i], tmin[i],
                    xmax[i], ymax[i], tmax[i],
                    box_exact[i],
                ) = _row_extent(record)
            except Exception:
                # A payload without an ST extent (partial collective
                # checkpoint state) poisons pushdown for the whole block:
                # a zeroed row would be wrongly masked out.
                filterable = False
    if not filterable:
        for column in (xmin, ymin, tmin, xmax, ymax, tmax):
            column.fill(0.0)
        box_exact.fill(0)

    columns_off = HEADER_SIZE
    exact_off = columns_off + 6 * n * 8
    index_off = _align8(exact_off + n)
    payload_off = index_off + (n + 1) * 8
    header = _HEADER.pack(
        MAGIC,
        BLOCK_VERSION,
        FLAG_FILTERABLE if filterable else 0,
        n,
        columns_off,
        exact_off,
        index_off,
        payload_off,
    )
    parts = [header, b"\x00" * (HEADER_SIZE - len(header))]
    for column in (xmin, ymin, tmin, xmax, ymax, tmax):
        parts.append(column.tobytes())
    parts.append(box_exact.tobytes())
    parts.append(b"\x00" * (index_off - exact_off - n))
    parts.append(offsets.tobytes())
    parts.extend(payloads)
    return b"".join(parts)


class V2Block:
    """A zero-copy read handle over one v2 block file.

    The whole file is mapped once (``mmap=True``, the default) and every
    column is an 8-aligned ndarray view into that single map — opening a
    block reads 64 header bytes and touches nothing else until a kernel
    or a row decode faults the pages it actually needs.  ``mmap=False``
    reads the file into memory instead (used for in-memory round-trip
    checks).  Pickling a block ships only its path; the receiving process
    re-opens (re-maps) it locally.
    """

    __slots__ = (
        "path", "n", "filterable",
        "xmin", "ymin", "tmin", "xmax", "ymax", "tmax",
        "box_exact", "_buf", "_offsets", "_payload_off",
    )

    def __init__(self, path: str | Path, mmap: bool = True):
        np = require_numpy("stio v2 block format")
        self.path = Path(path)
        with open(self.path, "rb") as f:
            raw_header = f.read(HEADER_SIZE)
        if len(raw_header) < _HEADER.size:
            raise ValueError(f"{self.path.name}: truncated v2 block header")
        magic, version, flags, n, columns_off, exact_off, index_off, payload_off = (
            _HEADER.unpack(raw_header[: _HEADER.size])
        )
        if magic != MAGIC:
            raise ValueError(f"{self.path.name}: not a v2 block (bad magic {magic!r})")
        if version > BLOCK_VERSION:
            raise ValueError(
                f"{self.path.name}: v2 block version {version} is newer than "
                f"supported ({BLOCK_VERSION})"
            )
        if mmap:
            buf = np.memmap(self.path, dtype=np.uint8, mode="r")
        else:
            buf = np.frombuffer(self.path.read_bytes(), dtype=np.uint8)
        if payload_off > len(buf):
            raise ValueError(f"{self.path.name}: truncated v2 block body")
        self.n = int(n)
        self.filterable = bool(flags & FLAG_FILTERABLE)
        self._buf = buf

        # type=np.ndarray drops the memmap subclass from each view (same
        # mapped memory, zero copy): plain ndarrays are what numpy ships
        # through pickle protocol 5's out-of-band buffers when a stage
        # closure captures a BoxTable built over these columns — a memmap
        # subclass would serialize in-band instead.
        def f64(offset: int):
            return buf[offset : offset + self.n * 8].view(
                dtype=np.float64, type=np.ndarray
            )

        self.xmin = f64(columns_off)
        self.ymin = f64(columns_off + self.n * 8)
        self.tmin = f64(columns_off + 2 * self.n * 8)
        self.xmax = f64(columns_off + 3 * self.n * 8)
        self.ymax = f64(columns_off + 4 * self.n * 8)
        self.tmax = f64(columns_off + 5 * self.n * 8)
        self.box_exact = buf[exact_off : exact_off + self.n].view(
            dtype=np.bool_, type=np.ndarray
        )
        self._offsets = buf[index_off : index_off + (self.n + 1) * 8].view(
            dtype=np.int64, type=np.ndarray
        )
        self._payload_off = int(payload_off)
        if self.n and (
            len(self._offsets) != self.n + 1
            or self._payload_off + int(self._offsets[-1]) > len(buf)
        ):
            raise ValueError(f"{self.path.name}: truncated v2 block payload region")

    def __len__(self) -> int:
        return self.n

    def __reduce__(self):
        # Zero-copy shipping: only the path travels; the worker re-mmaps.
        return (V2Block, (str(self.path),))

    # -- extent kernels (straight off the mmap) ------------------------------------

    def intersects_box(self, box: STBox):
        """Vectorized closed-interval ST-range mask, one bool per row."""
        (qx0, qy0, qt0), (qx1, qy1, qt1) = box.mins, box.maxs
        return (
            (self.xmin <= qx1)
            & (self.xmax >= qx0)
            & (self.ymin <= qy1)
            & (self.ymax >= qy0)
            & (self.tmin <= qt1)
            & (self.tmax >= qt0)
        )

    def candidate_rows(self, box: STBox):
        """Sorted row indices whose extents intersect ``box``."""
        np = require_numpy("stio v2 block format")
        return np.nonzero(self.intersects_box(box))[0]

    def boxtable(self, records: list):
        """A :class:`~repro.columnar.boxtable.BoxTable` over the mmapped
        columns, with ``records`` (the fully decoded partition) as the
        row indirection — ``None`` when the block is not filterable."""
        if not self.filterable:
            return None
        from repro.columnar.boxtable import BoxTable

        return BoxTable(
            self.xmin, self.ymin, self.tmin,
            self.xmax, self.ymax, self.tmax,
            records, self.box_exact,
        )

    # -- payload decode -------------------------------------------------------------

    def decode_rows(self, rows, codec: str) -> list:
        """Unpickle only the given rows (the pruned-load payload path)."""
        np = require_numpy("stio v2 block format")
        rows = np.asarray(rows, dtype=np.int64)
        # One gather for all offsets and one plain memoryview of the map:
        # slicing the memmap per row would run numpy's subclass machinery
        # for every record.
        starts = (self._offsets[rows] + self._payload_off).tolist()
        ends = (self._offsets[rows + 1] + self._payload_off).tolist()
        view = memoryview(self._buf)
        values = [pickle.loads(view[s:e]) for s, e in zip(starts, ends)]
        return [decode_record(v) for v in values] if codec == "tuple" else values

    def decode_all(self, codec: str) -> list:
        """Unpickle every row (full scan / residency load)."""
        return self.decode_rows(range(self.n), codec)

    # -- byte accounting (LoadStats currency) ---------------------------------------

    @property
    def index_nbytes(self) -> int:
        """Bytes before the payload region: header + columns + offsets."""
        return self._payload_off

    def payload_nbytes(self, rows=None) -> int:
        """Payload bytes of ``rows`` (all rows when ``None``)."""
        if self.n == 0:
            return 0
        if rows is None:
            return int(self._offsets[-1])
        starts = self._offsets[:-1]
        ends = self._offsets[1:]
        return int((ends[rows] - starts[rows]).sum())


def open_v2_block(path: str | Path, mmap: bool = True) -> V2Block:
    """Open one v2 block file for zero-copy reading."""
    return V2Block(path, mmap=mmap)


def scan_v2_block(path: str | Path, query_box: STBox | None) -> tuple[int, int]:
    """``(records, bytes)`` a pushdown read of ``path`` would load.

    Runs the extent mask off the mmap without decoding any payload — this
    is how the disk RDD accounts a read *before* shipping itself to
    process workers, where driver-side stats are unreachable; the numbers
    match what the worker-side compute observes, on every backend.
    """
    block = open_v2_block(path)
    if query_box is None or not block.filterable:
        return block.n, block.index_nbytes + block.payload_nbytes()
    rows = block.candidate_rows(query_box)
    return len(rows), block.index_nbytes + block.payload_nbytes(rows)
