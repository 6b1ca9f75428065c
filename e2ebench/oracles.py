"""Brute-force answers computed from the generated columns alone.

Nothing here imports the program: each oracle re-derives what a correct
result must be with a numpy scan over the inputs the benchmark generated,
so a defect in selection, conversion or extraction cannot hide in both
the answer and its check.  Every range is closed on all sides, matching
the selection predicate of the paper (Section 3.1).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from inputs import EventColumns, Range, TrajColumns

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _in_box(x: np.ndarray, y: np.ndarray, t: np.ndarray, r: Range) -> np.ndarray:
    return (x >= r.x0) & (x <= r.x1) & (y >= r.y0) & (y <= r.y1) & (t >= r.t0) & (t <= r.t1)


def slot_counts(t: np.ndarray, t0: float, t1: float, slot: float) -> list[int]:
    """Records per closed slot ``[t0 + k*slot, t0 + (k+1)*slot]``.

    A record exactly on an inner slot edge belongs to both slots, as it
    does under closed-interval allocation.
    """
    n = int(round((t1 - t0) / slot))
    t = t[(t >= t0) & (t <= t1)]
    offset = (t - t0) / slot
    idx = np.minimum(np.floor(offset).astype(np.int64), n - 1)
    counts = np.bincount(idx, minlength=n)
    edge = (offset == np.floor(offset)) & (offset > 0) & (offset < n)
    counts += np.bincount(np.floor(offset[edge]).astype(np.int64) - 1, minlength=n)
    return counts.tolist()


def flow(cols: EventColumns, rows: np.ndarray | None, r: Range, slot: float) -> list[int]:
    """Hourly (``slot``-second) event counts inside ``r`` over ``rows``."""
    x, y, t = cols.x, cols.y, cols.t
    if rows is not None:
        x, y, t = x[rows], y[rows], t[rows]
    mask = _in_box(x, y, t, r)
    return slot_counts(t[mask], r.t0, r.t1, slot)


def event_ids(cols: EventColumns, r: Range) -> np.ndarray:
    """Sorted ids of the events inside ``r``."""
    return np.flatnonzero(_in_box(cols.x, cols.y, cols.t, r))


def trajs_selected(cols: TrajColumns, r: Range) -> int:
    """Trajectories with at least one point inside ``r``."""
    mask = _in_box(cols.x, cols.y, cols.t, r)
    return int(np.unique(cols.traj[mask]).size)


def answer_ids(records: list) -> np.ndarray:
    """Sorted event ids of a serve answer (``data``, each record's last field).

    A compact array, so a run's thousands of answers keep few objects alive.
    """
    return np.sort(np.fromiter((rec[-1] for rec in records), dtype=np.int64, count=len(records)))


def digest(values: list) -> str:
    """Exact digest of a list of per-range feature lists (bit-level floats)."""
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()


def recorded_digest(workload: str, seed: int, scale: float) -> str | None:
    """The digest recorded for this workload, seed and scale, if any."""
    if not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text()).get(workload)
    if entry and entry["seed"] == seed and entry["scale"] == scale:
        return entry["digest"]
    return None
