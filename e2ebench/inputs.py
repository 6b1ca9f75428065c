"""Seeded input generation: events, trajectories, stream batches, ranges.

Everything here is a pure function of the seed and the sizes, built with
numpy's PCG64 generator, so the same seed always yields the same inputs.
Generation keeps plain numpy columns next to the program's instances:
the oracles read the columns, the program only ever sees instances.

Hotspot centres are fixed properties of each city, not of the seed, so
every seed draws from the same distribution and per-range selectivity
stays comparable across seeds; the seed moves the individual records and
the placement of every query range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DAY = 86_400.0
HOUR = 3_600.0

#: 2013-01-01T00:00:00Z, the start of the NYC-like event feed.
EVENT_START = 1_356_998_400.0
NYC_BBOX = (-74.05, 40.60, -73.75, 40.90)

#: 2013-07-01T00:00:00Z, the start of the Porto-like trajectory feed.
TRAJ_START = 1_372_636_800.0
PORTO_BBOX = (-8.70, 41.10, -8.50, 41.25)

#: (x fraction, y fraction, sigma fraction) of each city's hotspots.
_HOTSPOTS = (
    (0.35, 0.55, 0.05),
    (0.45, 0.68, 0.04),
    (0.58, 0.42, 0.06),
    (0.28, 0.30, 0.08),
    (0.72, 0.70, 0.07),
    (0.62, 0.22, 0.05),
)
#: Share of records drawn from the hotspots; the rest are uniform.
_HOTSPOT_SHARE = 0.6

#: Steps of the R3 low-discrepancy sequence: 1/g, 1/g^2, 1/g^3 for the
#: real root g of x^4 = x + 1.
_R3 = np.array([0.8191725133961645, 0.6710436067037893, 0.5497004779019703])

#: Relative activity per hour of day: a night trough and two peaks.
_HOUR_WEIGHTS = np.array(
    [3, 2, 1, 1, 1, 2, 4, 7, 9, 8, 7, 7, 8, 7, 7, 8, 9, 10, 10, 9, 8, 7, 5, 4],
    dtype=float,
)


@dataclass(frozen=True)
class Range:
    """One ST query range, closed on every side."""

    x0: float
    y0: float
    x1: float
    y1: float
    t0: float
    t1: float

    def bbox(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass
class EventColumns:
    """The generated events as columns; row ``i`` is event id ``i``."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class TrajColumns:
    """Every trajectory point as a row, tagged with its trajectory index."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    traj: np.ndarray
    n_trajs: int


def _positions(rng: np.random.Generator, n: int, bbox) -> tuple[np.ndarray, np.ndarray]:
    min_x, min_y, max_x, max_y = bbox
    w, h = max_x - min_x, max_y - min_y
    fx = rng.uniform(0.0, 1.0, n)
    fy = rng.uniform(0.0, 1.0, n)
    hot = rng.uniform(0.0, 1.0, n) < _HOTSPOT_SHARE
    spot = rng.integers(0, len(_HOTSPOTS), n)
    centres = np.array(_HOTSPOTS)
    gx = centres[spot, 0] + rng.normal(0.0, 1.0, n) * centres[spot, 2]
    gy = centres[spot, 1] + rng.normal(0.0, 1.0, n) * centres[spot, 2]
    fx = np.where(hot, gx, fx).clip(0.0, 1.0)
    fy = np.where(hot, gy, fy).clip(0.0, 1.0)
    return min_x + fx * w, min_y + fy * h


def _times(rng: np.random.Generator, n: int, start: float, days: int) -> np.ndarray:
    day = rng.integers(0, days, n)
    hour = rng.choice(24, size=n, p=_HOUR_WEIGHTS / _HOUR_WEIGHTS.sum())
    return start + day * DAY + hour * HOUR + rng.uniform(0.0, HOUR, n)


def event_columns(seed: int, n: int, days: int) -> EventColumns:
    """``n`` NYC-like pick-up/drop-off events over ``days`` days."""
    rng = np.random.default_rng([seed, 1])
    x, y = _positions(rng, n, NYC_BBOX)
    t = _times(rng, n, EVENT_START, days)
    kind = rng.integers(0, 2, n)
    return EventColumns(x, y, t, kind)


def to_events(cols: EventColumns, ids: np.ndarray | None = None) -> list:
    """Program instances for the given rows (all rows by default).

    ``data`` is the event id (its row in ``cols``), which is what the
    serve oracle compares answers by.
    """
    from repro.instances import Event

    kinds = ("pickup", "dropoff")
    rows = np.arange(len(cols)) if ids is None else ids
    return [
        Event.of_point(x, y, t, value=kinds[k], data=i)
        for i, x, y, t, k in zip(
            rows.tolist(),
            cols.x[rows].tolist(),
            cols.y[rows].tolist(),
            cols.t[rows].tolist(),
            cols.kind[rows].tolist(),
        )
    ]


def trajectories(seed: int, n: int, days: int) -> tuple[list, TrajColumns]:
    """``n`` Porto-like taxi trips: momentum random walks sampled every 15 s.

    Returns the program's ``Trajectory`` instances (``data`` is the trip
    index) and the same points as columns for the oracle.
    """
    from repro.instances import Trajectory

    rng = np.random.default_rng([seed, 2])
    ox, oy = _positions(rng, n, PORTO_BBOX)
    t0 = _times(rng, n, TRAJ_START, days)
    lengths = rng.integers(8, 61, n)
    total = int(lengths.sum())
    owner = np.repeat(np.arange(n), lengths)
    firsts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    step = np.arange(total) - np.repeat(firsts, lengths)
    turns = rng.normal(0.0, 0.35, total)
    turns[firsts] = 0.0
    # Heading drifts along each trip: a per-trip cumulative sum of turns.
    drift = np.cumsum(turns)
    heading = rng.uniform(0.0, 2.0 * math.pi, n)[owner] + drift - drift[firsts][owner]
    meters = 30.0 / 3.6 * 15.0 * np.maximum(0.1, rng.normal(1.0, 0.3, total))
    lat0 = oy[owner]
    dx = np.cos(heading) * meters / (111_320.0 * np.cos(np.radians(lat0)))
    dy = np.sin(heading) * meters / 110_540.0
    dx[firsts] = 0.0
    dy[firsts] = 0.0
    cx, cy = np.cumsum(dx), np.cumsum(dy)
    min_x, min_y, max_x, max_y = PORTO_BBOX
    x = (ox[owner] + cx - np.repeat(cx[firsts], lengths)).clip(min_x, max_x)
    y = (oy[owner] + cy - np.repeat(cy[firsts], lengths)).clip(min_y, max_y)
    t = t0[owner] + step * 15.0
    cols = TrajColumns(x, y, t, owner, n)
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    instances = []
    for i, (a, m) in enumerate(zip(firsts.tolist(), lengths.tolist())):
        points = list(zip(xs[a : a + m], ys[a : a + m], ts[a : a + m]))
        instances.append(Trajectory.of_points(points, data=i))
    return instances, cols


def ranges(
    seed: int,
    n: int,
    bbox,
    start: float,
    days: int,
    area: float,
    window_days: int,
    stream: int,
) -> list[Range]:
    """``n`` ranges covering ``area`` of the bbox and ``window_days`` days.

    Windows start on whole days, so each covers whole hourly slots.
    Successive ranges follow the R3 low-discrepancy sequence from a
    seeded starting point: any run of k ranges spreads over the city and
    the month about as evenly under every seed, so the mix of cheap and
    dear ranges in a run does not swing with the seed, while the seed
    still moves every range.  ``stream`` separates independent range
    sets drawn from one seed.
    """
    rng = np.random.default_rng([seed, 3, stream])
    min_x, min_y, max_x, max_y = bbox
    side = math.sqrt(area)
    w, h = (max_x - min_x) * side, (max_y - min_y) * side
    n_days = days - window_days + 1
    u = (rng.uniform(0.0, 1.0, 3) + np.outer(np.arange(n), _R3)) % 1.0
    out = []
    for fx, fy, fd in u.tolist():
        x0 = min_x + fx * (max_x - min_x - w)
        y0 = min_y + fy * (max_y - min_y - h)
        t0 = start + min(int(fd * n_days), n_days - 1) * DAY
        out.append(Range(x0, y0, x0 + w, y0 + h, t0, t0 + window_days * DAY))
    return out


def query_ranges(
    seed: int, n: int, bbox, start: float, days: int, side: float, hours: int, stream: int
) -> list[Range]:
    """``n`` serve queries: ``side`` of each bbox axis, ``hours`` long.

    Placed like :func:`ranges`, by the R3 sequence from a seeded start,
    so a small pool of them covers the city about as evenly under every
    seed.
    """
    rng = np.random.default_rng([seed, 4, stream])
    min_x, min_y, max_x, max_y = bbox
    w, h = (max_x - min_x) * side, (max_y - min_y) * side
    n_hours = days * 24 - hours + 1
    u = (rng.uniform(0.0, 1.0, 3) + np.outer(np.arange(n), _R3)) % 1.0
    x0 = min_x + u[:, 0] * (max_x - min_x - w)
    y0 = min_y + u[:, 1] * (max_y - min_y - h)
    t0 = start + np.minimum((u[:, 2] * n_hours).astype(np.int64), n_hours - 1) * HOUR
    return [
        Range(a, b, a + w, b + h, c, c + hours * HOUR)
        for a, b, c in zip(x0.tolist(), y0.tolist(), t0.tolist())
    ]


def stream_batches(
    seed: int, n_batches: int, per_batch: int, late_share: float
) -> list[np.ndarray]:
    """Row ids of ``n_batches`` daily micro-batches over one event table.

    The table (see :func:`stream_columns`) holds ``per_batch`` on-time
    events for each day; batch ``k`` carries day ``k``'s events plus,
    from the second batch on, ``late_share * per_batch`` late records
    from day ``k - 1``, which sit behind the persisted watermark when
    they arrive.  Every row is ingested at most once.
    """
    rng = np.random.default_rng([seed, 5])
    n = n_batches * per_batch
    batches = []
    for k in range(n_batches):
        own = np.arange(k * per_batch, (k + 1) * per_batch)
        if k:
            late = rng.choice(per_batch, int(per_batch * late_share), replace=False)
            own = np.concatenate((own, n + (k - 1) * per_batch + np.sort(late)))
        batches.append(own)
    return batches


def stream_columns(seed: int, n_batches: int, per_batch: int) -> EventColumns:
    """The event table behind :func:`stream_batches`.

    Rows ``[k * per_batch, (k + 1) * per_batch)`` are day ``k``'s on-time
    events.  Rows from ``n_batches * per_batch`` on are late copies:
    late row ``n_batches * per_batch + j`` re-draws position and time of
    day independently, on the day of on-time row ``j``.
    """
    rng = np.random.default_rng([seed, 6])
    n = n_batches * per_batch
    x, y = _positions(rng, 2 * n, NYC_BBOX)
    day = np.repeat(np.arange(n_batches), per_batch)
    day = np.concatenate((day, day))
    hour = rng.choice(24, size=2 * n, p=_HOUR_WEIGHTS / _HOUR_WEIGHTS.sum())
    t = EVENT_START + day * DAY + hour * HOUR + rng.uniform(0.0, HOUR, 2 * n)
    kind = rng.integers(0, 2, 2 * n)
    return EventColumns(x, y, t, kind)
