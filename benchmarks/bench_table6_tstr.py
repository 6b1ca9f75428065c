"""Table 6 — T-STR vs 2-d STR: data loading and companion extraction.

Paper (unit: minutes):

=========  ============  ===========  ================  ===============
method     load (event)  load (traj)  companion (event) companion (traj)
=========  ============  ===========  ================  ===============
2-d STR        5.53          2.36          57.52            71.57
T-STR          0.98          0.91          19.35             8.92
=========  ============  ===========  ================  ===============

Shapes: T-STR indexes load several times faster (temporal pruning works),
and ST-aware partitions make companion extraction markedly cheaper
(fewer inner-partition comparisons).

Layout quality is measured in blocks and bytes read: the v2 block reader
decodes only rows whose extents intersect the query, so the records it
loads are the same under either partitioning (reported, not asserted),
while T-STR's temporal pruning shows up as fewer blocks opened and fewer
index + payload bytes read.
"""

from __future__ import annotations

from benchmarks.conftest import Stopwatch, fmt, fresh_ctx, print_table
from repro.core import Selector
from repro.core.extractors import EventCompanionExtractor, TrajCompanionExtractor
from repro.datasets import NYC_BBOX, PORTO_BBOX
from repro.datasets.common import EPOCH_2013
from repro.datasets.porto import PORTO_START
from repro.partitioners import STRPartitioner, TSTRPartitioner
from repro.stio import save_dataset
from repro.temporal import Duration

N_SELECTIONS = 10
GT = GS = 6


def build_indexes(tmp_root, events, trajectories):
    """Persist both datasets under both partitioners."""
    ctx = fresh_ctx()
    layouts = {}
    for method, factory in (
        ("2d-str", lambda: STRPartitioner(GT * GS)),
        ("t-str", lambda: TSTRPartitioner(GT, GS)),
    ):
        for name, data, kind in (
            ("event", events, "event"),
            ("traj", trajectories, "trajectory"),
        ):
            directory = tmp_root / f"{name}_{method}"
            save_dataset(directory, data, kind, partitioner=factory(), ctx=ctx)
            layouts[(method, name)] = directory
    return layouts


def random_queries(bbox, t0, n, seed=7, s_ratio=0.6, t_ratio=0.08, days=30):
    """Spatially broad, temporally narrow queries — the weekly-scale window
    over a city-wide area the paper's Section 4.1 example motivates, where
    spatial-only partitioning "performs ineffective temporal filtering"."""
    from repro.workloads import random_queries as make

    return [
        q.as_tuple()
        for q in make(bbox, t0, n, seed=seed, s_ratio=s_ratio, t_ratio=t_ratio, days=days)
    ]


def run_selections(directory, queries):
    """Total ``(records_loaded, partitions_read, bytes_read)`` over ``queries``."""
    records = blocks = nbytes = 0
    for spatial, temporal in queries:
        ctx = fresh_ctx()
        selector = Selector(spatial, temporal)
        selector.select(ctx, directory).count()
        stats = selector.last_load_stats
        records += stats.records_loaded
        blocks += stats.partitions_read
        nbytes += stats.bytes_read
    return records, blocks, nbytes


def run_companions(directory, which: str, bbox, t0):
    ctx = fresh_ctx()
    selector = Selector(
        bbox.to_envelope(), Duration(t0, t0 + 86_400.0 * 30)
    )
    rdd = selector.select(ctx, directory)
    if which == "event":
        extractor = EventCompanionExtractor(1_000.0, 900.0)
    else:
        extractor = TrajCompanionExtractor(1_000.0, 900.0)
    return extractor.extract(rdd).count()


def test_table6_report(benchmark, bench_events, bench_trajectories, tmp_path):
    events = bench_events[:8_000]
    trajectories = bench_trajectories[:500]

    def full_run():
        layouts = build_indexes(tmp_path, events, trajectories)
        event_queries = random_queries(NYC_BBOX, EPOCH_2013, N_SELECTIONS)
        traj_queries = random_queries(PORTO_BBOX, PORTO_START, N_SELECTIONS)
        rows = []
        timings = {}
        for method in ("2d-str", "t-str"):
            watch = Stopwatch()
            load_ev = run_selections(layouts[(method, "event")], event_queries)
            t_load_ev = watch.lap()
            load_tr = run_selections(layouts[(method, "traj")], traj_queries)
            t_load_tr = watch.lap()
            pairs_ev = run_companions(layouts[(method, "event")], "event", NYC_BBOX, EPOCH_2013)
            t_comp_ev = watch.lap()
            pairs_tr = run_companions(layouts[(method, "traj")], "traj", PORTO_BBOX, PORTO_START)
            t_comp_tr = watch.lap()
            timings[method] = (t_load_ev, t_load_tr, t_comp_ev, t_comp_tr, load_ev, load_tr)
            rows.append(
                [
                    method,
                    fmt(t_load_ev), fmt(t_load_tr),
                    fmt(t_comp_ev), fmt(t_comp_tr),
                    load_ev[0], load_tr[0],
                    load_ev[1], load_tr[1],
                    f"{load_ev[2] / 1e6:.2f}", f"{load_tr[2] / 1e3:.0f}",
                    pairs_ev, pairs_tr,
                ]
            )
        print_table(
            "Table 6: T-STR vs 2-d STR",
            ["method", "load_event", "load_traj", "companion_event",
             "companion_traj", "rec_loaded_ev", "rec_loaded_tr",
             "blocks_ev", "blocks_tr", "MB_read_ev", "kB_read_tr",
             "pairs_ev", "pairs_tr"],
            rows,
        )
        return timings

    timings = benchmark.pedantic(full_run, rounds=1, iterations=1)
    str_t = timings["2d-str"]
    tstr_t = timings["t-str"]
    # Paper shape: T-STR reads less (temporal pruning is the mechanism
    # behind its 4.6x / 1.6x loading speedups) and its wall-clock is no
    # worse within laptop noise.  Pushdown makes records_loaded
    # layout-independent, so "reads less" is counted in blocks and bytes.
    for i, data in ((4, "event"), (5, "trajectory")):
        assert tstr_t[i][1] < str_t[i][1], f"T-STR should read fewer {data} blocks"
        assert tstr_t[i][2] < str_t[i][2], f"T-STR should read fewer {data} bytes"
    assert tstr_t[0] < str_t[0] * 1.5
    assert tstr_t[1] < str_t[1] * 1.5
