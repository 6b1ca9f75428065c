"""Figure 5 — loading + selecting with the on-disk metadata index.

Paper: indexed loading saves up to 60% time vs native full-scan loading,
with 42-98% of irrelevant records pruned, across query range ratios; the
gain grows as the query shrinks.

Series reproduced:
* 5a/5b — processing time (events / trajectories), indexed vs native;
* 5c/5d — records loaded into memory vs actually selected, plus the
  blocks and bytes each load read.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import Stopwatch, fmt, fresh_ctx, print_table
from repro.core import Selector
from repro.datasets import NYC_BBOX, PORTO_BBOX
from repro.datasets.common import EPOCH_2013
from repro.datasets.porto import PORTO_START
from repro.workloads import anchored_query

RANGE_RATIOS = [0.05, 0.1, 0.2, 0.5, 1.0]


def query_for(bbox, t_start: float, ratio: float, days: int = 30):
    """An ST query covering ``ratio`` of each dimension, anchored low."""
    query = anchored_query(bbox, t_start, ratio, days)
    return query.spatial, query.temporal


def run_selection(directory, spatial, temporal, use_metadata: bool):
    ctx = fresh_ctx()
    selector = Selector(spatial, temporal)
    selected = selector.select(ctx, directory, use_metadata=use_metadata)
    n_selected = selected.count()
    return selector.last_load_stats, n_selected


@pytest.mark.parametrize("ratio", [0.1, 0.5])
def test_fig5a_event_selection_indexed(benchmark, bench_dirs, ratio):
    spatial, temporal = query_for(NYC_BBOX, EPOCH_2013, ratio)
    benchmark(run_selection, bench_dirs / "events_st4ml", spatial, temporal, True)


@pytest.mark.parametrize("ratio", [0.1, 0.5])
def test_fig5a_event_selection_native(benchmark, bench_dirs, ratio):
    spatial, temporal = query_for(NYC_BBOX, EPOCH_2013, ratio)
    benchmark(run_selection, bench_dirs / "events_st4ml", spatial, temporal, False)


@pytest.mark.parametrize("ratio", [0.1, 0.5])
def test_fig5b_trajectory_selection_indexed(benchmark, bench_dirs, ratio):
    spatial, temporal = query_for(PORTO_BBOX, PORTO_START, ratio)
    benchmark(run_selection, bench_dirs / "trajs_st4ml", spatial, temporal, True)


@pytest.mark.parametrize("ratio", [0.1, 0.5])
def test_fig5b_trajectory_selection_native(benchmark, bench_dirs, ratio):
    spatial, temporal = query_for(PORTO_BBOX, PORTO_START, ratio)
    benchmark(run_selection, bench_dirs / "trajs_st4ml", spatial, temporal, False)


def test_fig5_report(benchmark, bench_dirs):
    """Full Figure 5 sweep: time + memory series for both datasets."""

    def sweep():
        rows = []
        for label, directory, bbox, t0 in (
            ("event", bench_dirs / "events_st4ml", NYC_BBOX, EPOCH_2013),
            ("traj", bench_dirs / "trajs_st4ml", PORTO_BBOX, PORTO_START),
        ):
            for ratio in RANGE_RATIOS:
                spatial, temporal = query_for(bbox, t0, ratio)
                watch = Stopwatch()
                stats_idx, n_sel = run_selection(directory, spatial, temporal, True)
                t_indexed = watch.lap()
                stats_full, _ = run_selection(directory, spatial, temporal, False)
                t_native = watch.lap()
                saved = 100.0 * (1 - t_indexed / t_native) if t_native else 0.0
                pruned = (
                    100.0
                    * (stats_full.records_loaded - stats_idx.records_loaded)
                    / max(1, stats_full.records_loaded - n_sel)
                )
                rows.append(
                    [
                        label,
                        ratio,
                        fmt(t_indexed),
                        fmt(t_native),
                        f"{saved:.0f}%",
                        stats_idx.records_loaded,
                        stats_full.records_loaded,
                        n_sel,
                        f"{pruned:.0f}%",
                        stats_idx.partitions_read,
                        stats_full.partitions_read,
                        stats_idx.bytes_read,
                        stats_full.bytes_read,
                    ]
                )
        print_table(
            "Figure 5: on-disk indexing with metadata",
            ["data", "range", "t_indexed", "t_native", "t_saved",
             "loaded_idx", "loaded_native", "selected", "irrelevant_pruned",
             "blocks_idx", "blocks_native", "bytes_idx", "bytes_native"],
            rows,
        )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Shape assertions from the paper: pruning exists and shrinks with range.
    event_rows = [r for r in rows if r[0] == "event"]
    assert event_rows[0][5] < event_rows[-1][5]  # smaller query loads less
    assert all(r[5] <= r[6] for r in rows)  # indexed never loads more
    assert all(r[9] <= r[10] and r[11] <= r[12] for r in rows)  # ... or reads more
