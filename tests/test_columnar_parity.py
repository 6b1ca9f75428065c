"""Property-based parity: columnar kernels vs the per-instance oracle.

The columnar subsystem's contract is *bit-for-bit agreement* with the
per-instance loops it replaced (kept in :mod:`tests.oracles`): identical
selected instance sets, identical allocation cells, identical
``AllocationStats`` / ``RTreeStats.candidates`` counts — on randomized
boxes, on queries that sit exactly on cell boundaries (closed-interval
semantics), on empty partitions and empty inputs, and under
``duplicate=True`` replica fan-out.  These tests exercise each kernel
against its oracle, then the full selection pipeline on all three
execution backends.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Selector
from repro.core.converters.base import AllocationStats, allocate
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.columnar import BoxTable, PackedRTree, packed_tree_from_boxes
from repro.columnar.cache import PartitionIndexCache, selection_cache
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.index.boxes import STBox
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.instances import Event, Trajectory
from repro.partitioners import (
    HashPartitioner,
    STRPartitioner,
    TBalancePartitioner,
    TSTRPartitioner,
)
from repro.temporal import Duration

from . import oracles
from .conftest import make_events, make_trajectories

ALL_BACKENDS = ["sequential", "thread", "process"]

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
timestamp = st.floats(min_value=0, max_value=1000, allow_nan=False)


@st.composite
def event_sets(draw, min_size=5, max_size=60):
    n = draw(st.integers(min_size, max_size))
    return [
        Event.of_point(draw(coord), draw(coord), draw(timestamp), data=i)
        for i in range(n)
    ]


@st.composite
def st_boxes(draw, ndim=3):
    lows = [draw(coord) for _ in range(ndim)]
    spans = [draw(st.floats(min_value=0, max_value=40, allow_nan=False)) for _ in range(ndim)]
    return STBox(tuple(lows), tuple(lo + s for lo, s in zip(lows, spans)))


def _identities(instances) -> Counter:
    return Counter(inst.identity() for inst in instances)


class TestBoxTableParity:
    @given(event_sets(), st_boxes())
    @settings(max_examples=50, deadline=None)
    def test_candidates_match_linear_scan(self, events, box):
        table = BoxTable.from_instances(events)
        expected = [i for i, e in enumerate(events) if e.st_box().intersects(box)]
        assert table.candidate_rows(box).tolist() == expected

    def test_boundary_touching_query_matches(self):
        events = [Event.of_point(1.0, 2.0, 3.0, data=0)]
        table = BoxTable.from_instances(events)
        # Query faces exactly on the event's coordinates: closed intervals
        # on every side, so each touching face still matches.
        for box in (
            STBox((1.0, 2.0, 3.0), (5.0, 5.0, 5.0)),
            STBox((-5.0, -5.0, -5.0), (1.0, 2.0, 3.0)),
        ):
            assert table.candidate_rows(box).tolist() == [0]
            assert events[0].st_box().intersects(box)

    def test_empty_table(self):
        table = BoxTable.from_instances([])
        assert len(table) == 0
        assert table.candidate_rows(STBox((0, 0, 0), (1, 1, 1))).tolist() == []

    def test_box_exact_marks_point_events(self):
        events = make_events(5) + make_trajectories(3)
        table = BoxTable.from_instances(events)
        assert table.box_exact[:5].all()
        assert not table.box_exact[5:].any()


class TestPackedRTreeParity:
    @given(event_sets(min_size=1), st.lists(st_boxes(), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_query_sets_and_candidate_counts_match(self, events, queries):
        entries = [(e.st_box(), i) for i, e in enumerate(events)]
        scalar = RTree.build(entries, capacity=4)
        packed = packed_tree_from_boxes([b for b, _ in entries], capacity=4)
        for box in queries:
            scalar_hits = sorted(scalar.query(box))
            packed_hits = packed.query_rows(box).tolist()
            assert packed_hits == scalar_hits
        # candidates is shape-independent, so the two trees agree exactly;
        # node/entry test counts are shape-dependent and may not.
        assert packed.stats.candidates == scalar.stats.candidates
        assert packed.stats.queries == scalar.stats.queries

    def test_batch_matches_singles_and_tiny_trees(self):
        for n in (0, 1, 2, 5, 100):
            events = make_events(n)
            boxes = [e.st_box() for e in events]
            packed = packed_tree_from_boxes(boxes, capacity=4)
            queries = [
                STBox((0, 0, 0), (5, 5, 50_000)),
                STBox((90, 90, 0), (91, 91, 1)),
            ]
            batch = packed.query_batch(queries)
            for box, rows in zip(queries, batch):
                assert rows.tolist() == packed.query_rows(box).tolist()
                expected = sorted(i for i, b in enumerate(boxes) if b.intersects(box))
                assert rows.tolist() == expected

    def test_rtree_query_batch_folds_stats(self):
        events = make_events(50)
        tree = RTree.build((e.st_box(), e) for e in events)
        box = STBox((0, 0, 0), (5, 5, 50_000))
        batch = tree.query_batch([box, box])
        singles = tree.query(box)
        assert _identities(batch[0]) == _identities(batch[1]) == _identities(singles)
        assert tree.stats.queries == 3
        assert tree.stats.candidates == 2 * len(batch[0]) + len(singles)

    def test_packed_tree_pickles(self):
        import pickle

        packed = packed_tree_from_boxes([e.st_box() for e in make_events(40)])
        clone = pickle.loads(pickle.dumps(packed))
        box = STBox((0, 0, 0), (5, 5, 50_000))
        assert clone.query_rows(box).tolist() == packed.query_rows(box).tolist()


class TestGridRangeKernelParity:
    @given(
        st.integers(1, 3),
        st.lists(st.floats(min_value=-15, max_value=15, allow_nan=False), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranges_match_candidate_cells(self, ndim, raw):
        import numpy as np

        grid = GridIndex(STBox((0.0,) * ndim, (10.0,) * ndim), (4,) * ndim)
        step = 10.0 / 4
        # Mix arbitrary coordinates with exact cell-boundary multiples so
        # the boundary-touch decrement path is exercised every run.
        values = raw + [0.0, step, 2 * step, 10.0]
        boxes = []
        for lo in values:
            for hi in values:
                if hi >= lo:
                    boxes.append((tuple([lo] * ndim), tuple([hi] * ndim)))
        mins = np.array([b[0] for b in boxes])
        maxs = np.array([b[1] for b in boxes])
        firsts, lasts = grid.candidate_ranges_batch(mins, maxs)
        for i, (lo, hi) in enumerate(boxes):
            expected = grid.candidate_cells(STBox(lo, hi))
            f, l = firsts[i].tolist(), lasts[i].tolist()
            if any(a > b for a, b in zip(f, l)):
                got = []
            else:
                got = [
                    grid.flatten(idx)
                    for idx in product(*(range(a, b + 1) for a, b in zip(f, l)))
                ]
            assert got == expected

    def test_unbounded_sentinels_do_not_overflow(self):
        import numpy as np

        grid = GridIndex(STBox((0.0,), (10.0,)), (5,))
        mins = np.array([[-1.0e18]])
        maxs = np.array([[1.0e18]])
        firsts, lasts = grid.candidate_ranges_batch(mins, maxs)
        assert firsts[0, 0] == 0
        assert lasts[0, 0] == 4


def _cell_data(cells):
    return [[inst.identity() for inst in cell] for cell in cells]


STRUCTURES = [
    TimeSeriesStructure.regular(Duration(0, 86_400), 24),
    TimeSeriesStructure([Duration(0, 10_000), Duration(10_000, 86_400)]),
    SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 3),
    SpatialMapStructure(Envelope(0, 0, 10, 10).split(3, 2)),
    RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 86_400), 3, 3, 4),
    RasterStructure.of_product(
        Envelope(0, 0, 10, 10).split(2, 2), Duration(0, 86_400).split(3)
    ),
]
STRUCTURE_IDS = [
    "ts-regular", "ts-irregular", "sm-regular", "sm-irregular", "raster-regular", "raster-irregular"
]


def _assert_allocation_matches(instances, structure, method):
    oracle_stats = AllocationStats()
    columnar_stats = AllocationStats()
    expected = oracles.allocate(instances, structure, method, oracle_stats)
    columnar = allocate(instances, structure, method, columnar_stats)
    assert _cell_data(columnar) == _cell_data(expected)
    assert columnar_stats.snapshot() == oracle_stats.snapshot()
    return columnar


class TestAllocateParity:
    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    @pytest.mark.parametrize("method", ["auto", "rtree", "naive"])
    def test_cells_and_stats_match(self, structure, method):
        _assert_allocation_matches(
            make_events(60) + make_trajectories(10), structure, method
        )

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    @pytest.mark.parametrize("method", ["auto", "rtree", "naive", "regular"])
    def test_empty_input_matches(self, structure, method):
        if method == "regular" and not structure.is_regular:
            pytest.skip("regular method needs a regular structure")
        cells = _assert_allocation_matches([], structure, method)
        assert cells == [[] for _ in range(structure.n_cells)]

    @given(event_sets(min_size=0))
    @settings(max_examples=30, deadline=None)
    def test_random_events_all_methods(self, events):
        structure = RasterStructure.regular(
            Envelope(-50, -50, 50, 50), Duration(0, 1000), 4, 4, 5
        )
        for method in ("auto", "rtree", "naive", "regular"):
            _assert_allocation_matches(events, structure, method)

    def test_regular_method_on_regular_structure(self):
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 24)
        _assert_allocation_matches(make_events(40), structure, "regular")

    def test_regular_method_rejected_on_irregular(self):
        structure = SpatialMapStructure(Envelope(0, 0, 10, 10).split(3, 2))
        with pytest.raises(ValueError, match="regular method"):
            allocate(make_events(5), structure, "regular")
        with pytest.raises(ValueError, match="regular method"):
            oracles.allocate(make_events(5), structure, "regular")

    def test_unknown_method_rejected(self):
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 4)
        with pytest.raises(ValueError, match="unknown allocation method"):
            allocate(make_events(5), structure, "bogus")
        with pytest.raises(ValueError, match="unknown allocation method"):
            oracles.allocate(make_events(5), structure, "bogus")

    def test_boundary_sitting_events(self):
        # Events exactly on cell edges must land in both neighbors on both
        # paths (closed-interval grids).
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 4)
        events = [Event.of_point(2.5, 5.0, 100.0, data=0), Event.of_point(0.0, 0.0, 0.0, data=1)]
        columnar = _assert_allocation_matches(events, structure, "auto")
        assert sum(len(c) for c in columnar) == 5  # edge event in 4 cells, corner in 1


PARTITIONERS = {
    "tstr": lambda: TSTRPartitioner(3, 4),
    "str": lambda: STRPartitioner(6),
    "tbalance": lambda: TBalancePartitioner(4),
    "hash": lambda: HashPartitioner(7),
}


class TestAssignBatchParity:
    @given(event_sets(min_size=10), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_tstr(self, events, gt, gs):
        p = TSTRPartitioner(gt, gs)
        p.fit(events)
        assert p.assign_batch(events) == [p.assign(e) for e in events]

    @given(event_sets(min_size=10), st.integers(2, 9))
    @settings(max_examples=30, deadline=None)
    def test_str(self, events, n):
        p = STRPartitioner(n)
        p.fit(events)
        assert p.assign_batch(events) == [p.assign(e) for e in events]

    @given(event_sets(min_size=10), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_tbalance(self, events, n):
        p = TBalancePartitioner(n)
        p.fit(events)
        assert p.assign_batch(events) == [p.assign(e) for e in events]

    def test_hash(self):
        events = make_events(50)
        p = HashPartitioner(7)
        p.fit(events)
        assert p.assign_batch(events) == [p.assign(e) for e in events]

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_empty_list(self, name):
        p = PARTITIONERS[name]()
        p.fit(make_events(50))
        assert p.assign_batch([]) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("duplicate", [False, True], ids=["plain", "duplicate"])
    def test_routing_with_empty_partitions(self, backend, name, duplicate):
        # Driver-side batched routing (assign_batch / _fan_out_batch) vs
        # the per-instance engine shuffle of the oracle, over partitions
        # that include empty ones.  Order counts: downstream sampling
        # depends on it.
        events = make_events(120)
        layout = [events[:50], [], events[50:], []]
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            routed = []
            for route in (
                lambda rdd, p: p.partition(rdd, duplicate=duplicate),
                lambda rdd, p: oracles.partition(rdd, p, duplicate=duplicate),
            ):
                parts = route(ctx.from_partitions(layout), PARTITIONERS[name]())
                routed.append([
                    [(inst.identity(), getattr(inst, "dup_primary", True)) for inst in part]
                    for part in parts._collect_partitions()
                ])
            assert routed[0] == routed[1]
            assert sum(len(p) for p in routed[0]) >= len(events)
        finally:
            ctx.backend.stop()

    def test_cut_sitting_centers(self):
        # Fit, then craft events whose centers sit exactly on fitted cuts;
        # searchsorted(side="right") must agree with bisect_right there.
        events = make_events(80)
        p = TSTRPartitioner(3, 4)
        p.fit(events)
        extras = [
            Event.of_point(5.0, 5.0, cut, data=1000 + i)
            for i, cut in enumerate(p._t_cuts)
        ]
        for tiling in p._tilings:
            for cut in tiling.x_cuts:
                extras.append(Event.of_point(cut, 5.0, 40_000.0, data=len(extras)))
        assert p.assign_batch(extras) == [p.assign(e) for e in extras]


class TestPartitionIndexCache:
    def test_identity_keyed_hits_and_lru(self):
        cache = PartitionIndexCache(capacity=2)
        p1, p2, p3 = [1], [2], [3]
        v1, hit = cache.get_or_build(p1, "k", lambda p: object())
        assert not hit
        v1b, hit = cache.get_or_build(p1, "k", lambda p: object())
        assert hit and v1b is v1
        cache.get_or_build(p2, "k", lambda p: object())
        cache.get_or_build(p3, "k", lambda p: object())  # evicts p1
        _, hit = cache.get_or_build(p1, "k", lambda p: object())
        assert not hit
        assert cache.hits == 1 and cache.misses == 4

    def test_selection_reuses_partition_index(self):
        cache = selection_cache()
        cache.clear()
        before = (cache.hits, cache.misses)
        ctx = EngineContext(default_parallelism=2)
        events = make_events(200)
        rdd = ctx.parallelize(events, 2)
        sel = Selector(spatial=Envelope(0, 0, 5, 5), temporal=Duration(0, 50_000))
        first = sel.select(ctx, rdd).collect()
        assert sel.index_cache_misses.value == 2
        assert sel.index_cache_hits.value == 0
        second = sel.select(ctx, rdd).collect()
        assert sel.index_cache_hits.value == 2
        assert sel.index_cache_misses.value == 0
        assert _identities(first) == _identities(second)
        assert cache.hits > before[0]


SPATIAL = Envelope(2.0, 2.0, 6.0, 6.0)
TEMPORAL = Duration(10_000.0, 60_000.0)


def _outcome(run):
    """Selected (identity, primary) multiset — or the error type raised."""
    try:
        result = run().collect()
    except ValueError as exc:
        return type(exc)
    return Counter((inst.identity(), getattr(inst, "dup_primary", True)) for inst in result)


class TestSelectionParityAcrossBackends:
    def _dataset(self):
        events = make_events(300)
        # Boundary-sitting extras: exactly on the query-box faces below.
        events.append(Event.of_point(6.0, 6.0, 60_000.0, data=9001))
        events.append(Event.of_point(2.0, 2.0, 10_000.0, data=9002))
        # Trajectories need the exact refinement: the L-shaped ones have
        # an MBR covering the query box but no sample inside it.
        corners = [
            Trajectory.of_points(
                [(1.0, 1.0, t), (1.0, 7.0, t + 15.0), (7.0, 7.0, t + 30.0)],
                data=f"corner-{i}",
            )
            for i, t in enumerate((20_000.0, 40_000.0))
        ]
        return events + make_trajectories(40) + corners

    def _both(self, backend: str, index: bool, duplicate: bool, layout=None):
        """(production, oracle) selection outcomes over the same input.

        ``layout`` is an explicit partition list; by default the dataset
        is parallelized into four partitions.
        """
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            def source():
                if layout is None:
                    return ctx.parallelize(self._dataset(), 4)
                return ctx.from_partitions(layout)

            def partitioner():
                return TSTRPartitioner(2, 4) if duplicate else None

            production = _outcome(lambda: Selector(
                spatial=SPATIAL,
                temporal=TEMPORAL,
                partitioner=partitioner(),
                index=index,
                duplicate=duplicate,
            ).select(ctx, source()))
            oracle = _outcome(lambda: oracles.select(
                source(), SPATIAL, TEMPORAL, index, partitioner(), duplicate
            ))
            return production, oracle
        finally:
            ctx.backend.stop()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("index", [True, False])
    def test_plain_selection_parity(self, backend, index):
        columnar, expected = self._both(backend, index=index, duplicate=False)
        assert columnar == expected
        assert sum(expected.values()) > 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_duplicate_mode_parity(self, backend):
        columnar, expected = self._both(backend, index=True, duplicate=True)
        assert columnar == expected
        # Replica fan-out must actually occur for the comparison to bite:
        # primaries of every identity, replicas preserved identically.
        assert sum(expected.values()) > 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("index", [True, False])
    @pytest.mark.parametrize("duplicate", [False, True], ids=["plain", "duplicate"])
    def test_empty_partition_and_empty_list_parity(self, backend, index, duplicate):
        data = self._dataset()
        with_empty = [data[:100], [], data[100:], []]
        columnar, expected = self._both(backend, index, duplicate, layout=with_empty)
        assert columnar == expected
        assert sum(expected.values()) > 0
        # An empty input selects nothing — or, with a partitioner, fails to
        # fit on an empty sample — identically on both sides.
        columnar, expected = self._both(backend, index, duplicate, layout=[[], []])
        assert columnar == expected
        assert expected == (ValueError if duplicate else Counter())

    def test_probe_counter_reports_work(self):
        ctx = EngineContext(default_parallelism=2)
        sel = Selector(spatial=Envelope(0, 0, 5, 5), temporal=Duration(0, 50_000))
        sel.select(ctx, ctx.parallelize(make_events(200), 2)).collect()
        assert sel.rtree_probes.value > 0


class TestConversionParityAcrossBackends:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_event_to_ts_parity(self, backend):
        from repro.core.converters import Event2TsConverter

        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 24)
        events = make_events(200)
        expected = [
            sorted(inst.identity() for inst in cell)
            for cell in oracles.allocate(events, structure)
        ]
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            conv = Event2TsConverter(structure)
            merged = conv.convert_merged(
                ctx.parallelize(events, 4), combine=lambda a, b: a + b
            )
            converted = [
                sorted(inst.identity() for inst in cell)
                for cell in merged.cell_values()
            ]
        finally:
            ctx.backend.stop()
        assert converted == expected
