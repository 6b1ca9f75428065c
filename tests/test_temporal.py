"""Duration and window tests."""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.temporal import Duration, sliding_windows, tumbling_windows

time_value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def durations(draw):
    a, b = sorted((draw(time_value), draw(time_value)))
    return Duration(a, b)


class TestDuration:
    def test_instant(self):
        d = Duration.instant(42.0)
        assert d.is_instant
        assert d.length == 0.0

    def test_single_arg_is_instant(self):
        assert Duration(5.0).is_instant

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Duration(2, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Duration(math.nan, 1)
        # ±inf constructs (open-ended horizons use it); datasets reject it
        # at write time instead — see test_stio.TestNonFiniteRejected.
        assert Duration(-math.inf, math.inf).end == math.inf

    def test_immutable(self):
        d = Duration(0, 1)
        with pytest.raises(AttributeError):
            d.start = 5

    def test_contains(self):
        d = Duration(10, 20)
        assert d.contains(10) and d.contains(20) and d.contains(15)
        assert not d.contains(9.999)

    def test_intersects_touching(self):
        assert Duration(0, 10).intersects(Duration(10, 20))
        assert not Duration(0, 10).intersects(Duration(10.001, 20))

    def test_intersection(self):
        assert Duration(0, 10).intersection(Duration(5, 15)) == Duration(5, 10)
        assert Duration(0, 10).intersection(Duration(11, 15)) is None

    def test_distance(self):
        assert Duration(0, 10).distance_to(Duration(15, 20)) == 5.0
        assert Duration(0, 10).distance_to(Duration(5, 20)) == 0.0

    def test_merge_all(self):
        merged = Duration.merge_all([Duration(5, 10), Duration(0, 2), Duration(8, 20)])
        assert merged == Duration(0, 20)

    def test_merge_all_empty_rejected(self):
        with pytest.raises(ValueError):
            Duration.merge_all([])

    def test_split(self):
        slots = Duration(0, 10).split(5)
        assert len(slots) == 5
        assert slots[0] == Duration(0, 2)
        assert slots[-1] == Duration(8, 10)

    def test_shifted_expanded(self):
        assert Duration(0, 10).shifted(5) == Duration(5, 15)
        assert Duration(5, 10).expanded(2) == Duration(3, 12)

    def test_hour_of_day(self):
        assert Duration.instant(0.0).hour_of_day() == 0.0
        assert Duration.instant(3 * 3600.0 + 1800.0).hour_of_day() == 3.5

    def test_day_index(self):
        assert Duration.instant(0.0).day_index() == 0
        assert Duration.instant(86_400.0 * 2 + 5).day_index() == 2

    def test_ordering_and_hash(self):
        assert Duration(0, 1) < Duration(0, 2) < Duration(1, 1)
        assert hash(Duration(0, 1)) == hash(Duration(0, 1))

    def test_pickle(self):
        d = Duration(1.5, 2.5)
        assert pickle.loads(pickle.dumps(d)) == d


class TestWindows:
    def test_tumbling_covers_extent(self):
        windows = tumbling_windows(Duration(0, 10), 3)
        assert windows[0].start == 0
        assert windows[-1].end == 10
        assert len(windows) == 4  # 3 + 3 + 3 + 1(truncated)

    def test_tumbling_exact_division(self):
        windows = tumbling_windows(Duration(0, 9), 3)
        assert len(windows) == 3
        assert all(w.length == 3 for w in windows)

    def test_tumbling_zero_extent(self):
        windows = tumbling_windows(Duration(5, 5), 1)
        assert windows == [Duration(5, 5)]

    def test_tumbling_invalid_size(self):
        with pytest.raises(ValueError):
            tumbling_windows(Duration(0, 10), 0)

    def test_sliding_overlap(self):
        windows = sliding_windows(Duration(0, 10), size=4, step=2)
        assert windows[0] == Duration(0, 4)
        assert windows[1] == Duration(2, 6)

    def test_sliding_invalid(self):
        with pytest.raises(ValueError):
            sliding_windows(Duration(0, 1), 0, 1)


class TestDurationProperties:
    @given(durations(), durations())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(durations(), durations())
    def test_intersection_within_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains_duration(overlap)
            assert b.contains_duration(overlap)

    @given(durations(), durations())
    def test_distance_zero_iff_intersects(self, a, b):
        assert (a.distance_to(b) == 0.0) == a.intersects(b)

    @given(durations(), st.integers(1, 10))
    def test_split_tiles_exactly(self, d, n):
        slots = d.split(n)
        assert len(slots) == n
        assert slots[0].start == d.start
        assert abs(slots[-1].end - d.end) <= 1e-6 * max(1.0, abs(d.end))
