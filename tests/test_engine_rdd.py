"""Engine RDD semantics vs plain Python list operations."""

import pytest

from repro.engine import Accumulator, EngineContext


@pytest.fixture
def ctx():
    return EngineContext(default_parallelism=4)


@pytest.fixture
def numbers(ctx):
    return ctx.parallelize(range(100), 8)


class TestBasics:
    def test_collect_preserves_order(self, numbers):
        assert numbers.collect() == list(range(100))

    def test_count(self, numbers):
        assert numbers.count() == 100

    def test_parallelize_respects_partition_count(self, ctx):
        rdd = ctx.parallelize(range(10), 3)
        assert rdd.num_partitions == 3
        assert sum(rdd.partition_sizes()) == 10

    def test_parallelize_empty(self, ctx):
        rdd = ctx.parallelize([])
        assert rdd.collect() == []
        assert rdd.is_empty()

    def test_from_partitions_layout_preserved(self, ctx):
        rdd = ctx.from_partitions([[1, 2], [3], []])
        assert rdd.partition_sizes() == [2, 1, 0]

    def test_first_and_take(self, numbers):
        assert numbers.first() == 0
        assert numbers.take(5) == [0, 1, 2, 3, 4]
        assert numbers.take(1000) == list(range(100))

    def test_first_on_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([]).first()


class TestNarrowTransformations:
    def test_map_filter_flatmap(self, numbers):
        result = (
            numbers.map(lambda x: x * 2)
            .filter(lambda x: x % 3 == 0)
            .flat_map(lambda x: [x, -x])
            .collect()
        )
        expected = []
        for x in (y * 2 for y in range(100)):
            if x % 3 == 0:
                expected.extend([x, -x])
        assert result == expected

    def test_map_partitions(self, numbers):
        sums = numbers.map_partitions(lambda p: [sum(p)]).collect()
        assert sum(sums) == sum(range(100))
        assert len(sums) == 8

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.from_partitions([[10], [20], [30]])
        tagged = rdd.map_partitions_with_index(lambda i, p: [(i, x) for x in p])
        assert tagged.collect() == [(0, 10), (1, 20), (2, 30)]

    def test_glom(self, ctx):
        rdd = ctx.from_partitions([[1, 2], [3]])
        assert rdd.glom().collect() == [[1, 2], [3]]

    def test_key_by_values_keys(self, ctx):
        rdd = ctx.parallelize(["aa", "b"], 1).key_by(len)
        assert rdd.keys().collect() == [2, 1]
        assert rdd.values().collect() == ["aa", "b"]

    def test_map_values_flat_map_values(self, ctx):
        pairs = ctx.parallelize([(1, 2), (3, 4)], 2)
        assert pairs.map_values(lambda v: v * 10).collect() == [(1, 20), (3, 40)]
        assert pairs.flat_map_values(lambda v: [v, v]).collect() == [
            (1, 2), (1, 2), (3, 4), (3, 4),
        ]

    def test_sample_deterministic(self, numbers):
        a = numbers.sample(0.3, seed=5).collect()
        b = numbers.sample(0.3, seed=5).collect()
        assert a == b
        assert 0 < len(a) < 100

    def test_sample_bounds(self, numbers):
        assert numbers.sample(0.0).collect() == []
        with pytest.raises(ValueError):
            numbers.sample(1.5)

    def test_zip_with_index(self, ctx):
        rdd = ctx.from_partitions([[5, 6], [7], [8, 9]])
        assert rdd.zip_with_index().collect() == [
            (5, 0), (6, 1), (7, 2), (8, 3), (9, 4),
        ]

    def test_union(self, ctx):
        a = ctx.parallelize([1, 2], 2)
        b = ctx.parallelize([3], 1)
        u = a.union(b)
        assert u.collect() == [1, 2, 3]
        assert u.num_partitions == 3

    def test_union_cross_context_rejected(self, ctx):
        other = EngineContext()
        with pytest.raises(ValueError):
            ctx.parallelize([1]).union(other.parallelize([2]))

    def test_cartesian(self, ctx):
        a = ctx.parallelize([1, 2], 2)
        b = ctx.parallelize(["x", "y"], 1)
        assert sorted(a.cartesian(b).collect()) == [
            (1, "x"), (1, "y"), (2, "x"), (2, "y"),
        ]

    def test_zip_partitions(self, ctx):
        a = ctx.from_partitions([[1, 2], [3]])
        b = ctx.from_partitions([[10, 20], [30]])
        z = a.zip_partitions(b, lambda p, q: [x + y for x, y in zip(p, q)])
        assert z.collect() == [11, 22, 33]

    def test_zip_partitions_mismatch_rejected(self, ctx):
        a = ctx.from_partitions([[1], [2]])
        b = ctx.from_partitions([[1]])
        with pytest.raises(ValueError):
            a.zip_partitions(b, lambda p, q: [])

    def test_coalesce(self, numbers):
        small = numbers.coalesce(3)
        assert small.num_partitions == 3
        assert small.collect() == list(range(100))

    def test_coalesce_no_op_when_growing(self, numbers):
        assert numbers.coalesce(100) is numbers


class TestWideTransformations:
    def test_repartition_balances(self, ctx):
        rdd = ctx.from_partitions([[*range(50)], [], [], []])
        sizes = rdd.repartition(5).partition_sizes()
        assert sum(sizes) == 50
        assert max(sizes) - min(sizes) <= 1

    def test_shuffle_by_single_target(self, ctx):
        rdd = ctx.parallelize(range(20), 4)
        out = rdd.shuffle_by(2, lambda x: x % 2)
        parts = [sorted(p) for p in out._collect_partitions()]
        assert parts[0] == [x for x in range(20) if x % 2 == 0]
        assert parts[1] == [x for x in range(20) if x % 2 == 1]

    def test_shuffle_by_duplication(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        out = rdd.shuffle_by(3, lambda x: [0, 2])
        assert out.count() == 20

    def test_group_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 3, i) for i in range(30)], 4)
        grouped = dict(pairs.group_by_key().collect())
        assert sorted(grouped[0]) == [x for x in range(30) if x % 3 == 0]

    def test_reduce_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 5, 1) for i in range(100)], 8)
        assert pairs.reduce_by_key(lambda a, b: a + b).collect_as_map() == {
            k: 20 for k in range(5)
        }

    def test_reduce_equals_group_then_reduce(self, ctx):
        pairs = ctx.parallelize([(i % 7, i) for i in range(200)], 8)
        a = pairs.reduce_by_key(lambda x, y: x + y).collect_as_map()
        b = {
            k: sum(v) for k, v in pairs.group_by_key().collect()
        }
        assert a == b

    def test_aggregate_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 2, i) for i in range(10)], 3)
        result = pairs.aggregate_by_key(
            [], lambda acc, v: acc + [v], lambda a, b: a + b
        ).collect_as_map()
        assert sorted(result[0]) == [0, 2, 4, 6, 8]

    def test_fold_by_key(self, ctx):
        pairs = ctx.parallelize([(0, 2), (0, 3), (1, 4)], 2)
        assert pairs.fold_by_key(1, lambda a, b: a * b).collect_as_map() == {0: 6, 1: 4}

    def test_distinct(self, ctx):
        rdd = ctx.parallelize([1, 2, 2, 3, 3, 3], 3)
        assert sorted(rdd.distinct().collect()) == [1, 2, 3]

    def test_distinct_unhashable_elements(self, ctx):
        # dicts and lists have no __hash__; distinct falls back to a
        # pickled-bytes identity instead of raising TypeError.
        rdd = ctx.parallelize([{"a": 1}, {"a": 1}, {"b": 2}, [1, 2], [1, 2]], 3)
        out = rdd.distinct().collect()
        assert len(out) == 3
        assert {"a": 1} in out and {"b": 2} in out and [1, 2] in out

    def test_distinct_mixed_hashable_and_not(self, ctx):
        rdd = ctx.parallelize([1, 1, {"x": 0}, {"x": 0}, (2, 3), (2, 3)], 2)
        out = rdd.distinct().collect()
        assert len(out) == 3

    def test_distinct_unhashable_across_partitions(self, ctx):
        # Duplicates that live in different partitions must still collapse,
        # so the fallback key has to shuffle consistently.
        rdd = ctx.parallelize([{"k": i % 2} for i in range(8)], 4)
        assert len(rdd.distinct().collect()) == 2

    def test_distinct_by_custom_key(self, ctx):
        rdd = ctx.parallelize(["apple", "avocado", "banana", "cherry"], 2)
        out = sorted(rdd.distinct_by(lambda s: s[0]).collect())
        # One representative survives per first letter.
        assert len(out) == 3
        assert out[1] == "banana" and out[2] == "cherry"

    def test_group_by(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        grouped = dict(rdd.group_by(lambda x: x % 2).collect())
        assert sorted(grouped[1]) == [1, 3, 5, 7, 9]

    def test_join(self, ctx):
        a = ctx.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        b = ctx.parallelize([(1, "x"), (1, "y"), (3, "z")], 2)
        joined = sorted(a.join(b).collect())
        assert joined == [(1, ("a", "x")), (1, ("a", "y")), (3, ("c", "z"))]

    def test_left_outer_join(self, ctx):
        a = ctx.parallelize([(1, "a"), (2, "b")], 1)
        b = ctx.parallelize([(1, "x")], 1)
        joined = sorted(a.left_outer_join(b).collect())
        assert joined == [(1, ("a", "x")), (2, ("b", None))]

    def test_cogroup(self, ctx):
        a = ctx.parallelize([(1, "a")], 1)
        b = ctx.parallelize([(1, "x"), (2, "y")], 1)
        grouped = dict(a.cogroup(b).collect())
        assert grouped[1] == (["a"], ["x"])
        assert grouped[2] == ([], ["y"])

    def test_sort_by(self, ctx):
        import random

        data = list(range(200))
        random.Random(3).shuffle(data)
        rdd = ctx.parallelize(data, 8)
        assert rdd.sort_by(lambda x: x).collect() == sorted(data)
        assert rdd.sort_by(lambda x: x, ascending=False).collect() == sorted(
            data, reverse=True
        )

    def test_sort_by_key(self, ctx):
        pairs = ctx.parallelize([(3, "c"), (1, "a"), (2, "b")], 2)
        assert pairs.sort_by_key().collect() == [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_single_partition(self, ctx):
        rdd = ctx.parallelize([5, 1, 3], 2)
        assert rdd.sort_by(lambda x: x, num_partitions=1).collect() == [1, 3, 5]

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    @pytest.mark.parametrize("size", [0, 3, 200])
    def test_sort_by_evaluates_input_once(self, backend, size):
        # One stage collects the input; the sample and the range routing
        # both come from that output, with no second pass over it (nor a
        # third when the sample is empty).
        import random

        data = list(range(size))
        random.Random(5).shuffle(data)
        calls = Accumulator(0)
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            rdd = ctx.parallelize(data, 4).map_partitions(
                lambda part: calls.add(1) or part
            )
            ordered = rdd.sort_by(lambda x: x, num_partitions=3)
            assert calls.value == rdd.num_partitions
            assert ordered.collect() == sorted(data)
            assert calls.value == rdd.num_partitions
        finally:
            ctx.stop()


class TestActions:
    def test_reduce(self, numbers):
        assert numbers.reduce(lambda a, b: a + b) == sum(range(100))

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([]).reduce(lambda a, b: a + b)

    def test_fold(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).fold(10, lambda a, b: a + b) == 16

    def test_aggregate(self, ctx):
        rdd = ctx.parallelize(range(10), 3)
        total, count = rdd.aggregate(
            (0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert (total, count) == (45, 10)

    def test_sum_mean_max_min(self, numbers):
        assert numbers.sum() == sum(range(100))
        assert numbers.mean() == pytest.approx(49.5)
        assert numbers.max() == 99
        assert numbers.min() == 0
        assert numbers.max(key=lambda x: -x) == 0

    def test_mean_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([]).mean()

    def test_count_by_value(self, ctx):
        rdd = ctx.parallelize(["a", "b", "a"], 2)
        assert rdd.count_by_value() == {"a": 2, "b": 1}

    def test_count_by_key(self, ctx):
        rdd = ctx.parallelize([(1, "x"), (1, "y"), (2, "z")], 2)
        assert rdd.count_by_key() == {1: 2, 2: 1}

    def test_foreach(self, numbers):
        seen = []
        numbers.foreach(seen.append)
        assert seen == list(range(100))


class TestCaching:
    def test_persist_prevents_recompute(self, ctx):
        calls = Accumulator([], lambda a, b: a + b)

        def track(x):
            calls.add([x])
            return x

        rdd = ctx.parallelize(range(10), 2).map(track).persist()
        rdd.count()
        rdd.count()
        assert len(calls.value) == 10  # second action served from cache

    def test_unpersist_recomputes(self, ctx):
        calls = Accumulator([], lambda a, b: a + b)
        rdd = ctx.parallelize(range(5), 1).map(lambda x: calls.add([x]) or x).persist()
        rdd.count()
        rdd.unpersist()
        rdd.count()
        assert len(calls.value) == 10

    def test_cache_alias(self, ctx):
        rdd = ctx.parallelize([1]).cache()
        assert rdd.is_cached
