"""Regression tests: the engine result cache vs published index versions.

The bug: the LRU result cache keyed entries by ``(rect, keywords)`` only,
so an engine whose index accepts writes kept returning the pre-write
result after an insert or delete published a new version.  The shared
serving bookkeeping keys every entry by ``(epoch_id, rect, keywords)``:
:class:`~repro.service.ShardedQueryEngine` passes its shard map's epoch,
which every insert, delete and rebalance advances; a static
:class:`~repro.service.QueryEngine` is epoch 0 forever.
"""

import pytest

from repro.errors import ValidationError
from repro.dataset import Dataset, make_objects
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine, ShardedQueryEngine

RECT = Rect((0.0, 0.0), (10.0, 10.0))


def build_dynamic_engine(**kwargs):
    # Every object sits outside RECT, so the first answer is empty.
    dataset = Dataset(
        make_objects([(20.0, 20.0), (30.0, 30.0), (40.0, 40.0)], [[1, 2], [1], [2]])
    )
    return ShardedQueryEngine(dataset, shards=2, max_k=2, **kwargs)


class TestDynamicEngineCache:
    def test_insert_invalidates_cached_result(self):
        # The pinned regression: query, write, repeat the query.  Before the
        # epoch-keyed cache the repeat served the stale cached empty result.
        engine = build_dynamic_engine(cache_size=8)
        assert engine.query(RECT, [1, 2]) == ()
        engine.insert((5.0, 5.0), {1, 2})
        results = engine.query(RECT, [1, 2])
        assert [obj.point for obj in results] == [(5.0, 5.0)]
        assert engine.last_record.cache == "miss"

    def test_same_epoch_repeat_is_a_hit(self):
        engine = build_dynamic_engine(cache_size=8)
        engine.insert((5.0, 5.0), {1, 2})
        first = engine.query(RECT, [1, 2])
        again = engine.query(RECT, [1, 2])
        assert again == first
        assert engine.last_record.cache == "hit"
        assert engine.last_record.strategy == "cache"

    def test_delete_invalidates_cached_result(self):
        engine = build_dynamic_engine(cache_size=8)
        oid = engine.insert((5.0, 5.0), {1, 2})
        assert len(engine.query(RECT, [1, 2])) == 1
        engine.delete(oid)
        assert engine.query(RECT, [1, 2]) == ()
        assert engine.last_record.cache == "miss"

    def test_rebalance_invalidates_cached_result(self):
        engine = build_dynamic_engine(cache_size=8)
        engine.insert((5.0, 5.0), {1, 2})
        first = engine.query(RECT, [1, 2])
        engine.rebalance()
        # Same live set, new layout: recomputed (not served stale), and the
        # repeat on the new epoch hits again.
        assert engine.query(RECT, [1, 2]) == first
        assert engine.last_record.cache == "miss"
        engine.query(RECT, [1, 2])
        assert engine.last_record.cache == "hit"

    def test_static_engine_cache_still_hits(self):
        # Static engines are epoch 0 forever — the fix must not cost them
        # their hits.
        dataset = Dataset(make_objects([(1.0, 1.0), (2.0, 2.0)], [[1, 2], [1]]))
        engine = QueryEngine(dataset, max_k=2, cache_size=8)
        first = engine.query(RECT, [1, 2])
        assert engine.query(RECT, [1, 2]) == first
        assert engine.last_record.cache == "hit"

    def test_engine_requires_dataset_or_dynamic(self):
        with pytest.raises(ValidationError):
            QueryEngine(None)
