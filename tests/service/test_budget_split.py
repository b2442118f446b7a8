"""Exhaustive small-budget properties of the fan-out budget split.

Every fan-out — the synchronous engine's and the async front end's — fixes
its per-shard shares before any shard runs, with one rule:
``split_budget_exact(B, m)`` over the ``m`` shards whose bounds meet the
query.  It must conserve budget exactly: no unit lost, no unit granted
twice — the regression here is the old ``max(pool // left, 1)`` rule,
which minted extra units once the pool ran dry (B=2 over four shards
granted 4 units).
"""

import itertools

import pytest

from repro.costmodel import CostCounter
from repro.geometry.rectangles import Rect
from repro.service import ShardedQueryEngine
from repro.service.sharding import split_budget_exact
from repro.errors import ValidationError

from helpers import random_dataset

SHARD_COUNTS = (1, 2, 3, 4, 7)
BUDGETS = range(0, 61)


class TestShardShare:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_full_spend_telescopes_exactly(self, shards):
        """Every shard spending its whole grant consumes exactly B."""
        for budget in BUDGETS:
            shares = split_budget_exact(budget, shards)
            assert all(0 <= share <= budget for share in shares)
            assert sum(shares) == budget

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_partial_spend_conserves_budget(self, shards):
        """With arbitrary per-shard spends, the units charged against the
        grants never exceed B (exhaustive over small spends)."""
        for budget in range(0, 13):
            shares = split_budget_exact(budget, shards)
            spend_space = itertools.product(range(0, 5), repeat=shards)
            for spends in itertools.islice(spend_space, 300):
                charged = sum(
                    min(spent, share) for spent, share in zip(spends, shares)
                )
                assert charged <= budget

    def test_regression_dry_pool_grants_zero(self):
        """The old rule granted max(0 // left, 1) = 1 from an empty pool."""
        assert split_budget_exact(0, 4) == [0, 0, 0, 0]
        assert split_budget_exact(0, 1) == [0]
        # B=2 over 4 shards: grants are 1,1,0,0 — exactly 2 units, not 4.
        assert split_budget_exact(2, 4) == [1, 1, 0, 0]


class TestSplitBudgetExact:
    @pytest.mark.parametrize("parts", SHARD_COUNTS)
    def test_sums_exactly_and_stays_balanced(self, parts):
        for budget in BUDGETS:
            shares = split_budget_exact(budget, parts)
            assert len(shares) == parts
            assert sum(shares) == budget
            assert max(shares) - min(shares) <= 1
            assert all(share >= 0 for share in shares)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValidationError):
            split_budget_exact(10, 0)


class TestEngineGrantAccounting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_served_grants_conserve_budget(self, shards, rng):
        """On a real engine, the recorded grants are the exact split over
        the shards that ran, in shard order, and pruned shards get none."""
        dataset = random_dataset(rng, 120)
        engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)
        rects = (Rect.full(2), Rect((0.0, 0.0), (3.0, 3.0)))
        for rect, budget in itertools.product(rects, (1, 2, 3, 5, 8, 20, 100)):
            counter = CostCounter()
            engine.query(rect, [1, 2], budget=budget, counter=counter)
            slices = engine.last_record.shards
            assert [s["shard_id"] for s in slices] == list(range(shards))
            ran = [s for s in slices if s["strategy"] != "pruned"]
            assert ran, "every rectangle here meets at least one shard"
            assert [s["budget"] for s in ran] == split_budget_exact(budget, len(ran))
            for entry in slices:
                if entry["strategy"] == "pruned":
                    assert entry["budget"] == entry["cost"] == 0
            assert counter.total == sum(s["cost"] for s in slices)

    def test_tiny_budget_still_exact_answers(self, rng):
        """Zero-grant shards degrade but never drop results."""
        dataset = random_dataset(rng, 100)
        engine = ShardedQueryEngine(dataset, shards=7, cache_size=0)
        unbudgeted = ShardedQueryEngine(dataset, shards=7, cache_size=0)
        for budget in (1, 2, 3):
            rect = Rect.full(2)
            words = [1, 2]
            assert engine.query(rect, words, budget=budget) == unbudgeted.query(
                rect, words
            )
