"""Experiment S3 — async serving: concurrent fan-out and mixed churn.

Two tables:

* **fan-out wall-clock** — a selective-rectangle workload served through the
  sequential :class:`repro.service.ShardedQueryEngine` loop vs the
  concurrent :class:`repro.service.AsyncQueryEngine` fan-out, asserted
  result-identical per query.  Both paths run one fan-out plan and skip the
  same shards (``pruned_pct``); the concurrent path differs only in
  overlapping the remaining shard queries on a worker pool.  Wall-clock —
  not cost units — is the honest metric for a concurrency layer, so this
  benchmark, unlike the cost experiments, times with ``time.perf_counter``.
* **mixed churn** — one writer streaming ``insert_many``/``delete`` batches
  against several concurrent snapshot readers over
  :class:`repro.service.AsyncDynamicIndex`; every read is oracle-checked
  against its pinned epoch's live set (an isolation violation raises, so a
  completed run certifies zero).

``python benchmarks/bench_async_serving.py --quick`` runs the CI smoke
configuration (no results file written); the committed
``benchmarks/results/s3_async_serving.txt`` comes from the full run.
"""

import asyncio
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dynamize import DynamicOrpKw
from repro.dataset import Dataset
from repro.geometry.rectangles import Rect
from repro.reporting import format_table
from repro.service import AsyncDynamicIndex, AsyncQueryEngine, ShardedQueryEngine
from repro.workloads.generators import WorkloadConfig, zipf_dataset

from common import record


def selective_workload(
    num_queries: int, seed: int, side: float = 0.12, vocabulary: int = 24
) -> List[Tuple[Rect, List[int]]]:
    """Small-rectangle queries (most miss most shards' bounding boxes)."""
    rng = random.Random(seed)
    workload = []
    for _ in range(num_queries):
        a = rng.uniform(0.0, 1.0 - side)
        c = rng.uniform(0.0, 1.0 - side)
        words = rng.sample(range(1, vocabulary + 1), 2)
        workload.append((Rect((a, c), (a + side, c + side)), words))
    return workload


def _dataset(num_objects: int, seed: int = 7, vocabulary: int = 24) -> Dataset:
    return zipf_dataset(
        WorkloadConfig(
            num_objects=num_objects, vocabulary=vocabulary, seed=seed
        )
    )


def bench_fanout(
    num_objects: int,
    num_queries: int,
    shards: int,
    budget: Optional[int],
    seed: int = 7,
    repeats: int = 3,
) -> Dict[str, Any]:
    """One row: sequential vs concurrent fan-out over the same workload.

    Caches are disabled on both engines so both serve every query; the
    best-of-``repeats`` wall-clock is reported for each path.  Raises if
    any query's result set differs between the two paths.
    """
    dataset = _dataset(num_objects, seed=seed)
    workload = selective_workload(num_queries, seed=seed + 1)
    seq_engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)
    conc_engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)

    seq_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        seq_results = seq_engine.batch(workload, budget=budget)
        seq_s = min(seq_s, time.perf_counter() - start)

    async def concurrent() -> List:
        async with AsyncQueryEngine(conc_engine) as engine:
            return await engine.batch(workload, budget=budget)

    conc_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        conc_results = asyncio.run(concurrent())
        conc_s = min(conc_s, time.perf_counter() - start)

    for (rect, words), seq, conc in zip(workload, seq_results, conc_results):
        if seq != conc:
            raise AssertionError(
                f"fan-out mismatch for rect={rect.lo}->{rect.hi} words={words}"
            )

    slices = [
        s
        for record in conc_engine.records
        if record.strategy == "sharded"
        for s in record.shards
    ]
    pruned = sum(1 for s in slices if s["strategy"] == "pruned")
    return {
        "shards": shards,
        "budget": budget if budget is not None else "inf",
        "queries": num_queries,
        "seq_ms": round(seq_s * 1000.0, 1),
        "conc_ms": round(conc_s * 1000.0, 1),
        "speedup": round(seq_s / conc_s, 2) if conc_s > 0 else float("inf"),
        "pruned_pct": round(100.0 * pruned / max(len(slices), 1), 1),
    }


def bench_mixed(
    num_objects: int = 600,
    batches: int = 20,
    batch_size: int = 25,
    readers: int = 4,
    seed: int = 11,
) -> Dict[str, Any]:
    """Sustained mixed read/write churn over the snapshot-isolated index.

    The writer publishes ``batches`` insert batches (deleting a sample of
    earlier objects between batches) while ``readers`` query loops pin
    snapshots concurrently.  Each reader reads at most once per published
    epoch: after a read it waits for the writer's next publication instead
    of re-querying the epoch it has already checked, so reader work stays
    bounded by the epoch count and never starves the writer's pool calls.
    Every read is checked against the epoch protocol: result sets must be
    free of duplicates and consistent with the pinned epoch's live set — an
    isolation violation raises.
    """
    rng = random.Random(seed)
    index = DynamicOrpKw(k=2, dim=2)
    # Every object carries {1, 2}: a [1, 2] query over the full rectangle
    # reports exactly the live set, which is the isolation oracle below.
    oids = index.insert_many(
        [(rng.random(), rng.random()) for _ in range(num_objects)],
        [frozenset({1, 2, rng.randint(3, 6)}) for _ in range(num_objects)],
    )
    live = set(oids)
    reads = 0
    start = time.perf_counter()

    async def writer(adi: AsyncDynamicIndex, published: asyncio.Condition) -> None:
        async def notify() -> None:
            async with published:
                published.notify_all()

        for _ in range(batches):
            new = await adi.insert_many(
                [(rng.random(), rng.random()) for _ in range(batch_size)],
                [frozenset({1, 2, rng.randint(3, 6)}) for _ in range(batch_size)],
            )
            live.update(new)
            await notify()
            for oid in rng.sample(sorted(live), min(batch_size // 2, len(live))):
                await adi.delete(oid)
                live.discard(oid)
                await notify()

    async def reader(
        adi: AsyncDynamicIndex, published: asyncio.Condition, done: asyncio.Event
    ) -> None:
        nonlocal reads
        checked = None
        while True:
            snapshot = adi.pin()
            if snapshot.epoch_id != checked:
                checked = snapshot.epoch_id
                found = snapshot.query(Rect.full(2), [1, 2])
                got = [obj.oid for obj in found]
                if len(got) != len(set(got)):
                    raise AssertionError("duplicate oids in a snapshot read")
                if set(got) != set(snapshot.live_oids()):
                    raise AssertionError("snapshot read inconsistent with its epoch")
                reads += 1
            if done.is_set():
                return
            # No await between the done check and wait(): the writer can
            # only publish (and notify) while this reader is parked.
            async with published:
                await published.wait()

    async def drive() -> int:
        async with AsyncDynamicIndex(index) as adi:
            published = asyncio.Condition()
            done = asyncio.Event()
            tasks = [
                asyncio.ensure_future(reader(adi, published, done))
                for _ in range(readers)
            ]
            await writer(adi, published)
            done.set()
            async with published:
                published.notify_all()
            await asyncio.gather(*tasks)
            return adi.stats()["published_epoch"]

    epoch = asyncio.run(drive())
    elapsed = time.perf_counter() - start
    return {
        "readers": readers,
        "writes": batches,
        "reads": reads,
        "epochs": epoch,
        "live_objects": len(index),
        "elapsed_ms": round(elapsed * 1000.0, 1),
        "violations": 0,  # a violation raises inside the readers
    }


def run_serving_bench(
    quick: bool = False,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """The full (or quick smoke) configuration; returns (fanout rows, mixed)."""
    if quick:
        rows = [
            bench_fanout(300, 20, shards, budget=256, repeats=1)
            for shards in (2, 4)
        ]
        mixed = bench_mixed(num_objects=120, batches=5, batch_size=10)
    else:
        rows = [
            bench_fanout(2000, 80, shards, budget)
            for shards in (2, 4, 8)
            for budget in (None, 512)
        ]
        mixed = bench_mixed()
    return rows, mixed


_FANOUT_COLUMNS = [
    "shards", "budget", "queries", "seq_ms", "conc_ms", "speedup", "pruned_pct",
]
_MIXED_COLUMNS = [
    "readers", "writes", "reads", "epochs", "live_objects", "elapsed_ms",
    "violations",
]
_TITLE = "S3: async serving — sequential vs concurrent fan-out (wall-clock)"
_MIXED_TITLE = "S3: mixed read/write churn under snapshot isolation"


def run(quick: bool = False) -> None:
    rows, mixed = run_serving_bench(quick=quick)
    fanout_table = format_table(
        rows, columns=_FANOUT_COLUMNS,
        title=_TITLE + (" [quick]" if quick else ""),
    )
    mixed_table = format_table(
        [mixed], columns=_MIXED_COLUMNS,
        title=_MIXED_TITLE + (" [quick]" if quick else ""),
    )
    if quick:
        # CI smoke: print only; the committed results file comes from the
        # full run.
        print()
        print(fanout_table)
        print()
        print(mixed_table)
        return
    record("s3_async_serving", fanout_table + "\n\n" + mixed_table)


def test_async_fanout_beats_sequential(benchmark):
    """Wall-clock check: the concurrent fan-out at S=4 on a selective load.

    The benchmark fixture times one full comparison row; the row itself
    asserts per-query result equality between the two paths.
    """
    row = benchmark(
        lambda: bench_fanout(600, 30, shards=4, budget=256, repeats=1)
    )
    assert row["pruned_pct"] > 0  # the selective load must actually prune


def test_mixed_churn_zero_violations():
    """A completed mixed run certifies zero isolation violations."""
    row = bench_mixed(num_objects=150, batches=6, batch_size=12)
    assert row["violations"] == 0
    assert row["reads"] > 0 and row["epochs"] > row["writes"]


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])
