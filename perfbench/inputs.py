"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed gives
the same query streams, write sequences and inserted objects.  The served
corpus is part of each workload's definition and is drawn from the fixed
:data:`CORPUS_SEED`: the seed varies the traffic, not the data, so that the
spread between seeds measures traffic sampling and machine noise rather than
one random corpus being easier than another.  The run length only sets how
many operations are generated, and every stream is generated front to back,
so a longer run extends a stream without changing its prefix.  A seed gives
``parts`` independent samples of the traffic, one for each round of an
untraced run.  The program under test receives only these generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import Dataset, Rect
from repro.workloads.generators import WorkloadConfig, zipf_dataset, zipf_document
from repro.workloads.topics import TopicConfig, topic_dataset

#: Seed of every served corpus (see the module docstring).
CORPUS_SEED = 2023
#: Objects in the served corpus of ``engine_mixed`` and ``sharded_serve``.
CORPUS_OBJECTS = 16_000
#: Objects bulk-loaded into the ``churn`` index before its write loop.
CHURN_BULK = 8_000
#: Rectangle sides are log-uniform in this range (unit-square data).
SIDE_RANGE = (0.01, 0.6)
#: Sizes the pre-generated streams: several times the operation rates
#: measured when the benchmark was written.  A timed pass that runs out of
#: its stream before its deadline is flagged in the report.
STREAM_RATE = {"engine_mixed": 4000, "sharded_serve": 4000, "churn": 3000}
#: ``sharded_serve`` draws queries from this many templates with Zipf weights
#: ``rank ** -ZIPF_EXPONENT``, so that the 128-entry result cache answers a bit
#: under 40 % of them: far enough from half that the median latency stays a
#: cache-miss latency on every seed.
TEMPLATE_POOL = 3000
ZIPF_EXPONENT = 0.9
WARMUP_QUERIES = 200

Query = Tuple[Rect, Tuple[int, ...]]


def _rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random(f"perfbench:{stream}:{seed}")


def zipf_corpus(num_objects: int, seed: int) -> Dataset:
    """The uniform-points, 48-word Zipf corpus (the repo's standard shape)."""
    return zipf_dataset(
        WorkloadConfig(
            num_objects=num_objects,
            dim=2,
            vocabulary=48,
            doc_min=1,
            doc_max=4,
            zipf_s=1.0,
            seed=seed,
        )
    )


def log_uniform_rect(rng: random.Random, dim: int = 2) -> Rect:
    """A rectangle inside the unit cube with log-uniform sides."""
    lo_side, hi_side = math.log(SIDE_RANGE[0]), math.log(SIDE_RANGE[1])
    lo, hi = [], []
    for _ in range(dim):
        side = math.exp(rng.uniform(lo_side, hi_side))
        start = rng.uniform(0.0, 1.0 - side)
        lo.append(start)
        hi.append(start + side)
    return Rect(lo, hi)


def distinct_words(rng: random.Random, k: int, vocabulary: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, vocabulary + 1), k)))


# -- engine_mixed ------------------------------------------------------------------


@dataclass
class EngineMixedInputs:
    dataset: Dataset
    #: One stream of queries per part (see :func:`engine_mixed`).
    queries: List[List[Query]]
    warmup: List[Query]


def _distinct_queries(rng: random.Random, count: int) -> List[Query]:
    seen = set()
    queries: List[Query] = []
    while len(queries) < count:
        query = (log_uniform_rect(rng), distinct_words(rng, rng.randint(1, 4), 48))
        key = (query[0].lo, query[0].hi, query[1])
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def engine_mixed(seed: int, seconds: float, parts: int = 1) -> EngineMixedInputs:
    """16k Zipf objects; all-distinct queries, k uniform in 1..4.

    ``parts`` independent streams, one for each round of a run, so that a
    run samples more traffic than one stream holds.
    """
    dataset = zipf_corpus(CORPUS_OBJECTS, CORPUS_SEED)
    count = int(seconds * STREAM_RATE["engine_mixed"]) + 1
    queries = [
        _distinct_queries(_rng(seed, f"engine_mixed-{part}"), count) for part in range(parts)
    ]
    warm_rng = _rng(seed, "engine_mixed-warmup")
    warmup = [
        (log_uniform_rect(warm_rng), distinct_words(warm_rng, warm_rng.randint(1, 4), 48))
        for _ in range(WARMUP_QUERIES)
    ]
    return EngineMixedInputs(dataset, queries, warmup)


# -- sharded_serve -----------------------------------------------------------------


@dataclass
class ShardedInputs:
    dataset: Dataset
    #: Per part: a template pool, and the request stream as indexes into it.
    templates: List[List[Query]]
    stream: List[List[int]]
    warmup: List[Query]


def _template(rng: random.Random, dataset: Dataset) -> Query:
    """A query around a random object, asking for words of its document.

    Anchoring on data keeps results non-empty and follows the topic
    structure: rectangles land in populated regions with that region's
    vocabulary.
    """
    anchor = dataset.objects[rng.randrange(len(dataset))]
    words = sorted(anchor.doc)
    k = rng.randint(1, min(4, len(words)))
    chosen = tuple(sorted(rng.sample(words, k)))
    lo, hi = [], []
    for coord in anchor.point:
        side = math.exp(rng.uniform(math.log(0.02), math.log(0.3)))
        start = min(max(coord - side * rng.random(), 0.0), 1.0 - side)
        lo.append(start)
        hi.append(start + side)
    return Rect(lo, hi), chosen


def sharded_serve(seed: int, seconds: float, parts: int = 1) -> ShardedInputs:
    """16k topic objects; Zipf-repeated queries from a template pool.

    Each of the ``parts`` has its own template pool and stream.
    """
    dataset = topic_dataset(TopicConfig(num_objects=CORPUS_OBJECTS, seed=CORPUS_SEED))
    weights = [rank ** -ZIPF_EXPONENT for rank in range(1, TEMPLATE_POOL + 1)]
    count = int(seconds * STREAM_RATE["sharded_serve"]) + 1
    population = range(TEMPLATE_POOL)
    templates, streams = [], []
    for part in range(parts):
        rng = _rng(seed, f"sharded_serve-{part}")
        templates.append([_template(rng, dataset) for _ in range(TEMPLATE_POOL)])
        streams.append(rng.choices(population, weights=weights, k=count))
    warm_rng = _rng(seed, "sharded_serve-warmup")
    warmup = [_template(warm_rng, dataset) for _ in range(WARMUP_QUERIES // 2)]
    return ShardedInputs(dataset, templates, streams, warmup)


# -- churn -------------------------------------------------------------------------


@dataclass
class ChurnOp:
    """One client operation; ``oid`` is the id a delete targets, or the id an
    insert is expected to receive (ids are handed out sequentially)."""

    kind: str  # "read" | "insert" | "delete"
    rect: Optional[Rect] = None
    words: Tuple[int, ...] = ()
    point: Tuple[float, ...] = ()
    doc: frozenset = frozenset()
    oid: int = -1


@dataclass
class ChurnInputs:
    bulk_points: List[Tuple[float, ...]]
    bulk_docs: List[frozenset]
    #: Per part, a sequence of operations starting from the bulk load.
    ops: List[List[ChurnOp]]
    warmup: List[Query]


def _churn_ops(rng: random.Random, count: int) -> List[ChurnOp]:
    word_weights = [1.0 / rank for rank in range(1, 49)]
    live = list(range(CHURN_BULK))
    next_oid = CHURN_BULK
    ops: List[ChurnOp] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5 or not live:
            ops.append(
                ChurnOp("read", rect=log_uniform_rect(rng),
                        words=distinct_words(rng, rng.randint(1, 3), 48))
            )
        elif roll < 0.8:
            point = (rng.random(), rng.random())
            doc = frozenset(zipf_document(rng, 48, rng.randint(1, 4), word_weights))
            ops.append(ChurnOp("insert", point=point, doc=doc, oid=next_oid))
            live.append(next_oid)
            next_oid += 1
        else:
            slot = rng.randrange(len(live))
            live[slot], live[-1] = live[-1], live[slot]
            ops.append(ChurnOp("delete", oid=live.pop()))
    return ops


def churn(seed: int, seconds: float, parts: int = 1) -> ChurnInputs:
    """8k bulk objects, then 50 % reads / 30 % inserts / 20 % deletes.

    Inserted objects have the corpus's shape (uniform point, 1..4 Zipf
    words) and are drawn from the same sequential stream as the operations.
    Each of the ``parts`` is its own sequence, starting from the bulk load.
    """
    bulk = zipf_corpus(CHURN_BULK, CORPUS_SEED)
    count = int(seconds * STREAM_RATE["churn"]) + 1
    ops = [_churn_ops(_rng(seed, f"churn-{part}"), count) for part in range(parts)]
    warm_rng = _rng(seed, "churn-warmup")
    warmup = [
        (log_uniform_rect(warm_rng), distinct_words(warm_rng, warm_rng.randint(1, 3), 48))
        for _ in range(WARMUP_QUERIES)
    ]
    return ChurnInputs(
        [obj.point for obj in bulk.objects],
        [obj.doc for obj in bulk.objects],
        ops,
        warmup,
    )


def keyword_count_shares(word_sets: Sequence[Sequence[int]]) -> dict:
    """Share of queries with k = 1..4 keywords."""
    total = max(len(word_sets), 1)
    return {
        f"share.k{k}": sum(1 for words in word_sets if len(words) == k) / total
        for k in range(1, 5)
    }
