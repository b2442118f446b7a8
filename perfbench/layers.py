"""Which public callables the traced run wraps, and the per-layer metrics
derived from their spans.

Every wrapped callable is named ``Class.method`` (or the function name) in
the span output; :data:`LAYER_OF` maps each to the repository module it
belongs to.  A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional

from repro.core import dynamize as dynamize_mod
from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.planner import HybridPlanner
from repro.core.transform import KeywordTransform
from repro.fast.backend import VectorizedBackend
from repro.geometry.rank_space import RankSpaceMap
from repro.kdtree.tree import KdTree
from repro.ksi.inverted import InvertedIndex
from repro.service import async_engine, cache, engine, sharding
from repro.telemetry.events import EventLog
from repro.telemetry.sampler import TailSampler

from .spans import Patcher, Span, SpanRecorder, children_of, self_times

#: Spans the benchmark opens itself around each client request.
CLIENT_SPANS = ("read", "async_read", "insert", "delete")

#: Build steps whose summed self time ``build.coverage`` compares with set-up.
BUILD_SPANS = {
    "build.rank_space_s": "RankSpaceMap.__init__",
    "build.kdtree_s": "KdTree.__init__",
    "build.transform_s": "KeywordTransform.__init__",
    "build.inverted_s": "InvertedIndex.__init__",
    "build.planner_s": "HybridPlanner.__init__",
    "build.vectorized_s": "VectorizedBackend.__init__",
    "build.partition_s": "partition_dataset",
}

LAYER_OF = {
    "HybridPlanner.strategies_by_cost": "core.planner",
    "HybridPlanner.__init__": "core.planner",
    "StructuredOnlyIndex.query_rect": "core.baselines",
    "StructuredOnlyIndex.__init__": "core.baselines",
    "KeywordsOnlyIndex.query_rect": "core.baselines",
    "KdTree.range_query": "kdtree",
    "KdTree.__init__": "kdtree",
    "VectorizedBackend.query_rect": "fast",
    "VectorizedBackend.__init__": "fast",
    "OrpKwIndex.query": "core.orp_kw",
    "OrpKwIndex.__init__": "core.orp_kw",
    "KeywordTransform.__init__": "core.transform",
    "MultiKOrpIndex.query": "core.multi_k",
    "MultiKOrpIndex.__init__": "core.multi_k",
    "RankSpaceMap.__init__": "geometry.rank_space",
    "InvertedIndex.__init__": "ksi.inverted",
    "MultiKOrpAdapter.build": "core.dynamize",
    "DynamicMultiKOrp.query": "core.dynamize",
    "Dynamized.insert": "core.dynamize",
    "Dynamized.insert_many": "core.dynamize",
    "Dynamized.delete": "core.dynamize",
    "QueryEngine.query": "service.engine",
    "QueryEngine.__init__": "service.engine",
    "LRUCache.lookup": "service.cache",
    "LRUCache.put": "service.cache",
    "ShardedQueryEngine.query": "service.sharding",
    "ShardedQueryEngine.__init__": "service.sharding",
    "partition_dataset": "service.sharding",
    "AsyncQueryEngine.query": "service.async_engine",
    "EventLog.emit": "telemetry",
    "TailSampler.offer": "telemetry",
}


# -- hooks reading counts at the boundary -----------------------------------------------


def _counter(args: tuple, kwargs: dict):
    """The CostCounter a ``(self, rect, keywords, counter)`` call received."""
    return kwargs.get("counter", args[3] if len(args) > 3 else None)


def _count_before(category: str):
    def on_enter(args, kwargs):
        counter = _counter(args, kwargs)
        return (counter, counter[category]) if counter is not None else None

    return on_enter


def _count_delta(category: str, attr: str):
    def on_exit(span, state, args, kwargs, result):
        span.attrs["results"] = len(result)
        if state is not None:
            counter, before = state
            span.attrs[attr] = counter[category] - before

    return on_exit


def _results(span, state, args, kwargs, result):
    span.attrs["results"] = len(result)


def _engine_record(span, state, args, kwargs, result):
    record = args[0].last_record
    span.attrs.update(
        results=len(result),
        strategy=record.strategy,
        fallbacks=len(record.fallbacks),
        degraded=record.degraded,
    )


def _first_choice(span, state, args, kwargs, result):
    span.attrs["first"] = result[0]


def _cache_lookup(span, state, args, kwargs, result):
    span.attrs.update(hit=result[1], capacity=args[0].capacity)


def _live_buckets(span, state, args, kwargs, result):
    span.attrs["results"] = len(result)
    span.attrs["buckets"] = sum(1 for b in args[0].epoch.buckets if b is not None)


def _built_objects(span, state, args, kwargs, result):
    span.attrs["objects"] = len(args[1])


#: (owner, attribute, span name, on_enter, on_exit)
TARGETS = [
    (HybridPlanner, "strategies_by_cost", "HybridPlanner.strategies_by_cost", None, _first_choice),
    (StructuredOnlyIndex, "query_rect", "StructuredOnlyIndex.query_rect", None, _results),
    (KdTree, "range_query", "KdTree.range_query", None, _results),
    (KeywordsOnlyIndex, "query_rect", "KeywordsOnlyIndex.query_rect",
     _count_before("comparisons"), _count_delta("comparisons", "candidates")),
    (VectorizedBackend, "query_rect", "VectorizedBackend.query_rect",
     _count_before("comparisons"), _count_delta("comparisons", "candidates")),
    (OrpKwIndex, "query", "OrpKwIndex.query",
     _count_before("nodes_visited"), _count_delta("nodes_visited", "nodes")),
    (MultiKOrpIndex, "query", "MultiKOrpIndex.query", None, _results),
    (dynamize_mod.MultiKOrpAdapter, "build", "MultiKOrpAdapter.build", None, _built_objects),
    (dynamize_mod.DynamicMultiKOrp, "query", "DynamicMultiKOrp.query", None, _live_buckets),
    (dynamize_mod.Dynamized, "insert", "Dynamized.insert", None, None),
    (dynamize_mod.Dynamized, "insert_many", "Dynamized.insert_many", None, None),
    (dynamize_mod.Dynamized, "delete", "Dynamized.delete", None, None),
    (engine.QueryEngine, "query", "QueryEngine.query", None, _engine_record),
    (cache.LRUCache, "lookup", "LRUCache.lookup", None, _cache_lookup),
    (cache.LRUCache, "put", "LRUCache.put", None, None),
    (sharding.ShardedQueryEngine, "query", "ShardedQueryEngine.query", None, _results),
    (async_engine.AsyncQueryEngine, "query", "AsyncQueryEngine.query", None, None),
    (EventLog, "emit", "EventLog.emit", None, None),
    (TailSampler, "offer", "TailSampler.offer", None, None),
    # Build steps, and the constructors around them for a readable tree.
    (RankSpaceMap, "__init__", "RankSpaceMap.__init__", None, None),
    (KdTree, "__init__", "KdTree.__init__", None, None),
    (KeywordTransform, "__init__", "KeywordTransform.__init__", None, None),
    (InvertedIndex, "__init__", "InvertedIndex.__init__", None, None),
    (HybridPlanner, "__init__", "HybridPlanner.__init__", None, None),
    (VectorizedBackend, "__init__", "VectorizedBackend.__init__", None, None),
    (sharding, "partition_dataset", "partition_dataset", None, None),
    (StructuredOnlyIndex, "__init__", "StructuredOnlyIndex.__init__", None, None),
    (OrpKwIndex, "__init__", "OrpKwIndex.__init__", None, None),
    (MultiKOrpIndex, "__init__", "MultiKOrpIndex.__init__", None, None),
    (engine.QueryEngine, "__init__", "QueryEngine.__init__", None, None),
    (sharding.ShardedQueryEngine, "__init__", "ShardedQueryEngine.__init__", None, None),
]


def instrument(recorder: SpanRecorder) -> Patcher:
    """Wrap every target; the returned patcher's ``restore`` undoes it."""
    patcher = Patcher()
    for owner, attr, name, on_enter, on_exit in TARGETS:
        original = vars(owner)[attr]
        patcher.replace(owner, attr, recorder.wrap(name, original, on_enter, on_exit))
    return patcher


# -- derivation ---------------------------------------------------------------------------


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _descendants(root: Span, kids: Dict[Optional[int], List[Span]]) -> List[Span]:
    out, stack = [], [root]
    while stack:
        for child in kids.get(stack.pop().sid, ()):
            out.append(child)
            stack.append(child)
    return out


def layer_metrics(
    spans: List[Span], setup_root: Span, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``setup_root`` is the span around the traced build; serving spans are
    those carrying a client request id (warm-up spans carry none and are
    ignored).  ``extra`` supplies what is measured outside the spans
    (overhead ratio, dynamize counters, untraced-pass shares).
    """
    kids = children_of(spans)
    own = self_times(spans)
    served = [s for s in spans if s.request is not None]
    by_name: Dict[str, List[Span]] = {}
    for span in served:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    reads = [s for s in served if s.name in ("read", "async_read")]
    out: Dict[str, float] = {}

    # core.planner
    planner = named("HybridPlanner.strategies_by_cost")
    engine_of = {s.sid: s for s in named("QueryEngine.query")}
    out["planner.us_per_call"] = _mean(s.duration for s in planner) * 1e6
    out["planner.calls_per_query"] = _ratio(len(planner), len(reads))
    out["planner.first_choice_ratio"] = _ratio(
        sum(
            1 for s in planner
            if s.parent in engine_of
            and engine_of[s.parent].attrs.get("strategy") == s.attrs.get("first")
        ),
        len(planner),
    )

    # kdtree + core.baselines (structured-only)
    structured = named("StructuredOnlyIndex.query_rect")
    kd = named("KdTree.range_query")
    out["structured.ms_per_call"] = _mean(s.duration for s in structured) * 1e3
    out["kdtree.range_query_ms"] = _mean(s.duration for s in kd) * 1e3
    out["structured.examined_per_result"] = _ratio(
        sum(s.attrs.get("results", 0) for s in kd),
        sum(s.attrs.get("results", 0) for s in structured),
    )

    # ksi / fast (keywords-only)
    keywords = named("KeywordsOnlyIndex.query_rect") + named("VectorizedBackend.query_rect")
    out["keywords.ms_per_call"] = _mean(s.duration for s in keywords) * 1e3
    out["keywords.examined_per_result"] = _ratio(
        sum(s.attrs.get("candidates", 0) for s in keywords),
        sum(s.attrs.get("results", 0) for s in keywords),
    )

    # core.orp_kw / core.transform / core.multi_k (the fused index)
    fused = named("OrpKwIndex.query")
    out["fused.ms_per_call"] = _mean(s.duration for s in fused) * 1e3
    out["fused.nodes_per_call"] = _mean(s.attrs.get("nodes", 0) for s in fused)
    out["multik.ms_per_call"] = _mean(s.duration for s in named("MultiKOrpIndex.query")) * 1e3

    # build steps, inside the traced set-up only
    setup = _descendants(setup_root, kids)
    covered = 0.0
    for metric, name in BUILD_SPANS.items():
        seconds = sum(own[s.sid] for s in setup if s.name == name)
        out[metric] = seconds
        covered += seconds
    out["build.coverage"] = _ratio(covered, setup_root.duration)

    # core.dynamize
    rebuilds = named("MultiKOrpAdapter.build")
    dyn_reads = named("DynamicMultiKOrp.query")
    out["dynamize.rebuild_s"] = sum(s.duration for s in rebuilds)
    out["dynamize.rebuilds"] = float(len(rebuilds))
    out["dynamize.rebuilt_per_update"] = extra.get("dynamize.rebuilt_per_update", 0.0)
    out["dynamize.buckets_per_read"] = _mean(s.attrs.get("buckets", 0) for s in dyn_reads)
    out["dynamize.tombstone_ratio"] = extra.get("dynamize.tombstone_ratio", 0.0)

    # service.engine: each read request is split evenly over the engine calls
    # under it; a request answered by a result cache counts as "cache".
    engines = named("QueryEngine.query")
    engines_by_request: Dict[int, List[Span]] = {}
    for span in engines:
        engines_by_request.setdefault(span.request, []).append(span)
    cache_hit_requests = {
        s.request for s in named("LRUCache.lookup") if s.attrs.get("hit")
    }
    share = {name: 0.0 for name in ("structured_only", "keywords_only", "fused", "cache")}
    for read in reads:
        calls = engines_by_request.get(read.request, [])
        if read.request in cache_hit_requests and not any(
            c.attrs.get("strategy") != "cache" for c in calls
        ):
            share["cache"] += 1
            continue
        for call in calls:
            strategy = call.attrs.get("strategy")
            if strategy in share:
                share[strategy] += 1 / len(calls)
    for name, value in share.items():
        out[f"engine.share.{name}"] = _ratio(value, len(reads))
    executed = [s for s in engines if s.attrs.get("strategy") != "cache"]
    out["engine.self_ms"] = _mean(own[s.sid] for s in engines) * 1e3
    out["engine.fallbacks_per_query"] = _ratio(
        sum(s.attrs.get("fallbacks", 0) for s in executed), len(executed)
    )
    out["engine.degraded_ratio"] = _ratio(
        sum(1 for s in executed if s.attrs.get("degraded")), len(executed)
    )

    # service.cache
    lookups = named("LRUCache.lookup")
    live_lookups = [s for s in lookups if s.attrs.get("capacity", 0) > 0]
    out["cache.hit_ratio"] = _ratio(
        sum(1 for s in live_lookups if s.attrs.get("hit")), len(live_lookups)
    )
    out["cache.us_per_call"] = _mean(s.duration for s in lookups + named("LRUCache.put")) * 1e6

    # service.sharding and service.async_engine: shard-engine calls are the
    # QueryEngine.query spans whose parent is a fan-out span.
    def shard_calls(parent: Span) -> List[Span]:
        return [c for c in kids.get(parent.sid, ()) if c.name == "QueryEngine.query"]

    fanouts = [s for s in named("ShardedQueryEngine.query") if shard_calls(s)]
    fronts = named("AsyncQueryEngine.query")
    async_fanouts = [s for s in fronts if shard_calls(s)]
    calls = [c for s in fanouts + async_fanouts for c in shard_calls(s)]
    out["fanout.self_ms"] = _mean(own[s.sid] for s in fanouts) * 1e3
    out["fanout.shard_calls_per_query"] = _mean(len(shard_calls(s)) for s in fanouts)
    out["fanout.useful_shard_ratio"] = _ratio(
        sum(1 for c in calls if c.attrs.get("results", 0) > 0), len(calls)
    )
    out["async.wait_ms"] = _mean(
        min(c.start for c in shard_calls(s)) - s.start for s in async_fanouts
    ) * 1e3
    out["async.shard_calls_per_query"] = _mean(len(shard_calls(s)) for s in async_fanouts)
    out["async.shed_ratio"] = _ratio(
        sum(1 for s in fronts if s.attrs.get("raised") in ("BudgetExceeded", "SloShed")),
        len(fronts),
    )

    # telemetry: events are emitted only where an EventLog is attached, i.e.
    # on requests served through AsyncQueryEngine.
    emits = named("EventLog.emit")
    out["telemetry.emit_us"] = _mean(s.duration for s in emits) * 1e6
    out["telemetry.offer_us"] = _mean(s.duration for s in named("TailSampler.offer")) * 1e6
    out["telemetry.events_per_query"] = _ratio(len(emits), len(fronts))

    out.update(
        {key: value for key, value in extra.items() if not key.startswith("dynamize.")}
    )
    return out


def layer_table(spans: List[Span]) -> List[Dict[str, Any]]:
    """Per-span-name call counts, total and self seconds (serving spans)."""
    own = self_times(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span.request is None or span.name in CLIENT_SPANS:
            continue
        row = rows.setdefault(
            span.name,
            {"span": span.name, "layer": LAYER_OF.get(span.name, "?"), "calls": 0,
             "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.sid]
    return sorted(rows.values(), key=lambda row: -row["self_s"])
