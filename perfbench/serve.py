"""The three workloads: set-up, warm-up, closed client loops and answer checks.

Each workload object builds the served index from its generated inputs, runs
a timed pass of closed-loop clients over its operation stream (each client
waits for a reply before sending the next request), and afterwards checks
every answer of the pass against the brute-force oracle.  Only the call into
the program is inside a latency sample; answers are kept by reference and
checked after the clock stops.

A pass serves one part of the seed's traffic (each untraced round its own
part).  It runs for a number of seconds, or replays exactly the operation
counts of an earlier pass (``limits``), which is how the traced pass repeats
the untraced pass's work.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    AsyncQueryEngine,
    CostCounter,
    DynamicMultiKOrp,
    QueryEngine,
    ShardedQueryEngine,
)
from repro.errors import BudgetExceeded
from repro.telemetry import EventLog, TailSampler

from . import inputs as gen
from .oracle import BruteForce
from .spans import Patcher, SpanRecorder, propagate_context
from .speed import SpeedProbe

CLOCK = time.perf_counter
#: A p99 needs at least ten samples beyond it, so a timed loop keeps going
#: past its deadline until each percentile it reports has this many samples.
MIN_SAMPLES = 1000
#: The per-query budget of every ``sharded_serve`` request, a constant of
#: the workload chosen once on its fixed corpus: the median, over ten seeds,
#: of the budget under which about 4 % of a stream fell back at least once.
#: The measured share is reported as ``share.fallback``.
BUDGET = 8000
SHARDS = 8
ASYNC_CLIENTS = 2
#: The fan-out tail of ``sharded_serve`` phase A collects twice the samples,
#: and the churn tail (reads next to rebuilds and the collections they
#: trigger), which is noisier, three times.
FANOUT_MIN_SAMPLES = 2 * MIN_SAMPLES
TAIL_MIN_SAMPLES = 3 * MIN_SAMPLES


@dataclass
class Pass:
    """What one timed pass observed.  Latencies are in seconds."""

    #: Every read request of the synchronous client (``query_*``), and the
    #: ones that executed a query rather than hit a cache (``batch_*``).
    read_latency: List[float] = field(default_factory=list)
    sync_latency: List[float] = field(default_factory=list)
    write_latency: List[float] = field(default_factory=list)
    #: The synchronous client's reads, operations and measured time.
    reads: int = 0
    ops: int = 0
    wall: float = 0.0
    #: ``sharded_serve`` phase B: requests of the concurrent clients over
    #: the async worker pool, their latencies and time, and how slow the
    #: machine's cores ran meanwhile (see perfbench/speed.py).
    async_reads: int = 0
    async_latency: List[float] = field(default_factory=list)
    async_wall: float = 0.0
    async_slow: float = 1.0
    raised: int = 0
    shed: int = 0
    mismatches: int = 0
    #: Which part of the seed's traffic the pass served.
    part: int = 0
    #: Whether a timed loop ran out of its pre-generated stream before its
    #: deadline (it then measured a shorter window than asked for).
    exhausted: bool = False
    #: Operations completed per phase, for a replay.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Measured shares of workload properties (strategy mix, k, cache, ...).
    props: Dict[str, float] = field(default_factory=dict)
    #: Mean ``QueryRecord.cost["total"]`` (or read counter total) per read.
    cost_units: float = 0.0
    #: ``(op, outcome)`` pairs kept for the oracle check.
    log: List[Any] = field(default_factory=list)
    #: Dynamize counts read from the index after the pass (churn only).
    dynamize: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.raised + self.shed + self.mismatches


def _report_error(exc: BaseException) -> None:
    print("perfbench: operation raised:", file=sys.stderr)
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


class _Loop:
    """Bookkeeping shared by the closed loops of one pass."""

    def __init__(self, seconds: Optional[float], limit: Optional[int], size: int):
        self.deadline = None if seconds is None else CLOCK() + seconds
        self.limit = size if limit is None else min(limit, size)
        self.errors = 0
        self.exhausted = False

    def more(self, done: int, enough: bool) -> bool:
        due = self.deadline is not None and enough and CLOCK() >= self.deadline
        if done >= self.limit:
            self.exhausted = self.exhausted or (self.deadline is not None and not due)
            return False
        return not due

    def failed(self, exc: BaseException) -> None:
        if self.errors == 0:
            _report_error(exc)
        self.errors += 1


def _busy(probe: Optional[SpeedProbe]) -> float:
    return probe.busy if probe else 0.0


def _span(recorder: Optional[SpanRecorder], name: str, request: int):
    return recorder.span(name, request=request) if recorder else nullcontext()


def _shares(names: Sequence[str], prefix: str, keys: Sequence[str]) -> Dict[str, float]:
    total = max(len(names), 1)
    return {f"{prefix}{key}": sum(1 for n in names if n == key) / total for key in keys}


STRATEGIES = ("structured_only", "keywords_only", "fused", "cache")


# -- engine_mixed ------------------------------------------------------------------------


class EngineMixed:
    """One vectorized ``QueryEngine`` over 16k Zipf objects, one client,
    all-distinct queries (so its result cache never hits)."""

    name = "engine_mixed"
    mutates = False

    def __init__(self, seed: int, seconds: float, parts: int = 1):
        self.inputs = gen.engine_mixed(seed, seconds, parts)
        self.oracle = BruteForce.of(self.inputs.dataset.objects)

    def build(self) -> QueryEngine:
        return QueryEngine(self.inputs.dataset, backend="vectorized")

    def space_per_n(self, engine: QueryEngine) -> float:
        return engine.space_units / engine.input_size

    def reset(self, engine: QueryEngine) -> None:
        engine.cache.clear()

    def warm(self, engine: QueryEngine) -> None:
        for rect, words in self.inputs.warmup:
            engine.query(rect, words)
        engine.cache.clear()

    def run_pass(
        self,
        engine: QueryEngine,
        seconds: Optional[float] = None,
        limits: Optional[Dict[str, int]] = None,
        recorder: Optional[SpanRecorder] = None,
        probe: Optional[SpeedProbe] = None,
        part: int = 0,
    ) -> Pass:
        queries = self.inputs.queries[part]
        loop = _Loop(seconds, limits and limits["read"], len(queries))
        result = Pass(part=part)
        latencies = result.read_latency
        log = result.log
        start, paused = CLOCK(), _busy(probe)
        done = 0
        while loop.more(done, done >= MIN_SAMPLES):
            rect, words = queries[done]
            with _span(recorder, "read", done):
                t0 = CLOCK()
                try:
                    answer = engine.query(rect, words)
                    record = engine.last_record
                except Exception as exc:  # a client must keep running
                    answer = record = None
                    loop.failed(exc)
                latencies.append(CLOCK() - t0)
            log.append((done, answer, record))
            done += 1
            if probe:
                probe.tick()
        result.wall = CLOCK() - start - (_busy(probe) - paused)
        result.reads = result.ops = done
        result.raised = loop.errors
        result.exhausted = loop.exhausted
        result.sync_latency = latencies
        result.counts = {"read": done}
        return result

    def check(self, result: Pass, engine: QueryEngine) -> None:
        strategies, fallbacks, costs, words_seen = [], 0, 0, []
        for index, answer, record in result.log:
            rect, words = self.inputs.queries[result.part][index]
            words_seen.append(words)
            if answer is None:
                continue
            if not self.oracle.check(rect, words, answer):
                result.mismatches += 1
            strategies.append(record.strategy)
            fallbacks += bool(record.fallbacks)
            costs += record.cost.get("total", 0)
        result.props.update(_shares(strategies, "share.", STRATEGIES))
        result.props.update(gen.keyword_count_shares(words_seen))
        result.props["share.fallback"] = fallbacks / max(len(strategies), 1)
        result.props["share.cache_hit"] = result.props["share.cache"]
        result.cost_units = costs / max(len(strategies), 1)
        result.log = []


# -- sharded_serve -----------------------------------------------------------------------


class ShardedServe:
    """``ShardedQueryEngine(shards=8)`` over 16k topic objects with Zipf-repeated,
    budgeted queries: phase A through the synchronous fan-out with one
    client, phase B through ``AsyncQueryEngine`` with two clients."""

    name = "sharded_serve"
    mutates = False

    def __init__(self, seed: int, seconds: float, parts: int = 1):
        self.inputs = gen.sharded_serve(seed, seconds, parts)
        self.oracle = BruteForce.of(self.inputs.dataset.objects)
        self._answers: Dict[Tuple[int, int], Any] = {}

    def build(self) -> ShardedQueryEngine:
        return ShardedQueryEngine(self.inputs.dataset, shards=SHARDS)

    def space_per_n(self, engine: ShardedQueryEngine) -> float:
        return engine.space_units / engine.input_size

    def reset(self, engine: ShardedQueryEngine) -> None:
        engine.cache.clear()

    def warm(self, engine: ShardedQueryEngine) -> None:
        for rect, words in self.inputs.warmup:
            engine.query(rect, words, budget=BUDGET)
        engine.cache.clear()

    # -- the two phases ------------------------------------------------------------

    def run_pass(
        self,
        engine: ShardedQueryEngine,
        seconds: Optional[float] = None,
        limits: Optional[Dict[str, int]] = None,
        recorder: Optional[SpanRecorder] = None,
        probe: Optional[SpeedProbe] = None,
        part: int = 0,
    ) -> Pass:
        half = None if seconds is None else seconds / 2
        result = Pass(part=part)
        sync_log = self._phase_a(engine, result, half, limits and limits["batch"], recorder, probe)
        self.reset(engine)
        mark = CLOCK()
        if probe:
            probe.sample_cpus()
        async_log = asyncio.run(
            self._phase_b(engine, result, half, limits and limits["async"], recorder)
        )
        if probe:
            probe.sample_cpus()
            result.async_slow = probe.factor(mark)
        self.reset(engine)
        result.log = [("batch", sync_log), ("async", async_log)]
        return result

    def _phase_a(self, engine, result, seconds, limit, recorder, probe) -> list:
        stream = self.inputs.stream[result.part]
        templates = self.inputs.templates[result.part]
        loop = _Loop(seconds, limit, len(stream))
        latencies, log = result.sync_latency, []
        start, paused = CLOCK(), _busy(probe)
        done = 0
        while loop.more(done, len(latencies) >= FANOUT_MIN_SAMPLES):
            rect, words = templates[stream[done]]
            with _span(recorder, "read", done):
                t0 = CLOCK()
                try:
                    answer = engine.query(rect, words, budget=BUDGET)
                    record = engine.last_record
                except Exception as exc:  # a client must keep running
                    answer = record = None
                    loop.failed(exc)
                elapsed = CLOCK() - t0
            result.read_latency.append(elapsed)
            # batch_* is the fan-out latency: requests answered from the
            # cache never fan out (their share is reported separately).
            if record is None or record.cache != "hit":
                latencies.append(elapsed)
            log.append((done, answer, record))
            done += 1
            if probe:
                probe.tick()
        result.wall = CLOCK() - start - (_busy(probe) - paused)
        result.reads = result.ops = done
        result.raised += loop.errors
        result.exhausted |= loop.exhausted
        result.counts["batch"] = done
        return log

    async def _phase_b(self, engine, result, seconds, limit, recorder) -> list:
        stream = self.inputs.stream[result.part]
        templates = self.inputs.templates[result.part]
        patcher = Patcher()
        if recorder is not None:
            propagate_context(asyncio.get_running_loop(), patcher)
        engine.attach_events(None)
        log: list = []
        try:
            async with AsyncQueryEngine(
                engine, max_workers=2, events=EventLog(), sampler=TailSampler()
            ) as front:
                for rect, words in self.inputs.warmup:
                    await front.query(rect, words, budget=BUDGET)
                engine.cache.clear()

                loop = _Loop(seconds, limit, len(stream))
                latencies = result.async_latency
                position = {"next": 0}

                async def client() -> None:
                    while loop.more(position["next"], position["next"] >= MIN_SAMPLES):
                        index = position["next"]
                        position["next"] = index + 1
                        rect, words = templates[stream[index]]
                        with _span(recorder, "async_read", 1_000_000 + index):
                            t0 = CLOCK()
                            record = None
                            try:
                                answer = await front.query(rect, words, budget=BUDGET)
                                record = engine.last_record
                            except BudgetExceeded:
                                answer = None
                                result.shed += 1
                            except Exception as exc:  # a client must keep running
                                answer = None
                                loop.failed(exc)
                            latencies.append(CLOCK() - t0)
                        log.append((index, answer, record))

                start = CLOCK()
                await asyncio.gather(*(client() for _ in range(ASYNC_CLIENTS)))
                wall = CLOCK() - start
        finally:
            engine.attach_events(None)
            patcher.restore()
        result.async_wall = wall
        result.async_reads = position["next"]
        result.raised += loop.errors
        result.exhausted |= loop.exhausted
        result.counts["async"] = position["next"]
        return log

    # -- checking -------------------------------------------------------------------

    def _answer(self, part: int, index: int):
        if (part, index) not in self._answers:
            rect, words = self.inputs.templates[part][index]
            self._answers[part, index] = self.oracle.answer(rect, words)
        return self._answers[part, index]

    def check(self, result: Pass, engine: ShardedQueryEngine) -> None:
        shard_of = {
            obj.oid: shard
            for shard, data in enumerate(engine.shard_datasets)
            for obj in data.objects
        }
        costs, served = 0, 0
        totals = {"requests": 0, "hits": 0, "fallbacks": 0, "calls": 0, "useful": 0}
        for phase, log in result.log:
            hits = fallbacks = calls = useful = 0
            words_seen = []
            for index, answer, record in log:
                template = self.inputs.stream[result.part][index]
                rect, words = self.inputs.templates[result.part][template]
                words_seen.append(words)
                if answer is None:
                    continue
                want = self._answer(result.part, template)
                if sorted(obj.oid for obj in answer) != want.tolist():
                    result.mismatches += 1
                served += 1
                costs += record.cost.get("total", 0)
                if record.cache == "hit":
                    hits += 1
                    continue
                fallbacks += bool(record.fallbacks)
                matched = {shard_of[int(oid)] for oid in want}
                called = [s["shard_id"] for s in record.shards if s["strategy"] != "pruned"]
                calls += len(called)
                useful += sum(1 for shard in called if shard in matched)
            count = max(len(log), 1)
            result.props[f"{phase}.share.cache_hit"] = hits / count
            result.props[f"{phase}.share.fallback"] = fallbacks / count
            result.props[f"{phase}.share.useful_shard"] = useful / max(calls, 1)
            result.props[f"{phase}.shard_calls_per_miss"] = calls / max(count - hits, 1)
            if phase == "async":
                result.props.update(gen.keyword_count_shares(words_seen))
            for key, value in zip(totals, (len(log), hits, fallbacks, calls, useful)):
                totals[key] += value
        requests = max(totals["requests"], 1)
        result.props["share.cache_hit"] = totals["hits"] / requests
        result.props["share.fallback"] = totals["fallbacks"] / requests
        result.props["share.useful_shard"] = totals["useful"] / max(totals["calls"], 1)
        result.cost_units = costs / max(served, 1)
        result.props["budget"] = float(BUDGET)
        result.log = []


# -- churn ---------------------------------------------------------------------------------


class Churn:
    """``DynamicMultiKOrp(dim=2, max_k=4)``: bulk load, then one client
    interleaving reads, single inserts and deletes."""

    name = "churn"
    mutates = True

    def __init__(self, seed: int, seconds: float, parts: int = 1):
        self.inputs = gen.churn(seed, seconds, parts)

    def build(self) -> DynamicMultiKOrp:
        index = DynamicMultiKOrp(dim=2, max_k=4)
        index.insert_many(self.inputs.bulk_points, self.inputs.bulk_docs)
        return index

    def space_per_n(self, index: DynamicMultiKOrp) -> float:
        return index.space_units / index.input_size

    def reset(self, index: DynamicMultiKOrp) -> None:
        pass

    def warm(self, index: DynamicMultiKOrp) -> None:
        for rect, words in self.inputs.warmup:
            index.query(rect, words)

    def run_pass(
        self,
        index: DynamicMultiKOrp,
        seconds: Optional[float] = None,
        limits: Optional[Dict[str, int]] = None,
        recorder: Optional[SpanRecorder] = None,
        probe: Optional[SpeedProbe] = None,
        part: int = 0,
    ) -> Pass:
        ops = self.inputs.ops[part]
        loop = _Loop(seconds, limits and limits["ops"], len(ops))
        result = Pass(part=part)
        reads, writes, log = result.read_latency, result.write_latency, result.log
        maintenance = index.maintenance.snapshot().get("objects_examined", 0)
        costs = 0
        start, paused = CLOCK(), _busy(probe)
        done = 0
        while loop.more(done, min(len(reads), len(writes)) >= TAIL_MIN_SAMPLES):
            op = ops[done]
            outcome: Any = None
            with _span(recorder, op.kind, done):
                t0 = CLOCK()
                try:
                    if op.kind == "read":
                        counter = CostCounter()
                        outcome = index.query(op.rect, op.words, counter)
                    elif op.kind == "insert":
                        outcome = index.insert(op.point, op.doc)
                    else:
                        index.delete(op.oid)
                except Exception as exc:  # a client must keep running
                    outcome = exc
                    loop.failed(exc)
                elapsed = CLOCK() - t0
            if op.kind == "read":
                reads.append(elapsed)
                if not isinstance(outcome, Exception):
                    costs += counter.total
            else:
                writes.append(elapsed)
            log.append(outcome)
            done += 1
            if probe:
                probe.tick()
        result.wall = CLOCK() - start - (_busy(probe) - paused)
        result.ops = done
        result.reads = len(reads)
        result.raised = loop.errors
        result.exhausted = loop.exhausted
        result.sync_latency = reads
        result.counts = {"ops": done}
        result.cost_units = costs / max(len(reads), 1)
        epoch = index.epoch
        updates = max(len(writes), 1)
        rebuilt = index.maintenance.snapshot().get("objects_examined", 0) - maintenance
        result.dynamize = {
            "rebuilt_per_update": rebuilt / updates,
            "tombstone_ratio": len(epoch.tombstones)
            / max(epoch.live_count + len(epoch.tombstones), 1),
        }
        return result

    def check(self, result: Pass, index: DynamicMultiKOrp) -> None:
        """Replay the pass against the oracle's live set, op by op."""
        ops = self.inputs.ops[result.part]
        oracle = BruteForce(gen.CHURN_BULK + len(ops), 2, 48)
        for oid, (point, doc) in enumerate(zip(self.inputs.bulk_points, self.inputs.bulk_docs)):
            oracle.add(oid, point, doc)
        kinds = []
        words_seen = []
        for op, outcome in zip(ops, result.log):
            kinds.append(op.kind)
            if isinstance(outcome, Exception):
                continue
            if op.kind == "read":
                words_seen.append(op.words)
                if not oracle.check(op.rect, op.words, outcome):
                    result.mismatches += 1
            elif op.kind == "insert":
                if outcome != op.oid:
                    result.mismatches += 1
                oracle.add(outcome, op.point, op.doc)
            else:
                oracle.remove(op.oid)
        result.props.update(_shares(kinds, "share.", ("read", "insert", "delete")))
        result.props.update(gen.keyword_count_shares(words_seen))
        result.log = []


WORKLOADS: Dict[str, Callable[..., Any]] = {
    EngineMixed.name: EngineMixed,
    ShardedServe.name: ShardedServe,
    Churn.name: Churn,
}
