"""Sharded serving: spatial partitioning plus one budget-bounded fan-out plan.

The ROADMAP's north star — serve heavy traffic — needs more than one
monolithic index: partitioned content-and-structure systems get their
robustness at scale from per-partition indexes with bounded per-partition
work.  This module is that step for :mod:`repro`:

* :func:`partition_dataset` splits a :class:`~repro.dataset.Dataset` into
  ``S`` spatially coherent shards by recursive **median kd-splits** — the
  same median-selection rule (and the same ``numpy.argpartition`` selection
  primitive) the kd-tree build uses, generalized to an arbitrary shard
  count by cutting each recursion level proportionally.  For ``S`` a power
  of two the cuts are exactly the kd-tree's median splits.

* :class:`ShardedQueryEngine` owns one per-shard
  :class:`~repro.service.engine.QueryEngine` (per-shard fused indexes and
  planners; the full dataset's vocabulary is kept for stats) and serves
  every query through one :class:`FanoutPlan`.

The fan-out plan
----------------
Every sharded query — synchronous (:meth:`ShardedQueryEngine.query`) or
concurrent (:class:`~repro.service.async_engine.AsyncQueryEngine`) — runs
the same plan:

1. pin the published :class:`ShardMap`, so the whole query sees one layout;
2. validate, stamp a query id, and look the merged result up in the
   epoch-keyed cache (a hit ends the plan);
3. skip every shard whose bounding box misses the rectangle (empty shards
   have no box); each is recorded as a zero-cost ``pruned`` slice;
4. split the budget ``B`` over the ``m`` shards left with
   :func:`split_budget_exact`: ``B // m`` each, the first ``B % m`` one
   unit more;
5. run those shards, each through its own ``QueryEngine.query`` and its
   own tracer — inline in the synchronous engine, on a worker pool under
   per-shard locks in the async front end;
6. merge: results deduplicated and sorted by id, per-category costs
   summed, fallbacks tagged with their shard, each shard's spans grafted
   into the query's trace tree;
7. finish through the shared bookkeeping (cache, record, metrics, events,
   caller accounting).

The split is the only budget rule.  Shares are fixed before any shard
runs, so they sum to exactly ``B`` (no unit lost, none granted twice), one
shard's spend never changes another's grant, and running the shards
concurrently records exactly what running them in turn records.  A shard
whose share is zero degrades on its first charge to the unbudgeted exact
path, so answers stay correct and the degradation shows in its slice.

Degradation stays per-slice: a shard that exhausts every strategy degrades
only its slice of the answer (recorded in the merged trace's ``shards``
list); the other shards still serve within budget.  As with the unsharded
engine, every strategy is exact, so sharding never changes the answer —
the differential suite asserts result equality against the unsharded
engine for every shard count.  ``BudgetExceeded`` never escapes, and the
caller's counter receives the merged spend exactly once.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_nonempty_keywords
from ..errors import ValidationError
from ..fast import validate_backend
from ..geometry.rectangles import Rect
from ..telemetry.events import EventLog
from ..telemetry.quantiles import StatsCollector
from ..trace import MetricsRegistry, Tracer, span_for
from .engine import (
    PendingQuery,
    QueryEngine,
    QueryRecord,
    ServingBookkeeping,
    check_rect_dim,
)


def split_budget_exact(budget: int, parts: int) -> List[int]:
    """Split ``budget`` into ``parts`` near-equal shares summing exactly.

    The fan-out fixes every share before any shard runs: ``budget // parts``
    each, with the first ``budget % parts`` shares one unit larger.
    """
    if parts < 1:
        raise ValidationError(f"parts must be >= 1, got {parts}")
    base, extra = divmod(budget, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def partition_dataset(dataset: Dataset, shards: int) -> List[Dataset]:
    """Split ``dataset`` into ``shards`` spatial shards via median kd-splits.

    Recursive rule: to cut a set of objects into ``s`` shards, split the
    target count as ``s = s_left + s_right`` with ``s_left = s // 2``, pick
    the splitting axis round-robin by recursion level (the kd-tree's
    ``level % dim`` rule), and partition the objects at the coordinate of
    rank ``len * s_left / s`` along that axis (``numpy.argpartition``, the
    kd-tree build's selection primitive).  Shard sizes therefore differ by
    at most one object, and every shard is spatially coherent (an
    axis-aligned cell of the recursion).

    Shards keep the original objects (ids stay globally unique).  When the
    dataset has fewer objects than shards, the surplus shards come back
    explicitly empty (:meth:`Dataset.empty`) — a served shard, not an error.
    """
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    dim = dataset.dim
    pieces: List[List[KeywordObject]] = []

    def split(objs: List[KeywordObject], count: int, level: int) -> None:
        if count == 1:
            pieces.append(objs)
            return
        left_count = count // 2
        cut = (len(objs) * left_count) // count
        if 0 < cut < len(objs):
            axis = level % dim
            coords = np.array([obj.point[axis] for obj in objs])
            order = np.argpartition(coords, cut)
            objs = [objs[i] for i in order]
        split(objs[:cut], left_count, level + 1)
        split(objs[cut:], count - left_count, level + 1)

    split(list(dataset.objects), shards, 0)
    return [
        Dataset(piece) if piece else Dataset.empty(dim) for piece in pieces
    ]


class ShardMap:
    """One immutable published shard layout of a :class:`ShardedQueryEngine`.

    The shard map is the sharded engine's epoch: datasets, per-shard engines,
    pruning bounds, per-shard delta buffers (objects inserted since the last
    rebalance), the tombstone set and the per-shard live object counts and
    input sizes are frozen together, so a reader that pins the map
    (:meth:`ShardedQueryEngine.snapshot`) keeps a consistent view across
    concurrent inserts, deletes, and rebalance cutovers.  Mutations publish
    a *successor* map with one reference assignment and never touch a
    published one — the same copy-on-write discipline as
    :class:`repro.core.dynamize.Epoch`.

    ``query`` answers directly from the frozen datasets and deltas (an exact
    scan, fully charged), so a pinned :class:`~repro.service.Snapshot` can
    keep serving reads without touching the mutable per-shard engines.
    """

    __slots__ = (
        "epoch_id",
        "datasets",
        "engines",
        "bounds",
        "deltas",
        "tombstones",
        "live_sizes",
        "live_inputs",
    )

    def __init__(
        self,
        epoch_id: int,
        datasets: Tuple[Dataset, ...],
        engines: Tuple[QueryEngine, ...],
        bounds: Tuple[Optional[Rect], ...],
        deltas: Tuple[Tuple[KeywordObject, ...], ...],
        tombstones: FrozenSet[int],
        live_sizes: Tuple[int, ...],
        live_inputs: Tuple[int, ...],
    ):
        self.epoch_id = epoch_id
        self.datasets = datasets
        self.engines = engines
        self.bounds = bounds
        self.deltas = deltas
        self.tombstones = tombstones
        self.live_sizes = live_sizes
        #: Per-shard live input size (summed document lengths): the ``N``
        #: of what the shard serves now, not of its build-time dataset.
        self.live_inputs = live_inputs

    @classmethod
    def fresh(
        cls,
        epoch_id: int,
        datasets: Sequence[Dataset],
        engines: Sequence[QueryEngine],
    ) -> "ShardMap":
        """A map over freshly cut shards: no deltas, no tombstones."""
        return cls(
            epoch_id,
            tuple(datasets),
            tuple(engines),
            tuple(_bounding_rect(shard) for shard in datasets),
            tuple(() for _ in datasets),
            frozenset(),
            tuple(len(shard) for shard in datasets),
            tuple(shard.total_doc_size for shard in datasets),
        )

    def successor(self, **changes: Any) -> "ShardMap":
        """The next epoch's map: this one with ``changes`` applied."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes, epoch_id=self.epoch_id + 1)
        return ShardMap(**fields)

    @property
    def live_count(self) -> int:
        return sum(self.live_sizes)

    def __len__(self) -> int:
        return self.live_count

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Answer one rect/keywords query from this frozen map alone.

        Exact scan over the frozen datasets and delta buffers (tombstones
        filtered), charged like the naive baseline: one ``objects_examined``
        per candidate, one ``comparisons`` per geometric test.  This is the
        snapshot read path — it never touches the mutable per-shard engines,
        so pinned snapshots are safe under any concurrent writer activity.
        The query is validated like the live engine's: a non-empty keyword
        list and a rectangle of the data's dimensionality.
        """
        words = set(validate_nonempty_keywords(keywords))
        check_rect_dim(rect, self.datasets[0].dim)
        counter = ensure_counter(counter)
        result: List[KeywordObject] = []
        with span_for(counter, "shardmap-scan", "sharding", epoch=self.epoch_id):
            for shard_id, dataset in enumerate(self.datasets):
                for objects in (dataset.objects, self.deltas[shard_id]):
                    for obj in objects:
                        counter.charge("objects_examined")
                        if obj.oid in self.tombstones:
                            continue
                        counter.charge("comparisons")
                        if rect.contains_point(obj.point) and words <= obj.doc:
                            result.append(obj)
        result.sort(key=lambda obj: obj.oid)
        return result

    def live_oids(self) -> FrozenSet[int]:
        """The ids of every live object in this map (diagnostic)."""
        return frozenset(
            obj.oid
            for shard_id, dataset in enumerate(self.datasets)
            for objects in (dataset.objects, self.deltas[shard_id])
            for obj in objects
            if obj.oid not in self.tombstones
        )


class ShardRun(NamedTuple):
    """One shard's part of a fan-out, as :meth:`FanoutPlan.run_shard` returns it."""

    shard_id: int
    objects: List[KeywordObject]
    #: The run's spend; its ``tracer`` holds the run's spans when traced.
    spent: CostCounter
    record: QueryRecord


class FanoutPlan:
    """One sharded query, from pinned shard map to finished record.

    :meth:`ShardedQueryEngine.plan` builds it (steps 1-4 of the module
    docstring).  A cache hit comes back answered: ``record`` is set and
    ``active`` is empty.  Otherwise the driver calls :meth:`run_shard` once
    for every shard id in ``active`` — inline, or from worker threads as
    long as each shard's engine serves one run at a time — and hands the
    runs to :meth:`finish` on the thread that built the plan.
    """

    def __init__(self, engine: "ShardedQueryEngine", pending: PendingQuery, state: ShardMap):
        self.engine = engine
        self.pending = pending
        self.state = state
        rect, budget = pending.rect, pending.budget
        self.active: List[int] = (
            []
            if pending.record is not None
            else [
                shard_id
                for shard_id, bounds in enumerate(state.bounds)
                if bounds is not None and rect.intersects(bounds)
            ]
        )
        self.shares: Dict[int, Optional[int]] = dict(
            zip(
                self.active,
                [None] * len(self.active)
                if budget is None
                else split_budget_exact(budget, max(len(self.active), 1)),
            )
        )

    @property
    def num_shards(self) -> int:
        return len(self.state.engines)

    @property
    def results(self) -> Optional[Tuple[KeywordObject, ...]]:
        return self.pending.results

    @property
    def record(self) -> Optional[QueryRecord]:
        return self.pending.record

    def run_shard(self, shard_id: int) -> ShardRun:
        """Serve one active shard's slice of the pinned map under its share.

        The base engine answers for the shard's build-time dataset; objects
        inserted since the last rebalance live in the map's delta buffer and
        are scanned on top (fully charged); tombstoned objects are filtered
        from the combined slice.  The run records into a tracer of its own
        (tracers are single-stack); :meth:`finish` grafts its spans.
        """
        pending, state, share = self.pending, self.state, self.shares[shard_id]
        rect, words = pending.rect, pending.words
        engine = state.engines[shard_id]
        spent = CostCounter()
        if pending.tracer is not None:
            spent.tracer = Tracer("fanout", "sharding")
        with span_for(spent, f"shard-{shard_id}", "sharding", budget=share):
            objs = list(
                engine.query(
                    rect, words, budget=share, counter=spent, tracer=spent.tracer
                )
            )
            # The shard engine serves one run at a time (the driver's
            # contract), so its newest record is this run's.
            record = engine.last_record
            delta = state.deltas[shard_id]
            if delta:
                required = set(words)
                with span_for(spent, "delta-scan", "sharding"):
                    for obj in delta:
                        spent.charge("objects_examined")
                        spent.charge("comparisons")
                        if rect.contains_point(obj.point) and required <= obj.doc:
                            objs.append(obj)
            if state.tombstones:
                with span_for(spent, "tombstone-filter", "sharding"):
                    kept = []
                    for obj in objs:
                        spent.charge("structure_probes")
                        if obj.oid not in state.tombstones:
                            kept.append(obj)
                    objs = kept
        return ShardRun(shard_id, objs, spent, record)

    def finish(self, runs: Iterable[ShardRun]) -> QueryRecord:
        """Merge the shard runs (in any order) and finish the query's record."""
        pending = self.pending
        by_shard = {run.shard_id: run for run in runs}
        spent = CostCounter()  # merged per-query accumulator, never budgeted
        fallbacks: List[Dict[str, Any]] = []
        slices: List[Dict[str, Any]] = []
        merged: Dict[int, KeywordObject] = {}
        for shard_id in range(self.num_shards):
            run = by_shard.get(shard_id)
            if run is None:
                slices.append(
                    {"shard_id": shard_id, "strategy": "pruned", "budget": 0,
                     "cost": 0, "degraded": False}
                )
                continue
            # The shards partition the objects, so ids cannot repeat; keying
            # by id guards the invariant anyway (an overlap bug must not
            # silently double-report).
            merged.update((obj.oid, obj) for obj in run.objects)
            fallbacks.extend(dict(f, shard=shard_id) for f in run.record.fallbacks)
            slices.append(
                {"shard_id": shard_id, "strategy": run.record.strategy,
                 "budget": self.shares[shard_id], "cost": run.spent.total,
                 "degraded": run.record.degraded}
            )
            spent.merge(run.spent)
            if run.spent.tracer is not None:
                for child in run.spent.tracer.finish().children:
                    pending.tracer.root.graft(child)
        self.engine.metrics.counter("shards_pruned_total").inc(
            self.num_shards - len(by_shard)
        )
        return self.engine._finish(
            pending,
            [merged[oid] for oid in sorted(merged)],
            "sharded",
            spent,
            fallbacks=fallbacks,
            degraded=any(s["degraded"] for s in slices),
            backend=self.engine.backend,
            slices=slices,
        )


class ShardedQueryEngine(ServingBookkeeping):
    """Fan-out serving over ``S`` spatial shards with merged cost traces.

    The external contract matches :class:`QueryEngine` — ``query``/``batch``
    with per-call budget overrides, an LRU result cache, per-query
    :class:`QueryRecord` traces, JSON-safe ``stats()`` — and so does the
    bookkeeping behind it (:class:`~repro.service.engine.ServingBookkeeping`),
    so the CLI and any caller can swap one for the other.  Internally each
    shard runs its own budget-bounded engine (cache disabled; the sharded
    engine caches merged results once), and every query runs the
    :class:`FanoutPlan` described in the module docstring.

    Parameters mirror :class:`QueryEngine`, plus ``shards``.  With
    ``tracing=True`` each query's record carries a finished span tree with
    one ``shard-<id>`` span per shard that ran; the per-shard engines'
    strategy and index spans nest under it.  The ``metrics`` registry
    (private by default) aggregates at the fan-out level; the per-shard
    engines keep their own private registries so shard sub-queries never
    inflate the fan-out's ``queries_total``.
    """

    def __init__(
        self,
        dataset: Dataset,
        shards: int = 4,
        max_k: int = 4,
        default_budget: Optional[int] = None,
        cache_size: int = 128,
        sample_size: int = 256,
        seed: int = 0,
        keep_records: int = 1024,
        tracing: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        backend: str = "cost_model",
        events: Optional[EventLog] = None,
    ):
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        # Before the first _publish_state call below, so the initial shard
        # map's epoch_publish event is emitted too.
        self._init_bookkeeping(
            default_budget, cache_size, keep_records, tracing, metrics, events
        )
        self.dataset = dataset
        self.num_shards = shards
        self.max_k = max_k
        #: Execution backend handed to every shard engine ("auto" resolves
        #: per shard, per query, against that shard's own metrics history).
        self.backend = validate_backend(backend)
        #: Global vocabulary of the build-time dataset, shared across shards
        #: (each shard's inverted index only covers its slice).
        self.vocabulary = dataset.vocabulary
        # Shard-engine build parameters, kept so a rebalance can construct
        # replacement engines with the original configuration.
        self._sample_size = sample_size
        self._seed = seed
        self._keep_records = keep_records
        #: New objects are routed to the shard whose bounds need the least
        #: expansion; once the largest shard exceeds ``rebalance_threshold``
        #: times its fair share (``live_total / shards``), the next mutation
        #: publishes a rebalanced map (fresh ``partition_dataset`` over the
        #: live set).  The largest possible ratio is the shard count, so the
        #: default 1.5 fires for any shard count >= 2.
        self.rebalance_threshold = 1.5
        self._rebalances = 0
        #: Writer-side master copy of every object (tombstoned objects stay
        #: until a rebalance purges them) and each object's owning shard.
        #: Readers never touch these — all read state comes from the map.
        self._objects: Dict[int, KeywordObject] = {
            obj.oid: obj for obj in dataset.objects
        }
        self._next_oid = max(self._objects, default=-1) + 1
        datasets = partition_dataset(dataset, shards)
        self._owner = _owners(datasets)
        self._publish_state(
            ShardMap.fresh(0, datasets, self._build_engines(datasets))
        )

    def _build_engines(self, datasets: Sequence[Dataset]) -> List[QueryEngine]:
        """Fresh per-shard engines with this engine's build configuration."""
        return [
            QueryEngine(
                shard,
                max_k=self.max_k,
                default_budget=None,  # the fan-out hands each call its share
                cache_size=0,  # merged results are cached once, at this level
                sample_size=self._sample_size,
                seed=self._seed,
                keep_records=self._keep_records,
                backend=self.backend,
            )
            for shard in datasets
        ]

    def _publish_state(self, shard_map: ShardMap) -> None:
        """Atomically install the successor shard map (one assignment)."""
        self._state = shard_map
        if self._events is not None:
            self._events.emit(
                "epoch_publish",
                epoch=shard_map.epoch_id,
                shards=len(shard_map.datasets),
                live=shard_map.live_count,
                tombstones=len(shard_map.tombstones),
            )

    # -- published shard map -----------------------------------------------------

    @property
    def epoch(self) -> ShardMap:
        """The currently published shard map (advances on every mutation)."""
        return self._state

    def snapshot(self) -> ShardMap:
        """Pin the current shard map for isolated reads.

        The returned map is immutable: queries against it (directly or via a
        :class:`~repro.service.Snapshot`) keep answering from the pinned
        layout no matter how many inserts, deletes, or rebalances are
        published afterwards — the snapshot-isolated cutover contract.
        """
        return self._state

    def __len__(self) -> int:
        return self._state.live_count

    def _corpus_size(self) -> int:
        return self._state.live_count

    @property
    def shard_datasets(self) -> List[Dataset]:
        """Per-shard base datasets of the published map (delta objects live
        in :attr:`ShardMap.deltas` until a rebalance folds them in)."""
        return list(self._state.datasets)

    @property
    def shard_engines(self) -> List[QueryEngine]:
        """Per-shard engines of the published map."""
        return list(self._state.engines)

    @property
    def shard_bounds(self) -> List[Optional[Rect]]:
        """Per-shard pruning boxes (``None`` for empty shards), refreshed on
        every publish; the fan-out plan skips shards whose box misses the
        query rectangle."""
        return list(self._state.bounds)

    # -- updates -----------------------------------------------------------------

    def insert(self, point: Sequence[float], doc) -> int:
        """Insert an object; returns its assigned id.

        The object joins the delta buffer of the shard whose bounds need the
        least expansion (ties to the lowest shard id), the shard's pruning
        box is expanded to cover it, and the successor map is published
        atomically — in-flight readers on the previous map finish
        consistently without the new object.  When the insert tips the
        balance past :attr:`rebalance_threshold`, the published map is a
        full rebalance instead (see :meth:`rebalance`).
        """
        coords = tuple(float(c) for c in point)
        state = self._state
        dim = self.dataset.dim
        if len(coords) != dim:
            raise ValidationError(
                f"point is {len(coords)}-dimensional, data is {dim}-dimensional"
            )
        for coord in coords:
            if not math.isfinite(coord):
                raise ValidationError(
                    f"point has a non-finite coordinate ({coord})"
                )
        obj = KeywordObject(oid=self._next_oid, point=coords, doc=frozenset(doc))
        shard_id = self._route(state, coords)
        self._next_oid += 1
        self._objects[obj.oid] = obj
        self._owner[obj.oid] = shard_id
        deltas = tuple(
            delta + (obj,) if sid == shard_id else delta
            for sid, delta in enumerate(state.deltas)
        )
        bounds = tuple(
            _expand_rect(bound, coords) if sid == shard_id else bound
            for sid, bound in enumerate(state.bounds)
        )
        live_sizes = _bump(state.live_sizes, shard_id, 1)
        if self._needs_rebalance(live_sizes, state.tombstones):
            self._publish_state(self._rebalanced_map(state.tombstones, None))
        else:
            self._publish_state(
                state.successor(
                    bounds=bounds,
                    deltas=deltas,
                    live_sizes=live_sizes,
                    live_inputs=_bump(state.live_inputs, shard_id, len(obj.doc)),
                )
            )
        self._meter_shards()
        return obj.oid

    def delete(self, oid: int) -> None:
        """Tombstone an object; physical removal happens at the next rebalance.

        Deleting an unknown id or an already-tombstoned id raises
        :class:`~repro.errors.ValidationError` with **no** side effects: no
        tombstone is recorded and no map is published.  Once half the stored
        objects are dead, the next delete publishes a rebalanced map (the
        purge) instead of another tombstone-only map.
        """
        state = self._state
        if oid not in self._objects:
            raise ValidationError(f"unknown object id {oid}")
        if oid in state.tombstones:
            raise ValidationError(f"object {oid} already deleted")
        tombstones = state.tombstones | {oid}
        shard_id = self._owner[oid]
        live_sizes = _bump(state.live_sizes, shard_id, -1)
        if len(tombstones) * 2 >= len(self._objects) or self._needs_rebalance(
            live_sizes, tombstones
        ):
            self._publish_state(self._rebalanced_map(tombstones, None))
        else:
            self._publish_state(
                state.successor(
                    tombstones=tombstones,
                    live_sizes=live_sizes,
                    live_inputs=_bump(
                        state.live_inputs, shard_id, -len(self._objects[oid].doc)
                    ),
                )
            )
        self._meter_shards()

    def rebalance(self, shards: Optional[int] = None) -> None:
        """Re-partition the live set into ``shards`` fresh shards now.

        The new map — datasets re-cut by :func:`partition_dataset`, fresh
        engines, tight bounds, empty deltas, tombstones purged — is built
        entirely off to the side and published in one step: readers pinned
        to the old map (e.g. through :class:`~repro.service.SnapshotManager`)
        keep a consistent view of the pre-cutover layout, new queries see
        the rebalanced layout.  The imbalance trigger calls this implicitly;
        it is public for operator-driven splits (``shards`` > current count).
        """
        self._publish_state(self._rebalanced_map(self._state.tombstones, shards))
        self._meter_shards()

    def _route(self, state: ShardMap, coords: Tuple[float, ...]) -> int:
        """The shard whose pruning box needs the least L1 expansion."""
        best_id = 0
        best_cost: Optional[float] = None
        for shard_id, bound in enumerate(state.bounds):
            if bound is None:
                cost = 0.0  # an empty shard absorbs the point for free
            else:
                cost = sum(
                    max(b_lo - c, 0.0) + max(c - b_hi, 0.0)
                    for b_lo, b_hi, c in zip(bound.lo, bound.hi, coords)
                )
            if best_cost is None or cost < best_cost:
                best_id, best_cost = shard_id, cost
        return best_id

    def _needs_rebalance(
        self, live_sizes: Tuple[int, ...], tombstones: FrozenSet[int]
    ) -> bool:
        """Has the partition balance decayed past the threshold?

        Balance is the largest shard's live size over the exact fair share
        ``live_total / shards`` (a fresh :func:`partition_dataset` achieves
        it up to one object); dead weight counts separately through the
        half-dead purge in :meth:`delete`.  A one-object slack absorbs the
        tiny-count regime where a single insert swings the ratio.
        """
        live_total = sum(live_sizes)
        if live_total == 0:
            return bool(tombstones)
        fair = live_total / len(live_sizes)
        return max(live_sizes) > self.rebalance_threshold * fair + 1.0

    def _rebalanced_map(
        self, tombstones: FrozenSet[int], shards: Optional[int]
    ) -> ShardMap:
        """Build (but do not publish) a fresh balanced map over the live set.

        Purges ``tombstones`` from the writer-side master copy, re-cuts the
        survivors with :func:`partition_dataset`, and rebuilds engines and
        bounds.  The caller publishes the result — exactly once per
        mutation, so a reader can never observe a half-cutover layout.
        """
        if shards is not None:
            if shards < 1:
                raise ValidationError(f"shards must be >= 1, got {shards}")
            self.num_shards = shards
        live = [
            obj
            for oid, obj in sorted(self._objects.items())
            if oid not in tombstones
        ]
        self._objects = {obj.oid: obj for obj in live}
        dataset = Dataset(live) if live else Dataset.empty(self.dataset.dim)
        datasets = partition_dataset(dataset, self.num_shards)
        self._owner = _owners(datasets)
        self._rebalances += 1
        self.metrics.counter("rebalances_total").inc()
        if self._events is not None:
            self._events.emit(
                "shard_rebalance",
                epoch=self._state.epoch_id + 1,
                shards=self.num_shards,
                live=len(live),
                purged=len(tombstones),
            )
        return ShardMap.fresh(
            self._state.epoch_id + 1, datasets, self._build_engines(datasets)
        )

    def _meter_shards(self) -> None:
        """Publish the writer's post-mutation shard gauges."""
        state = self._state
        live_total = state.live_count
        self.metrics.gauge("shard_epoch").set(state.epoch_id)
        self.metrics.gauge("shard_live_objects").set(live_total)
        self.metrics.gauge("shard_imbalance").set(
            max(state.live_sizes) / (live_total / len(state.live_sizes))
            if live_total
            else 0.0
        )
        self.metrics.gauge("shard_tombstone_fraction").set(
            len(state.tombstones) / max(len(self._objects), 1)
        )

    # -- serving ----------------------------------------------------------------

    def plan(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> FanoutPlan:
        """Start one fan-out: pin, validate, look up, prune and split.

        The caller runs the plan's active shards and finishes it (see
        :class:`FanoutPlan`); :meth:`query` does both inline.
        """
        # Pin the published map once: the whole fan-out (and the cache key)
        # runs against one consistent shard layout even if a writer
        # publishes an insert or a rebalance cutover mid-flight.  The map's
        # epoch is part of the key, so a mutation implicitly invalidates
        # every cached merged result from older layouts.
        state = self._state
        pending = self._begin(
            rect, keywords, budget, counter, epoch=state.epoch_id,
            root=("sharded_query", "sharding"), shards=len(state.engines),
        )
        return FanoutPlan(self, pending, state)

    def query(
        self,
        rect: Union[Rect, Sequence[float]],
        keywords: Sequence[int],
        budget: Optional[int] = None,
        counter: Optional[CostCounter] = None,
    ) -> Tuple[KeywordObject, ...]:
        """Fan one query out across the shards it touches; merge the answers.

        Same contract as :meth:`QueryEngine.query`: exact answers as an
        immutable tuple (sorted by object id — the shard merge defines a
        deterministic order), a per-query trace in :attr:`last_record`, and
        ``BudgetExceeded`` never escaping.
        """
        plan = self.plan(rect, keywords, budget, counter)
        if plan.record is None:
            plan.finish([plan.run_shard(shard_id) for shard_id in plan.active])
        return plan.results

    # -- observability -----------------------------------------------------------

    def planner_stats(self) -> Dict[str, Any]:
        """The stable statistics feed: fan-out cells plus every shard's.

        Rolls the per-shard engines' collectors into the fan-out's own via
        the exact pooled merge, so the rendering covers both the merged
        ``sharded`` strategy and the per-shard strategy choices.
        """
        merged = StatsCollector()
        merged.merge(self.stats_collector)
        for engine in self.shard_engines:
            merged.merge(engine.stats_collector)
        return merged.planner_stats()

    def stats(self) -> Dict[str, Any]:
        """Lifetime statistics with a per-shard breakdown (JSON-safe).

        ``dataset`` describes the published map (live objects and input
        size after every insert, delete and rebalance), except for
        ``vocabulary``, which is the build-time dataset's.
        """
        stats = super().stats()
        stats["degraded_slices"] = self._degraded_slices
        stats["dataset"]["vocabulary"] = len(self.vocabulary)
        state = self._state
        stats["shards"] = {
            "count": self.num_shards,
            "sizes": [len(shard) for shard in state.datasets],
            "epoch": state.epoch_id,
            "live_sizes": list(state.live_sizes),
            "delta_sizes": [len(delta) for delta in state.deltas],
            "tombstones": len(state.tombstones),
            "rebalances": self._rebalances,
            "per_shard": [
                {
                    "shard_id": shard_id,
                    "objects": len(engine.dataset),
                    "input_size": engine.dataset.total_doc_size,
                    "cost": engine.counter.snapshot(),
                    "degraded": engine.stats()["degraded"],
                }
                for shard_id, engine in enumerate(state.engines)
            ],
        }
        return stats

    @property
    def input_size(self) -> int:
        """``N`` of the live objects in the published map (O(shards))."""
        return sum(self._state.live_inputs)

    @property
    def space_units(self) -> int:
        """Sum of the per-shard engines' stored entries."""
        return sum(engine.space_units for engine in self.shard_engines)


def _bounding_rect(dataset: Dataset) -> Optional[Rect]:
    """Tightest axis-aligned box around ``dataset`` (``None`` when empty)."""
    if not len(dataset):
        return None
    points = [obj.point for obj in dataset.objects]
    lo = tuple(min(p[axis] for p in points) for axis in range(dataset.dim))
    hi = tuple(max(p[axis] for p in points) for axis in range(dataset.dim))
    return Rect(lo, hi)


def _expand_rect(bounds: Optional[Rect], point: Tuple[float, ...]) -> Rect:
    """The tightest box covering ``bounds`` and ``point``."""
    if bounds is None:
        return Rect(point, point)
    lo = tuple(min(b, p) for b, p in zip(bounds.lo, point))
    hi = tuple(max(b, p) for b, p in zip(bounds.hi, point))
    return Rect(lo, hi)


def _bump(values: Tuple[int, ...], index: int, delta: int) -> Tuple[int, ...]:
    """``values`` with ``delta`` added at ``index``."""
    return tuple(v + delta if i == index else v for i, v in enumerate(values))


def _owners(datasets: Sequence[Dataset]) -> Dict[int, int]:
    """Each object's owning shard id."""
    return {
        obj.oid: shard_id
        for shard_id, shard in enumerate(datasets)
        for obj in shard.objects
    }
