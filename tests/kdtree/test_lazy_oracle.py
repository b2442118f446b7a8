"""The lazily split kd-tree against the recursive eager build.

:mod:`eager_kdtree` keeps the eager construction as the reference.  Every
test here compares the lazy :class:`~repro.kdtree.KdTree` with it: node by
node after a full walk, attribute by attribute on unsplit nodes, through
the Lemma-10 audit probe, across a save/load round trip, and under
concurrent first reads from many threads.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.audit.probes import kd_crossing_report
from repro.core.baselines import StructuredOnlyIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.core.orp_kw import RankSubstrate
from repro.core.transform import verbose_points
from repro.costmodel import CostCounter
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.kdtree import KdTree
from repro.persist import load_index, save_index

from eager_kdtree import EagerKdTree, node_record, walk
from helpers import random_dataset


def _random(n=300, d=2, seed=1):
    return np.random.default_rng(seed).random((n, d)), None


def _duplicates(n=300, seed=2):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 4.0
    heavy = rng.random(n) < 0.6
    pts[heavy] = rng.integers(0, 4, size=(int(heavy.sum()), 2))
    return pts, None


def _rank_verbose(n=150, seed=3):
    substrate = RankSubstrate(random_dataset(random.Random(seed), n))
    count = len(substrate.rank_objects)
    return (
        np.asarray(verbose_points(substrate.rank_objects), dtype=float),
        Rect((-1.0, -1.0), (float(count), float(count))),
    )


POINT_SETS = {
    "random": _random,
    "duplicate_heavy": _duplicates,
    "rank_verbose": _rank_verbose,
    "3d": lambda: _random(n=250, d=3, seed=4),
}


def _pair(name, leaf_size):
    points, root_cell = POINT_SETS[name]()
    return (
        KdTree(points, leaf_size=leaf_size, root_cell=root_cell),
        EagerKdTree(points, leaf_size=leaf_size, root_cell=root_cell),
    )


def _split_count(tree) -> int:
    """Nodes split so far, counted without splitting any."""
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        if node._children is not None:
            count += 1
            stack.extend(node._children)
    return count


@pytest.mark.parametrize("leaf_size", [1, 8])
@pytest.mark.parametrize("name", sorted(POINT_SETS))
class TestNodeByNode:
    def test_full_walk_identical(self, name, leaf_size):
        lazy, eager = _pair(name, leaf_size)
        assert _split_count(lazy) == 0
        assert walk(lazy) == walk(eager)

    def test_any_attribute_read_first_splits(self, name, leaf_size):
        # Read a different attribute first at every node, descending along
        # a seeded random path; each read must see the split node.
        _lazy, eager = _pair(name, leaf_size)
        rng = random.Random(leaf_size)
        for first in ("axis", "split_value", "indices", "is_leaf", "children"):
            lazy, _ = _pair(name, leaf_size)
            node, ref = lazy.root, eager.root
            while True:
                getattr(node, first)
                assert node_record(node) == node_record(ref)
                if ref.is_leaf:
                    break
                side = rng.randrange(2)
                node, ref = node.children[side], ref.children[side]

    def test_queries_then_walk_identical(self, name, leaf_size):
        lazy, eager = _pair(name, leaf_size)
        dim = lazy.dim
        rng = random.Random(7)
        lo, hi = lazy.root.cell.lo, lazy.root.cell.hi
        for _ in range(5):
            corners = [sorted(rng.uniform(lo[i], hi[i]) for _ in range(2)) for i in range(dim)]
            rect = Rect([c[0] for c in corners], [c[1] for c in corners])
            lazy_counter, eager_counter = CostCounter(), CostCounter()
            assert lazy.range_query(rect, lazy_counter) == eager.range_query(rect, eager_counter)
            assert lazy_counter.snapshot() == eager_counter.snapshot()
            assert lazy.count_crossing_nodes(rect) == eager.count_crossing_nodes(rect)
        assert 0 < _split_count(lazy)
        assert walk(lazy) == walk(eager)


class TestSharedSubstrate:
    @pytest.fixture
    def multi(self):
        return MultiKOrpIndex(random_dataset(random.Random(11), 200), max_k=4)

    def test_one_tree_and_one_rank_map_across_k(self, multi):
        fused = [multi.fused_for(k) for k in (2, 3, 4)]
        assert len({id(index._transform.tree) for index in fused}) == 1
        assert len({id(index._rank_map) for index in fused}) == 1

    def test_transforms_split_only_what_they_read(self, multi):
        tree = multi.fused_for(2)._transform.tree
        total = 2 * tree.root.size - 1  # leaf_size 1: a full binary tree
        assert _split_count(tree) < total

    def test_crossing_report_matches_eager_tree(self, multi):
        shared = multi.fused_for(2)._transform.tree
        eager = EagerKdTree(shared.points, leaf_size=1, root_cell=shared.root.cell)
        assert kd_crossing_report(shared).to_dict() == kd_crossing_report(eager).to_dict()
        assert walk(shared) == walk(eager)

    def test_save_load_keeps_sharing_and_splits_after_load(self, multi, tmp_path):
        path = tmp_path / "multi.idx"
        save_index(multi, path)
        loaded = load_index(path, expected_class=MultiKOrpIndex)
        trees = {id(loaded.fused_for(k)._transform.tree) for k in (2, 3, 4)}
        assert len(trees) == 1
        tree = loaded.fused_for(3)._transform.tree
        eager = EagerKdTree(tree.points, leaf_size=1, root_cell=tree.root.cell)
        assert kd_crossing_report(tree).to_dict() == kd_crossing_report(eager).to_dict()
        assert walk(tree) == walk(eager)


def test_structured_only_tree_split_at_build():
    # Served from pool threads: no query may be the one that splits a node.
    tree = StructuredOnlyIndex(random_dataset(random.Random(12), 300))._tree
    eager = EagerKdTree(tree.points, leaf_size=tree.leaf_size)
    assert _split_count(tree) == sum(1 for _ in eager.nodes())


class TestPersistUnsplit:
    def test_tree_saved_before_any_split(self, tmp_path):
        points, _ = _random(n=200, seed=5)
        path = tmp_path / "tree.idx"
        save_index(KdTree(points, leaf_size=8), path)
        loaded = load_index(path, expected_class=KdTree)
        assert loaded.root._children is None
        eager = EagerKdTree(points, leaf_size=8)
        rect = Rect((0.2, 0.1), (0.7, 0.6))
        lazy_counter, eager_counter = CostCounter(), CostCounter()
        assert loaded.range_query(rect, lazy_counter) == eager.range_query(rect, eager_counter)
        assert lazy_counter.snapshot() == eager_counter.snapshot()
        assert walk(loaded) == walk(eager)


class TestRootCellValidation:
    def test_point_outside_root_cell_rejected(self):
        points = [(0.1, 0.1), (0.2, 0.4), (0.9, 0.9), (0.3, 0.2)]
        with pytest.raises(ValidationError):
            KdTree(points, root_cell=Rect((0.0, 0.0), (0.5, 0.5)))

    def test_nan_under_given_root_cell_rejected(self):
        points = [(0.1, 0.1), (float("nan"), 0.4), (0.3, 0.2)]
        with pytest.raises(ValidationError):
            KdTree(points, root_cell=Rect((0.0, 0.0), (1.0, 1.0)))

    def test_nan_without_root_cell_rejected(self):
        with pytest.raises(ValidationError):
            KdTree([(0.1, float("nan")), (0.2, 0.3)])

    def test_points_on_root_boundary_accepted(self):
        tree = KdTree([(0.0, 0.0), (1.0, 1.0)], root_cell=Rect((0.0, 0.0), (1.0, 1.0)))
        assert sorted(tree.range_query(Rect((0.0, 0.0), (1.0, 1.0)))) == [0, 1]


def test_concurrent_first_reads_match_eager(monkeypatch):
    """Eight threads split one fresh tree at once; every answer is exact and
    every node splits exactly once (one ``argpartition`` per internal node)."""
    points, _ = _random(n=3000, seed=6)
    eager = EagerKdTree(points, leaf_size=1)
    rng = random.Random(9)
    rects = []
    for _ in range(24):
        (a, b), (c, d) = sorted([rng.random(), rng.random()]), sorted([rng.random(), rng.random()])
        rects.append(Rect((a, c), (b, d)))
    rects += [Rect((x, 0.0), (x, 1.0)) for x in (0.25, 0.5, 0.75)]
    expected = []
    for rect in rects:
        counter = CostCounter()
        hits = eager.range_query(rect, counter)
        expected.append((hits, counter.snapshot(), eager.count_crossing_nodes(rect)))

    partitions = []
    argpartition = np.argpartition

    def counting_argpartition(*args, **kwargs):
        partitions.append(None)
        return argpartition(*args, **kwargs)

    monkeypatch.setattr(np, "argpartition", counting_argpartition)
    tree = KdTree(points, leaf_size=1)
    threads_n = 8
    barrier = threading.Barrier(threads_n, timeout=30)
    outcomes = [None] * threads_n
    errors = []

    def worker(slot):
        try:
            barrier.wait()
            order = list(range(len(rects)))
            random.Random(slot).shuffle(order)
            got = {}
            for i in order:
                counter = CostCounter()
                hits = tree.range_query(rects[i], counter)
                got[i] = (hits, counter.snapshot(), tree.count_crossing_nodes(rects[i]))
            outcomes[slot] = [got[i] for i in range(len(rects))]
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for outcome in outcomes:
        assert outcome == expected
    # The walk splits whatever the queries left unsplit, in this thread only.
    assert walk(tree) == walk(eager)
    assert len(partitions) == sum(1 for node in eager.nodes() if not node.is_leaf)
