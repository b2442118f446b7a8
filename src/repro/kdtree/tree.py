"""The kd-tree (§3.1).

Built on a (multi)set ``P`` of points in R^d:

* every node ``u`` carries a closed rectangular cell ``Δ_u`` covering all the
  points in its subtree;
* the root cell covers the whole space (here: a caller-supplied universe
  rectangle enclosing all data — equivalent for every query that matters,
  since only data points can be reported);
* an internal node at level ``ℓ`` splits its cell with an axis-parallel
  hyperplane orthogonal to axis ``ℓ mod d``, placed at the median of its
  points; the child cells touch only at the splitting hyperplane and are
  interior disjoint.

Splitting at the *index* median (rather than a value median) keeps the exact
balance invariant ``|P_u| <= ceil(|P|/2^level)`` even when coordinates repeat
— repeats are what the verbose set of §3.2 produces, so this matters.

Nodes split lazily.  The constructor validates the points and creates only
the root, holding the index array of its points; a node splits the first
time anything reads its ``children``, ``indices``, ``axis``, ``split_value``
or ``is_leaf``.  The traversals below split the nodes they reach.  A node's
split depends only on its own index array, cell and level: one
``numpy.argpartition`` at ``size // 2`` on axis ``level mod d``, the
median clamped into the cell, then ``cell.split``.  That is the same rule,
applied to the same inputs, as a recursive top-down build, so whatever part
of the tree is expanded is identical node for node — cells, levels, sizes,
axes, split values and leaf index arrays in the same order — to the tree
an eager build makes.  A full expansion costs ``O(|P| log |P|)`` time, but
a reader that stops early (the keyword transform of §3.2 stops below any
node with fewer than ``k`` large keywords) pays only for the nodes it
reads.

Splits are serialized by one module lock and publish ``children`` last, so
threads reading an unexpanded tree at the same time see each node split
exactly once.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..errors import ValidationError
from ..geometry.rectangles import Rect

#: Held while a node splits (see the module docstring).
_SPLIT_LOCK = threading.Lock()


class KdNode:
    """One node of a kd-tree.

    ``cell``, ``level`` and ``size`` are fixed when the node is created; the
    other attributes split the node on first read.
    """

    __slots__ = (
        "cell",
        "level",
        "size",
        "_tree",
        "_pending",
        "_axis",
        "_split_value",
        "_children",
        "_indices",
    )

    def __init__(self, tree: "KdTree", indices: np.ndarray, cell: Rect, level: int):
        self.cell = cell
        self.level = level
        #: |P_u| — number of points in the subtree.
        self.size = int(indices.shape[0])
        # Until the split: the owning tree and this node's point indices.
        self._tree: Optional["KdTree"] = tree
        self._pending: Optional[np.ndarray] = indices
        self._axis = -1
        self._split_value = float("nan")
        # ``None`` until the split; then the two children, or ``[]``.
        self._children: Optional[List["KdNode"]] = None
        self._indices: Optional[np.ndarray] = None

    def _split(self) -> None:
        with _SPLIT_LOCK:
            if self._children is not None:
                return
            tree, indices = self._tree, self._pending
            if self.size <= tree.leaf_size:
                self._indices = indices
                children: List[KdNode] = []
            else:
                axis = self.level % tree.dim
                mid = self.size // 2
                order = np.argpartition(tree.points[indices, axis], mid)
                indices = indices[order]
                split_value = float(tree.points[indices[mid], axis])
                # Clamp into the cell (repeated coordinates can push the
                # median onto the cell boundary; the split degenerates
                # gracefully).
                cell = self.cell
                split_value = min(max(split_value, cell.lo[axis]), cell.hi[axis])
                left_cell, right_cell = cell.split(axis, split_value)
                self._axis = axis
                self._split_value = split_value
                children = [
                    KdNode(tree, indices[:mid], left_cell, self.level + 1),
                    KdNode(tree, indices[mid:], right_cell, self.level + 1),
                ]
            self._tree = self._pending = None
            # Last: readers test ``_children`` without taking the lock.
            self._children = children

    @property
    def children(self) -> List["KdNode"]:
        if self._children is None:
            self._split()
        return self._children

    @property
    def indices(self) -> Optional[np.ndarray]:
        """Point indices stored here (leaves only; ``None`` otherwise)."""
        if self._children is None:
            self._split()
        return self._indices

    @property
    def axis(self) -> int:
        """Splitting axis (``-1`` at a leaf)."""
        if self._children is None:
            self._split()
        return self._axis

    @property
    def split_value(self) -> float:
        """Splitting coordinate (NaN at a leaf)."""
        if self._children is None:
            self._split()
        return self._split_value

    @property
    def is_leaf(self) -> bool:
        if self._children is None:
            self._split()
        return not self._children


class KdTree:
    """kd-tree over ``points`` (an ``(n, d)`` array; duplicates allowed)."""

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        leaf_size: int = 1,
        root_cell: Optional[Rect] = None,
    ):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValidationError("points must be a non-empty (n, d) array")
        if leaf_size < 1:
            raise ValidationError(f"leaf_size must be >= 1, got {leaf_size}")
        if np.isnan(arr).any():
            raise ValidationError("points must not contain NaN coordinates")
        self.points = arr
        self.dim = arr.shape[1]
        self.leaf_size = leaf_size
        if root_cell is None:
            lo = arr.min(axis=0) - 1.0
            hi = arr.max(axis=0) + 1.0
            root_cell = Rect(lo, hi)
        if root_cell.dim != self.dim:
            raise ValidationError("root cell dimensionality mismatch")
        if not (
            (arr >= np.asarray(root_cell.lo)).all()
            and (arr <= np.asarray(root_cell.hi)).all()
        ):
            raise ValidationError("root cell must contain every point")
        self.root = KdNode(self, np.arange(arr.shape[0]), root_cell, 0)

    def expand(self) -> "KdTree":
        """Split every node now, so no later read splits one."""
        for _node in self.nodes():
            pass
        return self

    # -- traversal ---------------------------------------------------------------

    def nodes(self) -> Iterator[KdNode]:
        """Yield every node, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node._children is None:
                node._split()
            yield node
            stack.extend(reversed(node._children))

    def height(self) -> int:
        """Maximum level over all nodes."""
        return max(node.level for node in self.nodes())

    def subtree_indices(self, node: KdNode) -> np.ndarray:
        """All point indices stored under ``node``."""
        if node._children is None:
            node._split()
        if not node._children:
            return node._indices
        return np.concatenate([self.subtree_indices(child) for child in node._children])

    # -- classic range reporting (the "structured only" baseline) -----------------

    def range_query(
        self, rect: Rect, counter: Optional[CostCounter] = None
    ) -> List[int]:
        """Classic orthogonal range reporting: indices of points in ``rect``.

        Standard kd-tree analysis: ``O(n^(1-1/d) + OUT)`` node visits for a
        d-dimensional tree on ``n`` points.
        """
        counter = ensure_counter(counter)
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.charge("nodes_visited")
            if not rect.intersects(node.cell):
                continue
            if node._children is None:
                node._split()
            if not node._children:
                for idx in node._indices:
                    counter.charge("objects_examined")
                    if rect.contains_point(self.points[idx]):
                        result.append(int(idx))
                continue
            if rect.covers(node.cell):
                # Covered subtree: every point qualifies; pay output cost only.
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    result.append(int(idx))
                continue
            stack.extend(node._children)
        return result

    def region_query(
        self, region, counter: Optional[CostCounter] = None
    ) -> List[int]:
        """Report indices of points inside an arbitrary convex ``region``.

        ``region`` is any object of :mod:`repro.geometry.regions`.  Used by
        the "structured only" baselines for non-rectangular predicates.
        """
        counter = ensure_counter(counter)
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.charge("nodes_visited")
            if not region.intersects(node.cell):
                continue
            if region.covers(node.cell):
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    result.append(int(idx))
                continue
            if node._children is None:
                node._split()
            if not node._children:
                for idx in node._indices:
                    counter.charge("objects_examined")
                    if region.contains_point(self.points[idx]):
                        result.append(int(idx))
                continue
            stack.extend(node._children)
        return result

    def count_crossing_nodes(self, rect: Rect) -> int:
        """Number of nodes whose cells intersect but are not covered by ``rect``.

        This is ``|T_cross|`` of §3.3, the quantity Figure 1's compaction
        argument bounds; exposed for the F1 benchmark.
        """
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.cell) or rect.covers(node.cell):
                continue
            count += 1
            if node._children is None:
                node._split()
            stack.extend(node._children)
        return count
