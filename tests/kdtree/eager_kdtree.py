"""Reference kd-tree for the oracle tests: the recursive, eager build.

This is the construction :class:`repro.kdtree.KdTree` used before nodes
split lazily, kept verbatim (build, range reporting and crossing counts) so
the lazy tree can be compared with it node by node.  Not used by the
library.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.costmodel import CostCounter, ensure_counter
from repro.geometry.rectangles import Rect


class EagerNode:
    __slots__ = ("cell", "level", "axis", "split_value", "children", "indices", "size")

    def __init__(self, cell: Rect, level: int):
        self.cell = cell
        self.level = level
        self.axis: int = -1
        self.split_value: float = float("nan")
        self.children: List["EagerNode"] = []
        self.indices: Optional[np.ndarray] = None
        self.size: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class EagerKdTree:
    def __init__(
        self,
        points: Sequence[Sequence[float]],
        leaf_size: int = 1,
        root_cell: Optional[Rect] = None,
    ):
        arr = np.asarray(points, dtype=float)
        self.points = arr
        self.dim = arr.shape[1]
        self.leaf_size = leaf_size
        if root_cell is None:
            root_cell = Rect(arr.min(axis=0) - 1.0, arr.max(axis=0) + 1.0)
        self.root = self._build(np.arange(arr.shape[0]), root_cell, 0)

    def _build(self, indices: np.ndarray, cell: Rect, level: int) -> EagerNode:
        node = EagerNode(cell, level)
        node.size = int(indices.shape[0])
        if node.size <= self.leaf_size:
            node.indices = indices
            return node
        axis = level % self.dim
        mid = node.size // 2
        coords = self.points[indices, axis]
        order = np.argpartition(coords, mid)
        indices = indices[order]
        split_value = float(self.points[indices[mid], axis])
        split_value = min(max(split_value, cell.lo[axis]), cell.hi[axis])
        node.axis = axis
        node.split_value = split_value
        left_cell, right_cell = cell.split(axis, split_value)
        node.children = [
            self._build(indices[:mid], left_cell, level + 1),
            self._build(indices[mid:], right_cell, level + 1),
        ]
        return node

    def nodes(self) -> Iterator[EagerNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_indices(self, node: EagerNode) -> np.ndarray:
        if node.is_leaf:
            return node.indices
        parts = [self.subtree_indices(child) for child in node.children]
        return np.concatenate(parts) if parts else np.empty(0, dtype=int)

    def range_query(self, rect: Rect, counter: Optional[CostCounter] = None) -> List[int]:
        counter = ensure_counter(counter)
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.charge("nodes_visited")
            if not rect.intersects(node.cell):
                continue
            if node.is_leaf:
                for idx in node.indices:
                    counter.charge("objects_examined")
                    if rect.contains_point(self.points[idx]):
                        result.append(int(idx))
                continue
            if rect.covers(node.cell):
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    result.append(int(idx))
                continue
            stack.extend(node.children)
        return result

    def count_crossing_nodes(self, rect: Rect) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.cell) or rect.covers(node.cell):
                continue
            count += 1
            stack.extend(node.children)
        return count


def node_record(node) -> tuple:
    """Everything observable about one node, comparable with ``==``.

    NaN split values (leaves) become ``None`` so equal records compare equal.
    """
    indices = node.indices
    return (
        node.cell.lo,
        node.cell.hi,
        node.level,
        node.size,
        node.axis,
        None if math.isnan(node.split_value) else node.split_value,
        node.is_leaf,
        None if indices is None else (str(indices.dtype), indices.tolist()),
    )


def walk(tree) -> List[tuple]:
    """Pre-order records of every node of ``tree`` (lazy or eager)."""
    return [node_record(node) for node in tree.nodes()]
