"""The brute-force reference every answer is checked against.

A query's true answer is every live object whose document holds all query
keywords (the ``Dataset.matching`` definition) and whose point lies in the
closed query rectangle (the ``Rect.contains_point`` definition).  The oracle
evaluates exactly that by scanning every object, with numpy so that checking
ten thousand answers takes about a second.  It shares no code with the
indexes, so an index bug cannot hide in it.

The churn workload keeps the oracle's live set in step with the index:
``add``/``remove`` mirror each insert and delete by object id.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import Rect


class BruteForce:
    """Per-object arrays indexed by object id, plus a live mask."""

    def __init__(self, capacity: int, dim: int, vocabulary: int):
        self.coords = np.zeros((capacity, dim), dtype=np.float64)
        self.has_word = np.zeros((capacity, vocabulary + 1), dtype=bool)
        self.live = np.zeros(capacity, dtype=bool)

    @classmethod
    def of(cls, objects: Sequence) -> "BruteForce":
        """An oracle holding ``objects`` (anything with oid/point/doc)."""
        capacity = max(obj.oid for obj in objects) + 1
        dim = len(objects[0].point)
        vocabulary = max(max(obj.doc) for obj in objects)
        oracle = cls(capacity, dim, vocabulary)
        for obj in objects:
            oracle.add(obj.oid, obj.point, obj.doc)
        return oracle

    def add(self, oid: int, point: Sequence[float], doc: Iterable[int]) -> None:
        self.coords[oid] = point
        self.has_word[oid] = False
        self.has_word[oid, list(doc)] = True
        self.live[oid] = True

    def remove(self, oid: int) -> None:
        self.live[oid] = False

    def answer(self, rect: Rect, keywords: Iterable[int]) -> np.ndarray:
        """Sorted ids of the live objects matching the query."""
        mask = self.live.copy()
        for word in keywords:
            if word >= self.has_word.shape[1]:
                return np.empty(0, dtype=np.int64)
            mask &= self.has_word[:, word]
        for axis, (lo, hi) in enumerate(zip(rect.lo, rect.hi)):
            column = self.coords[:, axis]
            mask &= (column >= lo) & (column <= hi)
        return np.flatnonzero(mask)

    def check(self, rect: Rect, keywords: Iterable[int], reported: Iterable) -> bool:
        """Whether ``reported`` objects are exactly the true answer
        (no object missing, none extra, none twice)."""
        got = sorted(obj.oid for obj in reported)
        return bool(np.array_equal(got, self.answer(rect, keywords)))
