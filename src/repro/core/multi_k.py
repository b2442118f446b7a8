"""Serving queries with a *varying* number of keywords.

Every index in the paper fixes ``k`` at construction ("Fix an integer
k >= 2") — the large/small threshold ``N_u^(1-1/k)`` depends on it.  A
deployed system, however, receives queries with one, two, or five keywords.
:class:`MultiKOrpIndex` is the practical wrapper: one Theorem-1 index per
``k`` in ``2..max_k`` plus an inverted index for ``k = 1`` (where scanning
the posting list *is* optimal: the list is exactly the answer candidate
set), and per-query routing.

The per-``k`` indexes share one rank-space map and one kd-tree
(:class:`~repro.core.orp_kw.RankSubstrate`); only the keyword transforms
are per ``k``.  Space: ``O(N * (max_k - 1))`` — a constant blow-up for
constant ``max_k``, which matches the paper's standing assumption that
``k = O(1)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..ksi.inverted import InvertedIndex
from .orp_kw import OrpKwIndex, RankSubstrate


class MultiKOrpIndex:
    """ORP-KW for any keyword count in ``1..max_k``."""

    def __init__(self, dataset: Dataset, max_k: int = 4):
        if max_k < 1:
            raise ValidationError(f"max_k must be >= 1, got {max_k}")
        self.dataset = dataset
        self.max_k = max_k
        self._inverted = InvertedIndex(dataset)
        # Every per-k index shares one rank map and one kd-tree: only the
        # keyword transform depends on k.
        substrate = RankSubstrate(dataset) if max_k >= 2 else None
        self._by_k: Dict[int, OrpKwIndex] = {
            k: OrpKwIndex._on_substrate(dataset, k, substrate)
            for k in range(2, max_k + 1)
        }

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Route to the per-``k`` index matching ``len(keywords)``."""
        counter = ensure_counter(counter)
        words = list(dict.fromkeys(keywords))  # dedupe, keep order
        if not words:
            raise ValidationError("need at least one keyword")
        if len(words) > self.max_k:
            raise ValidationError(
                f"{len(words)} distinct keywords exceed max_k={self.max_k}"
            )
        if len(words) == 1:
            matches = self._inverted.matching_objects(words, counter)
            # Each containment test is a RAM-model step the Table-1
            # benchmarks measure; leaving it un-charged under-counts the
            # k = 1 route by exactly |D(w)| comparisons.
            result = []
            for obj in matches:
                counter.charge("comparisons")
                if rect.contains_point(obj.point):
                    result.append(obj)
            return result
        return self._by_k[len(words)].query(rect, words, counter)

    # -- component access (used by the serving layer) --------------------------

    @property
    def inverted(self) -> InvertedIndex:
        """The shared inverted index (the ``k = 1`` route)."""
        return self._inverted

    def fused_for(self, k: int) -> OrpKwIndex:
        """The Theorem-1 index serving exactly ``k`` keywords (``k >= 2``)."""
        if k not in self._by_k:
            raise ValidationError(
                f"no fused index for k={k} (this index serves k in 2..{self.max_k})"
            )
        return self._by_k[k]

    @property
    def input_size(self) -> int:
        """``N``."""
        return self.dataset.total_doc_size

    @property
    def space_units(self) -> int:
        """Sum over the per-k structures (O(N) each)."""
        return self._inverted.space_units + sum(
            index.space_units for index in self._by_k.values()
        )
