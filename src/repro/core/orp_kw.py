"""ORP-KW: orthogonal range reporting with keywords (Theorem 1).

Given a d-rectangle ``q`` and keywords ``w1..wk``, report every object of
``D`` inside ``q`` whose document contains all ``k`` keywords.  For
``d <= 2`` the index uses ``O(N)`` space and answers a query in
``O(N^(1-1/k) * (1 + OUT^(1/k)))`` time.

Construction = the four framework steps of §3:

1. a kd-tree over the *verbose* point set;
2. active/pivot distribution and large/small keyword classification;
3. the covered/crossing query walk;
4. rank-space reduction to remove the general-position assumption (§3.4).

The class also accepts ``d >= 3`` for the §3.5 remark's ablation: the same
construction works but the crossing sensitivity degrades to
``O(N^(1-1/max{k,d}))`` — Theorem 2's dimension-reduction index
(:class:`~repro.core.dim_reduction.DimReductionOrpKw`) is the right tool
there.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import CostCounter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.rank_space import RankSpaceMap
from ..geometry.rectangles import Rect
from ..geometry.regions import RectRegion
from ..kdtree import KdTree
from .transform import KeywordTransform, QueryStats, verbose_points


class RankSubstrate:
    """Steps 4 and 1 of the construction, which do not depend on ``k``.

    The rank-space map, the dataset in rank coordinates, and the kd-tree
    over its verbose set.  :class:`~repro.core.multi_k.MultiKOrpIndex`
    builds one and shares it across its per-``k`` indexes; the tree splits
    lazily, so it grows only as deep as the deepest transform reads it.
    """

    def __init__(self, dataset: Dataset):
        # Rank space first: gives every object distinct integer coordinates
        # on every axis, i.e. general position for free.
        self.rank_map = RankSpaceMap([obj.point for obj in dataset.objects])
        self.rank_objects: List[KeywordObject] = [
            KeywordObject(
                oid=i,
                point=tuple(float(c) for c in self.rank_map.to_rank_point(i)),
                doc=obj.doc,
            )
            for i, obj in enumerate(dataset.objects)
        ]
        self.originals: List[KeywordObject] = list(dataset.objects)
        # The kd-tree on the verbose set, with a root cell strictly
        # enclosing all rank coordinates (so no data point lies on the root
        # boundary, mirroring the paper's root cell R^d).
        count = len(self.rank_objects)
        root_cell = Rect((-1.0,) * dataset.dim, (float(count),) * dataset.dim)
        self.tree = KdTree(
            verbose_points(self.rank_objects), leaf_size=1, root_cell=root_cell
        )


class OrpKwIndex:
    """The Theorem-1 index for orthogonal range reporting with keywords."""

    def __init__(self, dataset: Dataset, k: int, threshold_scale: float = 1.0):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self._attach(dataset, k, threshold_scale, RankSubstrate(dataset))

    @classmethod
    def _on_substrate(cls, dataset: Dataset, k: int, substrate: RankSubstrate):
        """An index for ``k >= 2`` over an existing ``substrate`` of ``dataset``."""
        index = cls.__new__(cls)
        index._attach(dataset, k, 1.0, substrate)
        return index

    def _attach(
        self,
        dataset: Dataset,
        k: int,
        threshold_scale: float,
        substrate: RankSubstrate,
    ) -> None:
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        self._rank_map = substrate.rank_map
        self._originals = substrate.originals
        # Steps 2 + 3 live in the generic transform.
        self._transform = KeywordTransform(
            substrate.rank_objects, substrate.tree, k,
            threshold_scale=threshold_scale, component="orp_kw",
        )

    # -- queries ---------------------------------------------------------------------

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> List[KeywordObject]:
        """Report ``q ∩ D(w1..wk)`` for the d-rectangle ``q = rect``.

        The rectangle is given in *original* coordinates; the O(log N)
        rank-space conversion of §3.4 happens internally.
        """
        if rect.dim != self.dim:
            raise ValidationError(
                f"query rectangle is {rect.dim}-dimensional, data is {self.dim}-dimensional"
            )
        words = validate_query_keywords(keywords, self.k)
        rank_rect = self._rank_map.rect_to_rank(rect, counter)
        found = self._transform.query(
            RectRegion(rank_rect), words, counter, max_report, stats
        )
        return [self._originals[obj.oid] for obj in found]

    def is_empty(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        budget_factor: float = 16.0,
    ) -> bool:
        """Emptiness query in ``O(N^(1-1/k))`` (the paper's footnote 4).

        Run the reporting query under a hard budget of
        ``budget_factor * N^(1-1/k)`` cost units and with ``max_report=1``;
        if it reports an object, the answer is non-empty; if it exhausts the
        budget without finishing, the answer must also be non-empty (an
        empty-output query always terminates within ``O(N^(1-1/k))``).
        """
        from ..errors import BudgetExceeded

        budget = int(
            budget_factor * (8 + self.input_size ** (1.0 - 1.0 / self.k))
        )
        probe = CostCounter(budget=budget)
        try:
            found = self.query(rect, keywords, counter=probe, max_report=1)
            verdict = not found
        except BudgetExceeded:
            verdict = False
        if counter is not None:
            counter.merge(probe)
        return verdict

    # -- introspection -----------------------------------------------------------------

    @property
    def input_size(self) -> int:
        """``N`` (total document size)."""
        return self._transform.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._transform.space_units

    def space_units_excluding(self, dead) -> int:
        """Stored entries minus the per-object entries of ``dead`` ids.

        ``dead`` holds object ids from this index's build dataset (for the
        dynamized wrapper these are bucket-local positions).  Shared
        keyword-level structure stays counted; see
        :meth:`KeywordTransform.space_units_excluding`.
        """
        return self._transform.space_units_excluding(dead)

    def max_pivot_size(self) -> int:
        """Largest internal pivot set (should be O(1) in rank space)."""
        return self._transform.max_pivot_size()

    def explain(self, rect: Rect, keywords: Sequence[int]) -> QueryStats:
        """Run the query collecting a structural breakdown.

        Returns a :class:`~repro.core.transform.QueryStats` whose
        :meth:`~repro.core.transform.QueryStats.describe` renders a
        human-readable account of where the query spent its time — pivot
        scans, materialized scans, and the two pruning mechanisms.
        """
        stats = QueryStats()
        self.query(rect, keywords, stats=stats)
        return stats
