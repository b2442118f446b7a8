"""Geographic keyword search over bounding boxes: RR-KW with d = 2.

The paper motivates d >= 2 rectangle reporting with "geographic entities
whose regions are modeled as minimum bounding rectangles" [34].  This
example builds a synthetic city of venues (each an MBR with amenity tags),
answers "which venues overlapping this map viewport have both tags?" with
the Corollary-3 index, and contrasts the worst-case picture with the
system-community IR-tree on point data.

Run with:  python examples/geo_regions.py
"""

import random

from repro import CostCounter, Dataset, Rect, RectangleObject
from repro.reporting import print_table
from repro.core.baselines import NaiveRectangleIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.rr_kw import RrKwIndex
from repro.irtree import IrTree

AMENITIES = {
    "cafe": 1,
    "wifi": 2,
    "outdoor-seating": 3,
    "wheelchair": 4,
    "parking": 5,
    "takeaway": 6,
}


def build_city(num_venues: int, seed: int = 0):
    """Venues as MBRs in a 10km x 10km city with correlated tags."""
    rng = random.Random(seed)
    venues = []
    for oid in range(num_venues):
        x, y = rng.uniform(0, 10), rng.uniform(0, 10)
        w, h = rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05)
        tags = {AMENITIES["cafe"]} if rng.random() < 0.4 else set()
        for tag in ("wifi", "outdoor-seating", "wheelchair", "parking", "takeaway"):
            if rng.random() < 0.3:
                tags.add(AMENITIES[tag])
        if not tags:
            tags.add(AMENITIES["takeaway"])
        venues.append(
            RectangleObject(oid=oid, lo=(x, y), hi=(x + w, y + h), doc=frozenset(tags))
        )
    return venues


def main() -> None:
    venues = build_city(3000, seed=7)
    index = RrKwIndex(venues, k=2)
    naive = NaiveRectangleIndex(venues)
    print(f"city: {len(venues)} venues, tag mass N = {index.input_size}")

    viewport = ((4.0, 4.0), (6.0, 6.0))
    tags = [AMENITIES["cafe"], AMENITIES["wifi"]]

    rows = []
    answers = {}
    for name, runner in (
        ("RrKwIndex (Cor 3)", lambda c: index.query(viewport[0], viewport[1], tags, counter=c)),
        ("scan all venues", lambda c: naive.query_structured(viewport[0], viewport[1], tags, c)),
        ("posting-list scan", lambda c: naive.query_keywords(viewport[0], viewport[1], tags, c)),
    ):
        counter = CostCounter()
        found = runner(counter)
        answers[name] = sorted(v.oid for v in found)
        rows.append({"solution": name, "answers": len(found), "cost_units": counter.total})
    assert len({tuple(a) for a in answers.values()}) == 1
    print_table(rows, title="cafes with wifi overlapping the viewport:")

    # The worst-case story: centroid points, one ubiquitous tag pair that
    # never co-occurs -- the IR-tree cannot prune, Theorem 1 can.
    rng = random.Random(1)
    n = 4000
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    docs = [[1] if i % 2 == 0 else [2] for i in range(n)]
    ds = Dataset.from_points(points, docs)
    irtree = IrTree(ds)
    theorem1 = OrpKwIndex(ds, k=2)
    rows = []
    for name, runner in (
        ("IR-tree (system community)", lambda c: irtree.query(Rect.full(2), [1, 2], counter=c)),
        ("OrpKwIndex (this paper)", lambda c: theorem1.query(Rect.full(2), [1, 2], counter=c)),
    ):
        counter = CostCounter()
        found = runner(counter)
        rows.append({"index": name, "answers": len(found), "cost_units": counter.total})
    print_table(
        rows,
        title="adversarial tags (never co-occur): why worst-case bounds matter:",
    )


if __name__ == "__main__":
    main()
