"""The paper's §1 motivating scenario: Hotel(price, rating, Doc).

Builds a synthetic hotel relation and answers the paper's two example
conditions with keywords attached:

  C1  price ∈ [100, 200] and rating >= 8          (an ORP-KW query)
  C2  c1*price + c2*(10 - rating) <= c3           (an LC-KW query)

plus a nearest-hotel query, and compares the indexes' RAM-model cost with
the two naive solutions the paper starts from.

Run with:  python examples/hotel_search.py
"""

from repro import CostCounter, LcKwIndex, LinfNnIndex, OrpKwIndex
from repro.reporting import print_table
from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.workloads.scenarios import (
    condition_c1,
    condition_c2,
    hotel_dataset,
    keywords_for,
)


def main() -> None:
    hotels = hotel_dataset(5000, seed=42)
    print(
        f"hotel relation: {len(hotels)} tuples, total tag mass N = "
        f"{hotels.total_doc_size}"
    )
    tags = keywords_for(["pool", "free-parking"])

    # ---- C1: rectangle condition + keywords (ORP-KW) ------------------------
    print("\n-- C1: price in [100, 200], rating >= 8, pool & free-parking --")
    orp = OrpKwIndex(hotels, k=2)
    structured = StructuredOnlyIndex(hotels)
    keywords = KeywordsOnlyIndex(hotels)

    rect = condition_c1(100.0, 200.0, 8.0)
    rows = []
    for name, runner in (
        ("OrpKwIndex (Thm 1)", lambda c: orp.query(rect, tags, counter=c)),
        ("structured-only naive", lambda c: structured.query_rect(rect, tags, c)),
        ("keywords-only naive", lambda c: keywords.query_rect(rect, tags, c)),
    ):
        counter = CostCounter()
        found = runner(counter)
        rows.append({"solution": name, "answers": len(found), "cost_units": counter.total})
    print_table(rows, title="same answers, very different work:")

    sample = sorted(orp.query(rect, tags), key=lambda h: h.point[0])[:5]
    for hotel in sample:
        print(f"  ${hotel.point[0]:6.0f}/night  rating {hotel.point[1]:.1f}")

    # ---- C2: linear trade-off condition + keywords (LC-KW) -------------------
    print("\n-- C2: price + 60*(10 - rating) <= 400, pool & free-parking --")
    lc = LcKwIndex(hotels, k=2)
    constraint = condition_c2(1.0, 60.0, 400.0)
    rows = []
    for name, runner in (
        ("LcKwIndex (Thm 5)", lambda c: lc.query([constraint], tags, counter=c)),
        (
            "structured-only naive",
            lambda c: structured.query_constraints([constraint], tags, c),
        ),
        (
            "keywords-only naive",
            lambda c: keywords.query_constraints([constraint], tags, c),
        ),
    ):
        counter = CostCounter()
        found = runner(counter)
        rows.append({"solution": name, "answers": len(found), "cost_units": counter.total})
    print_table(rows, title="the joint constraint, three ways:")

    # ---- nearest hotels with keywords (Corollary 4) ---------------------------
    print("-- 3 hotels closest to ($150, rating 9.0) with pool & free-parking --")
    nn = LinfNnIndex(hotels, k=2)
    for hotel in nn.query((150.0, 9.0), 3, tags):
        print(f"  hotel {hotel.oid}: ${hotel.point[0]:.0f}, rating {hotel.point[1]:.1f}")


if __name__ == "__main__":
    main()
