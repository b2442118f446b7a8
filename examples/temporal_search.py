"""Temporal keyword search: RR-KW with d = 1 (Corollary 3).

The paper cites keyword search over *versioned/temporal documents* [7] as
the d = 1 case of rectangle reporting with keywords: each document carries a
lifespan interval, and a query asks for the documents alive at some time
window that contain all the given keywords.

This example builds a synthetic revision history of wiki-style articles and
answers "which articles mentioning both 'database' and 'index' were live
during [t1, t2]?" through the Corollary-3 index, comparing against scans.

Run with:  python examples/temporal_search.py
"""

import random

from repro import CostCounter, RectangleObject
from repro.reporting import print_table
from repro.core.baselines import NaiveRectangleIndex
from repro.core.rr_kw import RrKwIndex

#: Term vocabulary of the synthetic articles.
TERMS = {
    "database": 1,
    "index": 2,
    "keyword": 3,
    "geometry": 4,
    "theory": 5,
    "systems": 6,
    "hardware": 7,
    "networks": 8,
}


def build_revision_history(num_articles: int, seed: int = 0):
    """Each article version is an interval [created, superseded] plus terms."""
    rng = random.Random(seed)
    versions = []
    oid = 0
    for _article in range(num_articles):
        time = rng.uniform(0.0, 80.0)
        for _revision in range(rng.randint(1, 4)):
            lifespan = rng.uniform(0.5, 10.0)
            terms = frozenset(
                rng.sample(sorted(TERMS.values()), rng.randint(1, 4))
            )
            versions.append(
                RectangleObject(
                    oid=oid, lo=(time,), hi=(time + lifespan,), doc=terms
                )
            )
            oid += 1
            time += lifespan
    return versions


def main() -> None:
    versions = build_revision_history(4000, seed=9)
    index = RrKwIndex(versions, k=2)
    naive = NaiveRectangleIndex(versions)
    print(
        f"revision history: {len(versions)} versions, term mass N = "
        f"{index.input_size}"
    )

    window = (30.0, 32.0)
    words = [TERMS["database"], TERMS["index"]]

    rows = []
    answers = {}
    for name, runner in (
        ("RrKwIndex (Cor 3)", lambda c: index.query((window[0],), (window[1],), words, counter=c)),
        ("scan all versions", lambda c: naive.query_structured((window[0],), (window[1],), words, c)),
        ("posting-list scan", lambda c: naive.query_keywords((window[0],), (window[1],), words, c)),
    ):
        counter = CostCounter()
        found = runner(counter)
        answers[name] = sorted(v.oid for v in found)
        rows.append({"solution": name, "answers": len(found), "cost_units": counter.total})

    assert len(set(map(tuple, answers.values()))) == 1, "solutions disagree!"
    print_table(
        rows,
        title=f"versions alive during {window} mentioning 'database' & 'index':",
    )

    sample = answers["RrKwIndex (Cor 3)"][:5]
    for oid in sample:
        version = next(v for v in versions if v.oid == oid)
        print(
            f"  version {oid}: alive [{version.lo[0]:5.1f}, {version.hi[0]:5.1f}]"
        )


if __name__ == "__main__":
    main()
