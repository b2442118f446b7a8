"""Real text in, guarantees out: the tokenization layer end to end.

Builds a small review corpus with (price, rating) attributes, turns the raw
text into the paper's integer-keyword model via :mod:`repro.text`, indexes
it, and serves mixed structured+keyword queries — including the hybrid
planner that races the fused index against the naive strategies.

Run with:  python examples/text_search.py
"""

import random

from repro import CostCounter, Rect
from repro.reporting import print_table
from repro.core.planner import HybridPlanner
from repro.text import dataset_from_texts

PHRASES = {
    "budget": ["cheap and cheerful", "great value", "bargain stay", "basic but clean"],
    "family": ["kids loved the pool", "family friendly", "close to the playground"],
    "luxury": ["spa was superb", "five star service", "rooftop bar with a view"],
    "work": ["fast wifi", "quiet desk", "close to the convention center"],
}


def synth_review(rng) -> str:
    theme = rng.choice(list(PHRASES))
    parts = rng.sample(PHRASES[theme], k=min(2, len(PHRASES[theme])))
    extras = rng.sample(
        ["free parking", "friendly staff", "good breakfast", "pet friendly"],
        k=rng.randint(0, 2),
    )
    return ". ".join(parts + extras)


def main() -> None:
    rng = random.Random(4)
    count = 2000
    points = []
    texts = []
    for _ in range(count):
        price = rng.lognormvariate(4.8, 0.5)
        rating = min(10.0, max(0.0, rng.gauss(7.5, 1.5)))
        points.append((price, rating))
        texts.append(synth_review(rng))

    vocab, data = dataset_from_texts(points, texts, min_count=2)
    print(
        f"corpus: {count} reviews, vocabulary {len(vocab)} tokens, "
        f"N = {data.total_doc_size}"
    )

    planner = HybridPlanner(data, k=2)
    queries = [
        ("wifi & quiet, any price", Rect.full(2), ("wifi", "quiet")),
        ("pool & family, under $150", Rect((0.0, 0.0), (150.0, 10.0)), ("pool", "family")),
        ("spa & rooftop, rating >= 8", Rect((0.0, 8.0), (10_000.0, 10.0)), ("spa", "rooftop")),
    ]
    rows = []
    for label, rect, tokens in queries:
        words = vocab.query_keywords(*tokens)
        counter = CostCounter()
        found = planner.query(rect, words, counter=counter)
        rows.append(
            {
                "query": label,
                "answers": len(found),
                "strategy": planner.last_plan["choice"],
                "cost_units": counter.total,
            }
        )
    print_table(rows, title="planned keyword+structured queries:")

    # Show one answer with its decoded document.
    words = vocab.query_keywords("wifi", "quiet")
    sample = planner.query(Rect.full(2), words)[:3]
    for obj in sample:
        tokens = sorted(vocab.decode(obj.doc))
        print(
            f"  review {obj.oid}: ${obj.point[0]:.0f}, rating "
            f"{obj.point[1]:.1f}, tokens={tokens}"
        )


if __name__ == "__main__":
    main()
