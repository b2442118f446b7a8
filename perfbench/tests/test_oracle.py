import random

from repro import QueryEngine, Rect

from perfbench import inputs
from perfbench.oracle import BruteForce


def test_oracle_matches_dataset_matching_plus_rectangle_scan():
    dataset = inputs.zipf_corpus(400, seed=3)
    oracle = BruteForce.of(dataset.objects)
    rng = random.Random(5)
    for _ in range(200):
        rect = inputs.log_uniform_rect(rng)
        words = inputs.distinct_words(rng, rng.randint(1, 3), 48)
        want = sorted(
            obj.oid for obj in dataset.matching(words) if rect.contains_point(obj.point)
        )
        assert oracle.answer(rect, words).tolist() == want


def test_oracle_catches_a_dropped_and_a_duplicated_result():
    dataset = inputs.zipf_corpus(400, seed=3)
    oracle = BruteForce.of(dataset.objects)
    engine = QueryEngine(dataset)
    rect, words = Rect((0.0, 0.0), (1.0, 1.0)), (1,)
    answer = engine.query(rect, words)
    assert len(answer) > 1
    assert oracle.check(rect, words, answer)
    assert not oracle.check(rect, words, answer[1:])
    assert not oracle.check(rect, words, answer + answer[:1])


def test_oracle_follows_inserts_and_deletes():
    dataset = inputs.zipf_corpus(50, seed=1)
    oracle = BruteForce(60, 2, 48)
    for obj in dataset.objects:
        oracle.add(obj.oid, obj.point, obj.doc)
    everything = Rect((0.0, 0.0), (1.0, 1.0))
    oracle.add(55, (0.5, 0.5), {1})
    assert 55 in oracle.answer(everything, (1,)).tolist()
    oracle.remove(55)
    assert 55 not in oracle.answer(everything, (1,)).tolist()
    assert oracle.answer(everything, (99,)).tolist() == []
