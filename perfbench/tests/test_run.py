"""End-to-end runs of every workload on shrunken inputs."""

import json
from pathlib import Path

import pytest

from perfbench import bench, inputs, serve

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "CORPUS_OBJECTS", 600)
    monkeypatch.setattr(inputs, "CHURN_BULK", 300)
    monkeypatch.setattr(inputs, "TEMPLATE_POOL", 200)
    monkeypatch.setattr(inputs, "WARMUP_QUERIES", 10)
    monkeypatch.setattr(serve, "MIN_SAMPLES", 30)
    monkeypatch.setattr(serve, "TAIL_MIN_SAMPLES", 60)
    monkeypatch.setattr(serve, "FANOUT_MIN_SAMPLES", 40)
    monkeypatch.setattr(bench, "ROUNDS", 2)


def run_json(capsys, name, seed, trace, root):
    code = bench.run(name, seed, 0.3, trace, root)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_name_and_unit(small, capsys, tmp_path, name, trace):
    code, lines, result = run_json(capsys, name, 1, trace, tmp_path)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: value["unit"] for key, value in result["metrics"].items()
    }
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, float)
        assert any(line.startswith(metric["name"] + " ") and metric["unit"] in line
                   for line in lines[:-1])
        if not trace:
            assert value > 0, metric["name"]
    if trace:
        spans = tmp_path / bench.SPANS_DIR / f"spans-{name}-seed1.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert {"name", "start", "end", "parent", "request", "thread"} <= set(first)


def test_a_second_seed_changes_the_inputs_but_not_the_metric_set(small, capsys, tmp_path):
    one, two = inputs.engine_mixed(1, 0.3, 2), inputs.engine_mixed(2, 0.3, 2)
    assert one.queries[0][0] != two.queries[0][0]
    assert one.queries[0][0] != one.queries[1][0]
    assert inputs.engine_mixed(1, 0.3, 2).queries == one.queries
    assert inputs.sharded_serve(1, 0.3).stream != inputs.sharded_serve(2, 0.3).stream
    inserted = [[op.point for op in inputs.churn(seed, 0.3).ops[0] if op.kind == "insert"]
                for seed in (1, 2)]
    assert inserted[0][:5] != inserted[1][:5]
    assert inputs.churn(1, 0.3).ops[0][:50] == inputs.churn(1, 0.6).ops[0][:50]
    _, _, first = run_json(capsys, "churn", 1, False, tmp_path)
    _, _, second = run_json(capsys, "churn", 2, False, tmp_path)
    assert first["metrics"].keys() == second["metrics"].keys()
    assert first["metrics"] != second["metrics"]


def test_a_wrong_answer_fails_the_run(small, capsys, tmp_path, monkeypatch):
    original = serve.EngineMixed.build

    def build(self):
        engine = original(self)
        query = engine.query

        def drop_last(rect, words, *args, **kwargs):
            answer = query(rect, words, *args, **kwargs)
            return answer[:-1] if len(answer) > 1 else answer

        engine.query = drop_last
        return engine

    monkeypatch.setattr(serve.EngineMixed, "build", build)
    code, _, result = run_json(capsys, "engine_mixed", 1, False, tmp_path)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0

