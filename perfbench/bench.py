"""Runs one workload at one seed and reports its metrics.

``--trace 0`` measures the end-to-end metrics with no instrumentation: the
served index is built several times (``setup_s`` is the median), and after
each build a timed pass serves its own part of the seed's traffic; every
answer is checked.  ``--trace 1`` builds once with the layer wrappers
installed, runs an untraced pass for half the time, then replays exactly the
same operations with the wrappers installed; it reports the per-layer
metrics, the tracing overhead, and writes the spans.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from .layers import instrument, layer_metrics, layer_table
from .serve import WORKLOADS, Pass
from .spans import SpanRecorder
from .speed import NOMINAL_REFERENCE_S, SpeedProbe

CLOCK = time.perf_counter
#: An untraced run builds the served index this many times and, after each
#: build, serves an independent part of the seed's traffic; every end-to-end
#: metric is the median of its per-round values, which keeps a burst of
#: machine noise in one round out of the result, and each round samples
#: traffic of its own, which makes the tail percentiles steadier across
#: seeds than serving the same operations again.
ROUNDS = 3
#: Where a traced run writes its spans, relative to the checkout root.
SPANS_DIR = ".perfbench"

#: The benchmark's declaration, one directory up: the metric names, their
#: units and the order of the report come from it.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


#: Report lines printed beside the declared metrics, not part of the result:
#: the async phase of ``sharded_serve`` (name -> unit).
REPORT_ONLY = {"async_p50_ms": "ms", "async_p99_ms": "ms", "async_qps": "queries/s"}


def declared(section: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    if not samples:
        return 0.0, 0
    ordered = sorted(samples)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Report:
    """Collects metric lines and prints them, the JSON line last."""

    def __init__(self, header: str):
        self.header = header
        self.units = {**declared("end_to_end"), **declared("per_layer"), **REPORT_ONLY}
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.notes: List[str] = []

    def add(self, name: str, value: float, note: str = "") -> None:
        unit = self.units[name]
        self.metrics[name] = {"value": value, "unit": unit}
        self.notes.append(f"{name:32s} {value:14.6g} {unit:14s} {note}".rstrip())

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self, attempted: int, failed: int, keys: Sequence[str]) -> None:
        print(self.header)
        for line in self.notes:
            print(line)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: self.metrics[key] for key in keys},
        }
        print(json.dumps(result, sort_keys=True))


def _median_of_rounds(
    report: Report, name: str, values: Sequence[float], notes: Sequence[str]
) -> None:
    report.add(
        name, statistics.median(values),
        "median of rounds: " + "; ".join(
            f"{value:.6g} ({note})" for value, note in zip(values, notes)
        ),
    )


def _latency(
    report: Report, name: str, rounds: Sequence[Sequence[float]], slow: Sequence[float], q: float
) -> None:
    """Per-round ``q``-quantile at nominal speed; median over rounds."""
    values, notes = [], []
    for samples, factor in zip(rounds, slow):
        value, beyond = percentile(samples, q)
        values.append(value * 1e3 / factor)
        notes.append(
            f"raw={value * 1e3:.4g} slow={factor:.3f} n={len(samples)} beyond={beyond}"
            + ("" if beyond >= 10 else " TOO FEW")
        )
    _median_of_rounds(report, name, values, notes)


def _rate(
    report: Report, name: str, pairs: Sequence[Tuple[int, float]], slow: Sequence[float]
) -> None:
    _median_of_rounds(
        report, name,
        [count / wall * factor for (count, wall), factor in zip(pairs, slow)],
        [f"{count} in {wall:.3f}s slow={factor:.3f}" for (count, wall), factor in zip(pairs, slow)],
    )


def _failures(report: Report, attempted: int, results: Sequence[Pass]) -> int:
    failed = sum(r.failed for r in results)
    report.note(
        f"{'failed_ratio':32s} {failed / max(attempted, 1):14.6g} fraction       "
        f"failed={failed} of {attempted} (raised={sum(r.raised for r in results)} "
        f"shed={sum(r.shed for r in results)} "
        f"mismatched={sum(r.mismatches for r in results)})"
    )
    return failed


def _stream_check(report: Report, timed: Sequence[Pass]) -> None:
    for number, result in enumerate(timed):
        if result.exhausted:
            report.note(
                f"# STREAM EXHAUSTED in round {number + 1}: the timed pass ran out of its "
                "pre-generated operations before its deadline (raise STREAM_RATE in "
                "perfbench/inputs.py)"
            )


def _props(report: Report, result: Pass) -> None:
    for key in sorted(result.props):
        report.note(f"{key:32s} {result.props[key]:14.6g}")


def _workload(name: str, seed: int, seconds: float, parts: int) -> Any:
    """Generate the workload's inputs and oracle, then move every object
    alive so far out of the garbage collector's view (``gc.freeze``).

    Collection stays on for everything the program allocates; only the
    benchmark's own inputs, which live for the whole run, are no longer
    traversed by each full collection.  Otherwise their number, which grows
    with ``--seconds``, would add to the program's measured times (a few
    percent of the build on ``engine_mixed`` and ``churn``).
    """
    workload = WORKLOADS[name](seed, seconds, parts)
    gc.collect()
    gc.freeze()
    return workload


def run_untraced(name: str, seed: int, seconds: float) -> Tuple[Report, int, int]:
    """``ROUNDS`` rounds of build, warm-up and a timed pass, each over its
    own part of the traffic.  Every time is converted to nominal machine speed with the
    reference job timed around and during that round's build or pass (see
    :mod:`perfbench.speed`); each metric is the median of its rounds."""
    probe = SpeedProbe()
    workload = _workload(name, seed, seconds, ROUNDS)
    setups: List[float] = []
    build_slow: List[float] = []
    pass_slow: List[float] = []
    rounds: List[Pass] = []
    served = None
    for number in range(ROUNDS):
        served = None
        gc.collect()
        mark = CLOCK()
        probe.sample()
        start = CLOCK()
        served = workload.build()
        setups.append(CLOCK() - start)
        done = CLOCK()
        probe.sample()
        # The speed may change during the build; average the two sides.
        build_slow.append((probe.factor(mark, start) + probe.factor(done)) / 2)
        if number == 0:
            space = workload.space_per_n(served)
        workload.warm(served)
        mark = CLOCK()
        probe.sample()
        result = workload.run_pass(served, seconds=seconds / ROUNDS, probe=probe, part=number)
        probe.sample()
        pass_slow.append(probe.factor(mark))
        workload.check(result, served)
        rounds.append(result)

    report = Report(f"# perfbench {name} seed={seed} seconds={seconds} trace=0")
    report.note(
        f"# times are at nominal machine speed: measured / slow, where slow is the "
        f"reference job's time / {NOMINAL_REFERENCE_S * 1e3:g} ms (perfbench/speed.py)"
    )
    _median_of_rounds(
        report, "setup_s", [raw / f for raw, f in zip(setups, build_slow)],
        [f"raw={raw:.4f} slow={f:.3f}" for raw, f in zip(setups, build_slow)],
    )
    _latency(report, "query_p50_ms", [r.read_latency for r in rounds], pass_slow, 0.50)
    _latency(report, "query_p99_ms", [r.read_latency for r in rounds], pass_slow, 0.99)
    _rate(report, "throughput_qps", [(r.reads, r.wall) for r in rounds], pass_slow)
    _latency(report, "batch_p50_ms", [r.sync_latency for r in rounds], pass_slow, 0.50)
    _latency(report, "batch_p99_ms", [r.sync_latency for r in rounds], pass_slow, 0.99)
    _rate(report, "ops_per_s", [(r.ops, r.wall) for r in rounds], pass_slow)
    report.add("rss_peak_mb", peak_rss_mib())
    report.add("space_per_n", space)
    if rounds[0].write_latency:
        _latency(report, "write_p50_ms", [r.write_latency for r in rounds], pass_slow, 0.50)
        _latency(report, "write_p99_ms", [r.write_latency for r in rounds], pass_slow, 0.99)
    if rounds[0].async_reads:
        # Converted with the speed of all cores timed around the phase.
        async_slow = [r.async_slow for r in rounds]
        _latency(report, "async_p50_ms", [r.async_latency for r in rounds], async_slow, 0.50)
        _latency(report, "async_p99_ms", [r.async_latency for r in rounds], async_slow, 0.99)
        _rate(report, "async_qps", [(r.async_reads, r.async_wall) for r in rounds], async_slow)
    attempted = sum(r.ops + r.async_reads for r in rounds)
    failed = _failures(report, attempted, rounds)
    _stream_check(report, rounds)
    report.note(f"{'cost.units_per_query':32s} {rounds[0].cost_units:14.6g} units/query")
    _props(report, rounds[0])
    return report, attempted, failed


def run_traced(name: str, seed: int, seconds: float, root: Path) -> Tuple[Report, int, int]:
    """Traced build, untraced pass for half the time, traced replay of the
    same operations; per-layer metrics come from the replay's spans."""
    per_layer = declared("per_layer")
    workload = _workload(name, seed, seconds, 1)
    recorder = SpanRecorder()
    patcher = instrument(recorder)
    try:
        with recorder.span("setup") as setup_root:
            served = workload.build()
    finally:
        patcher.restore()
    plain = workload.build() if workload.mutates else served
    workload.warm(plain)
    base = workload.run_pass(plain, seconds=seconds / 2)
    workload.reset(plain)
    workload.warm(served)
    patcher = instrument(recorder)
    try:
        again = workload.run_pass(served, limits=base.counts, recorder=recorder)
    finally:
        patcher.restore()
    workload.check(base, plain)
    workload.check(again, served)

    extra = {
        "trace.overhead_ratio": (again.wall + again.async_wall) / (base.wall + base.async_wall),
        "cost.units_per_query": base.cost_units,
        "write_p50_ms": percentile(base.write_latency, 0.50)[0] * 1e3,
        "write_p99_ms": percentile(base.write_latency, 0.99)[0] * 1e3,
    }
    extra.update({f"dynamize.{key}": value for key, value in again.dynamize.items()})
    extra.update({key: base.props.get(key, 0.0) for key in per_layer if key.startswith("share.")})
    metrics = layer_metrics(recorder.spans, setup_root, extra)

    out_dir = root / SPANS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    recorder.write_jsonl(spans_path)

    report = Report(f"# perfbench {name} seed={seed} seconds={seconds} trace=1")
    report.note(
        f"# spans: {len(recorder.spans)} written to {spans_path.relative_to(root)}; "
        f"untraced pass {base.wall + base.async_wall:.3f}s, "
        f"traced replay {again.wall + again.async_wall:.3f}s, "
        f"traced set-up {setup_root.duration:.3f}s"
    )
    for key in per_layer:
        report.add(key, float(metrics.get(key, 0.0)))
    report.note("# serving spans by self time: span layer calls total_s self_s")
    for row in layer_table(recorder.spans):
        report.note(
            f"#   {row['span']:36s} {row['layer']:22s} {row['calls']:8d} "
            f"{row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    attempted = base.ops + base.async_reads + again.ops + again.async_reads
    _stream_check(report, [base])
    return report, attempted, _failures(report, attempted, [base, again])


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    if trace:
        report, attempted, failed = run_traced(name, seed, seconds, root)
        keys = list(declared("per_layer"))
    else:
        report, attempted, failed = run_untraced(name, seed, seconds)
        keys = list(declared("end_to_end"))
    report.emit(attempted, failed, keys)
    return 0 if failed == 0 else 1
