"""Shared machinery for the benchmark suite.

Every benchmark measures RAM-model *cost units* (see DESIGN.md) against the
paper's predicted bound, prints an ASCII table, and appends the table to
``benchmarks/results/`` so the numbers recorded in EXPERIMENTS.md can be
regenerated.  A representative query additionally runs under
``pytest-benchmark`` for a wall-clock sanity check.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, List, Sequence

from repro.audit.fit import fit_exponent
from repro.audit.sweeps import measure_query as _measure_query
from repro.reporting import format_table
from repro.dataset import Dataset
from repro.trace import MetricsRegistry
from repro.workloads.generators import (
    WorkloadConfig,
    disjoint_pair_dataset,
    planted_dataset,
    zipf_dataset,
)

__all__ = [
    "BENCH_METRICS",
    "RESULTS_DIR",
    "SMALL_SWEEP_OBJECTS",
    "SWEEP_OBJECTS",
    "disjoint_pair_dataset",
    "measure_query",
    "planted_out_dataset",
    "record",
    "slope",
    "standard_dataset",
    "summarize_sweep",
    "theory_bound",
]

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-benchmark metrics accumulator: every measured query feeds its cost
#: distribution here, and :func:`record` snapshots it to
#: ``results/<name>.metrics.json`` next to the table, then resets it — so
#: each table file gets exactly the metrics of the queries behind it.
BENCH_METRICS = MetricsRegistry()

#: Object counts for the main N sweeps (input size N is ~2.5x this).
SWEEP_OBJECTS = (2000, 4000, 8000, 16000)
#: Smaller sweep for the expensive builds (dimension reduction, partition trees).
SMALL_SWEEP_OBJECTS = (1000, 2000, 4000, 8000)


def record(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/.

    Alongside the table, a JSON snapshot of :data:`BENCH_METRICS` (the cost
    distributions of every :func:`measure_query` call since the previous
    ``record``) lands in ``results/<name>.metrics.json``; the registry is
    then reset for the next benchmark.
    """
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    metrics_path = RESULTS_DIR / f"{name}.metrics.json"
    metrics_path.write_text(
        json.dumps(BENCH_METRICS.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    BENCH_METRICS.reset()


def standard_dataset(num_objects: int, dim: int = 2, seed: int = 7) -> Dataset:
    """Zipf-keyword dataset used across the sweeps."""
    config = WorkloadConfig(
        num_objects=num_objects,
        dim=dim,
        vocabulary=48,
        doc_min=1,
        doc_max=4,
        zipf_s=1.0,
        seed=seed,
    )
    return zipf_dataset(config)


def planted_out_dataset(
    num_objects: int, out: int, dim: int = 2, seed: int = 5
) -> Dataset:
    """Dataset where exactly ``out`` objects match keywords {1, 2}."""
    return planted_dataset(
        num_objects,
        dim,
        keywords=[1, 2],
        planted_fraction=out / num_objects,
        seed=seed,
        vocabulary=48,
    )


def measure_query(fn) -> Dict[str, float]:
    """Run ``fn(counter)`` and return {'cost': units, 'out': len(result)}.

    Delegates to the audit subsystem's shared measurement hook
    (:func:`repro.audit.sweeps.measure_query`) with :data:`BENCH_METRICS` as
    the registry, so benchmark tables and ``audit run`` account cost
    identically; the next :func:`record` call snapshots the distribution of
    everything measured for its table.
    """
    measured = _measure_query(fn, registry=BENCH_METRICS)
    return {"cost": float(measured["cost"]["total"]), "out": float(measured["out"])}


def theory_bound(n: int, k: int, out: int, log_factor: bool = False) -> float:
    """``N^(1-1/k) * (c + OUT^(1/k))`` with c = log N when requested."""
    base = math.log(max(n, 2)) if log_factor else 1.0
    return n ** (1.0 - 1.0 / k) * (base + out ** (1.0 / k))


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares log-log slope (the audit fitter, without the bootstrap)."""
    return fit_exponent(xs, ys, resamples=0).slope


def summarize_sweep(
    name: str,
    rows: List[Dict[str, float]],
    columns: Sequence[str],
    title: str,
) -> None:
    record(name, format_table(rows, columns=columns, title=title))
