"""Standardized machine-readable benchmark output (``BENCH_<name>.json``).

Every bench in ``benchmarks/`` emits one of these next to its text
output so the perf trajectory is diffable across commits:

    {
        "schema": "repro-bench/1",
        "name": "e9_index_speedup",
        "scenarios": [
            {"scenario": "name_query_indexed", "size": 8000, "reps": 5,
             "median_s": 0.0012, "p90_s": 0.0014, ...extras...},
            ...
        ],
        "metrics": {<MetricsRegistry.snapshot()>}
    }

:func:`compare` is the engine behind ``benchmarks/check_regression.py``:
it pairs scenarios by (scenario, size) and flags any whose median wall
time regressed more than the threshold (default 20%).  Scenarios may
additionally carry memory fields (``peak_rss_kb``, from
``benchmarks/_emit.py``'s sampler); when a matched pair carries one on
*both* sides it is compared under the same relative-threshold rules,
and flagged entries say which metric tripped via their ``metric`` key.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Version tag carried by every bench JSON file.
BENCH_SCHEMA = "repro-bench/1"

#: check_regression's default tolerance: >20% slower fails.
DEFAULT_THRESHOLD = 0.2


def percentile(samples, fraction: float) -> float:
    """Nearest-rank-interpolated percentile of a non-empty sample list
    (an empty one raises :class:`ValueError`)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample list")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def scenario(name: str, size, samples, **extra) -> dict:
    """One scenario entry from raw wall-time samples (seconds)."""
    entry = {
        "scenario": name,
        "size": size,
        "reps": len(samples),
        "median_s": percentile(samples, 0.5),
        "p90_s": percentile(samples, 0.9),
        "min_s": min(samples),
    }
    entry.update(extra)
    return entry


def write_bench_json(
    directory,
    name: str,
    scenarios: list,
    metrics_snapshot: dict | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` into ``directory`` and return its path."""
    path = Path(directory) / f"BENCH_{name}.json"
    payload = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "scenarios": scenarios,
        "metrics": metrics_snapshot or {},
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def load(path) -> dict:
    """Load and sanity-check one bench JSON file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    return payload


def compare(
    baseline: dict,
    current: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Pair scenarios by (scenario, size) and flag median-time regressions.

    Returns ``{"regressions": [...], "improvements": [...], "matched": n,
    "unmatched": [...]}``.  A regression is a matched scenario whose
    current median exceeds baseline by more than ``threshold``
    (relative).  Scenarios present on only one side are listed as
    unmatched, never flagged.

    Memory is held to the same contract as time: when both sides of a
    matched pair carry ``peak_rss_kb``, its relative growth is checked
    against the same threshold and flagged as a separate entry with
    ``metric: "peak_rss_kb"`` (time entries say ``metric: "median_s"``).
    A side without the field — an older baseline, a bench that never
    sampled — is simply not compared on memory, never flagged.
    """

    def keyed(payload):
        return {
            (entry["scenario"], entry.get("size")): entry
            for entry in payload.get("scenarios", [])
        }

    base = keyed(baseline)
    cur = keyed(current)
    regressions, improvements, unmatched = [], [], []
    for key in sorted(set(base) | set(cur), key=str):
        if key not in base or key not in cur:
            unmatched.append({"scenario": key[0], "size": key[1]})
            continue
        for metric in ("median_s", "peak_rss_kb"):
            before = base[key].get(metric)
            after = cur[key].get(metric)
            if before is None or after is None:
                continue
            ratio = (after / before) if before > 0 else math.inf
            entry = {
                "scenario": key[0],
                "size": key[1],
                "metric": metric,
                f"baseline_{metric}": before,
                f"current_{metric}": after,
                "ratio": round(ratio, 4),
            }
            if ratio > 1 + threshold:
                regressions.append(entry)
            elif ratio < 1 - threshold:
                improvements.append(entry)
    return {
        "regressions": regressions,
        "improvements": improvements,
        "matched": len(set(base) & set(cur)),
        "unmatched": unmatched,
    }


__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_THRESHOLD",
    "percentile",
    "scenario",
    "write_bench_json",
    "load",
    "compare",
]
