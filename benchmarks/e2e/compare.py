#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base A1.json A2.json A3.json \\
                                      --head B1.json B2.json B3.json

Each file is a record written by ``run.py`` (``benchmarks/results/e2e/``).
For every (metric, workload) pair of the untraced records it prints both
sides' medians and quartiles, the metric's bound from BENCHMARK.json
and a verdict:

* ``regressed`` / ``improved``: the median moved by more than the bound
  and the two interquartile ranges do not overlap;
* ``unresolved``: a side's spread (IQR over median) exceeds the bound,
  the records measured different run lengths or sizes (``seconds``,
  ``smoke``), or the sides ran on different machines (fingerprint) or,
  for a timing, at speeds more than 10% apart (the calibration loop);
* ``same``: otherwise.

When both sides have traced records of a workload, it names the layer
whose share of the wall time moved most.  Exits 1 when a pair
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Calibration medians further apart than this make a timing unresolved.
CALIBRATION_TOLERANCE = 0.10
TIME_UNITS = ("ms", "s", "1/s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], head: list[float], bound: float,
            better: str, comparable: bool = True) -> str:
    """The ROADMAP rule: a move counts only past the bound *and* with
    disjoint interquartile ranges."""
    if not comparable or spread(base) > bound or spread(head) > bound:
        return "unresolved"
    b1, base_median, b3 = quartiles(base)
    h1, head_median, h3 = quartiles(head)
    change = (head_median - base_median) / base_median
    if abs(change) <= bound or (h1 <= b3 and b1 <= h3):
        return "same"
    worse = change > 0 if better == "lower" else change < 0
    return "regressed" if worse else "improved"


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def _values(records: list[dict], workload: str, traced: int) -> dict:
    values: dict[str, list[float]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == traced:
            for name, metric in record["summary"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def comparable(base: list[dict], head: list[dict],
               timed: bool) -> tuple[bool, str]:
    """Whether two sides ran the same work on the same machine and, for
    a timing, at the same speed."""
    if len({(r["seconds"], r["smoke"]) for r in base + head}) > 1:
        return False, "run length or --smoke differ"
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + head}
    if len(prints) > 1:
        return False, "fingerprints differ"
    if not timed:
        return True, ""
    base_speed = statistics.median(r["calibration_s"] for r in base)
    head_speed = statistics.median(r["calibration_s"] for r in head)
    moved = head_speed / base_speed - 1
    if abs(moved) > CALIBRATION_TOLERANCE:
        return False, f"calibration moved {moved:+.0%}"
    return True, ""


def moved_layer(base: dict, head: dict) -> tuple[str, float, float] | None:
    """The layer whose mean share moved most between traced records."""
    moves = []
    for name in base:
        if name.endswith(".share") and name in head:
            before = statistics.mean(base[name])
            after = statistics.mean(head[name])
            moves.append((abs(after - before), name[:-len(".share")],
                          before, after))
    if not moves:
        return None
    _, layer, before, after = max(moves)
    return layer, before, after


def compare(base: list[dict], head: list[dict], bounds: dict) -> list[dict]:
    rows = []
    for workload in sorted({r["workload"] for r in base + head}):
        side_base = [r for r in base if r["workload"] == workload]
        side_head = [r for r in head if r["workload"] == workload]
        if not side_base or not side_head:
            continue
        before = _values(side_base, workload, 0)
        after = _values(side_head, workload, 0)
        for name, declared in bounds.items():
            if name not in before or name not in after:
                continue
            ok, why = comparable(side_base, side_head,
                                 declared["unit"] in TIME_UNITS)
            rows.append({
                "workload": workload, "metric": name,
                "unit": declared["unit"], "bound": declared["bound"],
                "base": quartiles(before[name]),
                "head": quartiles(after[name]),
                "verdict": verdict(before[name], after[name],
                                   declared["bound"], declared["better"], ok),
                "note": why,
            })
        layer = moved_layer(_values(side_base, workload, 1),
                            _values(side_head, workload, 1))
        if layer is not None:
            rows.append({"workload": workload, "layer": layer})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    rows = compare(load(args.base), load(args.head), bounds)
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'bound':>6s}  verdict")
    for row in rows:
        if "layer" in row:
            layer, before, after = row["layer"]
            print(f"{row['workload']:16s} layer share moved most: {layer} "
                  f"{before:.3f} -> {after:.3f}")
            continue
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}"
                 for q1, m, q3 in (row["base"], row["head"])]
        note = f" ({row['note']})" if row["note"] else ""
        print(f"{row['workload']:16s} {row['metric']:12s} {cells[0]:>32s} "
              f"{cells[1]:>32s} {row['bound']:>6.0%}  {row['verdict']}{note}")
    return 1 if any(row.get("verdict") == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
