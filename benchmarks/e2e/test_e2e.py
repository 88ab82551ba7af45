"""Tests of the end-to-end benchmark: a smoke pass of every workload with
every answer check on, the span arithmetic, and the compare verdicts.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from spans import (  # noqa: E402
    CLIENT,
    EntryPoint,
    Recorder,
    Span,
    check_tree,
    layer_summary,
    self_times,
)

#: Per workload, the per-layer metrics its traced pass must move off 0.
EXPECTED_NONZERO = {
    "stream-ingest": ("streaming.self_s", "storage.self_s",
                      "storage.stream_chunks_per_doc"),
    "edit-session": ("sacx.self_s", "core.self_s", "service.self_s",
                     "storage.load.p50_ms", "storage.rows_decoded_per_load",
                     "index.build.p50_ms", "storage.rows_written_per_publish",
                     "storage.row_level_ratio", "editing.self_s"),
    "open-doc-query": ("sacx.self_s", "xpath.self_s",
                       "xpath.plan_cache_hit_ratio"),
    "corpus-search": ("collection.self_s", "collection.routed_ratio",
                      "collection.useful_visit_ratio",
                      "collection.add.p50_ms", "collection.remove.p50_ms",
                      "streaming.lazy_rows_decoded_per_result"),
}


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_end_to_end(workload):
    summary = run.run_workload(workload, 2005, 0.3, trace=False,
                               smoke=True)["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(run.catalog("end_to_end"))
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced(workload, tmp_path):
    summary = run.run_workload(workload, 2005, 0.6, trace=True,
                               smoke=True)["summary"]
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    assert set(metrics) == set(run.catalog("per_layer"))
    for name in EXPECTED_NONZERO[workload]:
        assert metrics[name] > 0, name
    assert metrics["storage.busy_retries"] == 0
    (spans_file,) = tmp_path.glob("*-spans.jsonl")
    assert spans_file.stat().st_size > 0


def _span(id, parent, name, layer, start, end, op=1):
    return Span(id, parent, op, name, layer, start, end)


def test_self_time_nested_layers():
    # read_session > load > build, with a recursive build inside build.
    spans = [
        _span(1, None, "read", CLIENT, 0, 100),
        _span(2, 1, "DocumentService.read_session", "service", 10, 90),
        _span(3, 2, "SqliteStore.load", "storage", 20, 70),
        _span(4, 3, "GoddagBuilder.build", "core", 30, 60),
        _span(5, 4, "GoddagBuilder.build", "core", 40, 50),
        _span(6, 2, "IndexManager.refresh", "index", 75, 85),
    ]
    assert self_times(spans) == {1: 20, 2: 20, 3: 20, 4: 20, 5: 10, 6: 10}
    summary = layer_summary(spans)
    assert summary["core.calls"] == 2
    assert summary["core.self_s"] == pytest.approx(30e-9)
    assert summary["service.share"] == pytest.approx(0.2)
    assert sum(summary[f"{layer}.self_s"] for layer in
               ("service", "storage", "core", "index")) <= 100e-9
    assert check_tree(spans) == []


def test_check_tree_flags_malformed_forests():
    assert check_tree([_span(1, 7, "x", "core", 0, 1)])  # missing parent
    assert check_tree([_span(1, None, "x", "core", 0, 1)])  # no op root
    assert check_tree([_span(1, None, "a", CLIENT, 0, 10),
                       _span(2, 1, "x", "core", 5, 20)])  # leaves parent
    assert check_tree([_span(1, None, "a", CLIENT, 0, 10, op=1),
                       _span(2, 1, "x", "core", 2, 3, op=2)])  # crosses ops


class Nested:
    def outer(self, depth: int) -> int:
        return self.inner(depth) + 1

    def inner(self, depth: int) -> int:
        return self.outer(depth - 1) if depth else 0


def test_recorder_spans_nest_and_wrappers_come_off():
    points = [EntryPoint("core", __name__, "Nested", "outer"),
              EntryPoint("index", __name__, "Nested", "inner")]
    recorder = Recorder()
    original = Nested.outer
    with recorder.installed(points):
        Nested().outer(1)  # outside an op: no spans
        with recorder.op("client-op"):
            assert Nested().outer(2) == 3
    assert Nested.outer is original
    assert [s.name for s in recorder.spans].count("Nested.outer") == 3
    assert check_tree(recorder.spans) == []
    root = next(s for s in recorder.spans if s.parent is None)
    assert sum(self_times(recorder.spans).values()) == root.duration_ns


def test_scaler_uses_the_bursts_around_each_window(monkeypatch):
    bursts = iter([4_000_000, 6_000_000, 2_000_000])
    monkeypatch.setattr(pace, "burst", lambda: next(bursts))
    monkeypatch.setattr(pace, "PERIOD_S", 3600)
    scaler = pace.Scaler()
    scaler.add("a", 1000)
    scaler.add("b", 2000)
    scaler.flush()  # window 1: bursts 4 and 6 ms -> factor 0.8
    scaler.add("a", 1000)
    scaler.flush()  # window 2: bursts 6 and 2 ms -> factor 1.0
    scaler.flush()  # empty window: no burst
    assert scaler.scaled == {"a": [800.0, 1000.0], "b": [1600.0]}
    assert scaler.bursts == [4_000_000, 6_000_000, 2_000_000]
    assert pace.scale(2.0, 3_000_000, 5_000_000) == pytest.approx(2.0)


def test_reference_burst_triggers_no_collection():
    gc.collect()
    before = sum(stat["collections"] for stat in gc.get_stats())
    for _ in range(20):
        pace.burst()
    assert sum(stat["collections"] for stat in gc.get_stats()) == before


@pytest.mark.parametrize("base, head, better, expected", [
    ([100, 101, 102], [100, 102, 101], "lower", "same"),
    ([100, 101, 102], [120, 121, 122], "lower", "regressed"),
    ([100, 101, 102], [120, 121, 122], "higher", "improved"),
    ([100, 101, 102], [80, 81, 82], "lower", "improved"),
    # past the bound, but the IQRs overlap
    ([100, 100, 110], [110, 111, 111], "lower", "same"),
    # a side's own spread exceeds the bound
    ([100, 130, 160], [100, 101, 102], "lower", "unresolved"),
])
def test_verdict_rule(base, head, better, expected):
    assert compare.verdict(base, head, 0.1, better) == expected


def _record(calibration_s=0.010, nproc=2, seconds=24, smoke=False):
    return {"workload": "w", "trace": 0, "calibration_s": calibration_s,
            "seconds": seconds, "smoke": smoke,
            "fingerprint": {"nproc": nproc},
            "summary": {"metrics": {"op_p50_ms": {"value": 1.0}}}}


def test_uncomparable_machines_are_unresolved():
    bounds = {"op_p50_ms": {"unit": "ms", "bound": 0.1, "better": "lower"}}
    rows = compare.compare([_record(0.010)], [_record(0.013)], bounds)
    assert rows[0]["verdict"] == "unresolved"
    assert rows[0]["note"] == "calibration moved +30%"
    # machine speed does not move a memory metric
    rows = compare.compare([_record(0.010)], [_record(0.013)], {
        "op_p50_ms": {"unit": "MB", "bound": 0.1, "better": "lower"}})
    assert rows[0]["verdict"] == "same"
    rows = compare.compare([_record(0.010)], [_record(0.010, nproc=4)], bounds)
    assert rows[0]["verdict"] == "unresolved"
    rows = compare.compare([_record(0.010)], [_record(0.0101)], bounds)
    assert rows[0]["verdict"] == "same"


@pytest.mark.parametrize("head", [_record(seconds=5), _record(smoke=True)])
def test_different_run_lengths_are_unresolved(head):
    bounds = {"op_p50_ms": {"unit": "MB", "bound": 0.1, "better": "lower"}}
    (row,) = compare.compare([_record()], [head], bounds)
    assert row["verdict"] == "unresolved"
    assert "differ" in row["note"]
