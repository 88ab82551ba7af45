"""E14 — collection-scale querying: summary routing + per-document fan-out.

A corpus of small documents with a skewed tag population (most carry
the physical + linguistic hierarchies only; ~8% add the verse
hierarchy with ``vline``; ~2% the editorial one with ``dmg``) is
queried cross-document::

    collection()//dmg        # ~2%-selective: routing should win big
    collection()//vline      # ~10%-selective: the fan-out workload

For each corpus size the bench reports

* routed vs route-everything latency on the selective query, plus the
  documents visited either way — the tentpole claim is that latency
  scales with the matching subset, not the corpus;
* a worker sweep (1, 4, 8) of the fan-out over the ``vline`` routed
  set (one worker runs serially, more on the process pool);

and enforces the acceptance bars on the same runs: routing visits no
more documents than actually contain the feature, answers are
byte-identical between routed/unrouted and across every worker count,
and at >= 1000 documents the routed median is >= 5x faster than
route-everything.  The parallel >= 2x bar only applies on machines
with >= 4 effective cores (single-core CI boxes run the sweep for the
identity bars alone).

Sizes: 100 in CI smoke (``REPRO_BENCH_SMOKE=1``), 100 + 1000 by
default, plus 5000 in the nightly full sweep (``REPRO_BENCH_FULL=1``).

Run standalone for the report table::

    PYTHONPATH=src python benchmarks/bench_e14_collection.py

or through pytest (the assertions are the acceptance bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e14_collection.py -q
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from pathlib import Path

from repro import Corpus
from repro.workloads import WorkloadSpec, generate

if os.environ.get("REPRO_BENCH_FULL"):
    SIZES = (100, 1000, 5000)
elif os.environ.get("REPRO_BENCH_SMOKE"):
    SIZES = (100,)
else:
    SIZES = (100, 1000)

WORDS = 30

#: Seed base chosen so the smoke corpus's editorial documents really
#: contain ``dmg`` (generation is probabilistic) — the selective-query
#: bars must not pass vacuously on an empty match set.
SEED_BASE = 20000

SELECTIVE_QUERY = "collection()//dmg"
FANOUT_QUERY = "collection()//vline"

WORKER_SWEEP = (1, 4, 8)

#: Minimum routed-vs-unrouted median speedup at >= 1000 documents.
ROUTING_SPEEDUP_FLOOR = 5.0

#: Minimum 4-worker-vs-serial speedup on the routed set — only
#: enforced with >= this many effective cores.
PARALLEL_SPEEDUP_FLOOR = 2.0
PARALLEL_CORES_REQUIRED = 4


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _hierarchies(i: int) -> int:
    """The corpus mix: every 50th document editorial (dmg/res), every
    12th verse (vline), the rest two-hierarchy."""
    if i % 50 == 0:
        return 4
    if i % 12 == 0:
        return 3
    return 2


def _repeats(size: int) -> int:
    return 7 if size <= 100 else (5 if size <= 1000 else 3)


def _timed(callable_, repeats: int):
    samples, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = callable_()
        samples.append(time.perf_counter() - t0)
    return samples, result


def _timed_pair(first, second, repeats: int):
    """``_timed`` for two arms, alternated per repeat (first, second,
    first, ...), so a slow phase of the machine lands on both arms
    instead of deciding their ratio."""
    first_samples, second_samples = [], []
    first_result = second_result = None
    for _ in range(repeats):
        samples, first_result = _timed(first, 1)
        first_samples += samples
        samples, second_result = _timed(second, 1)
        second_samples += samples
    return (first_samples, first_result), (second_samples, second_result)


def drive(size: int, directory: Path) -> dict:
    """One sweep point: build a ``size``-document corpus, measure the
    routing win and the worker sweep."""
    corpus = Corpus(directory / f"corpus-{size}.db")
    t0 = time.perf_counter()
    corpus.add_many(
        (generate(WorkloadSpec(words=WORDS, hierarchies=_hierarchies(i),
                               overlap_density=0.3, seed=SEED_BASE + i)),
         f"doc-{i:05d}")
        for i in range(size)
    )
    ingest_s = time.perf_counter() - t0

    repeats = _repeats(size)
    (routed_samples, routed), (unrouted_samples, unrouted) = _timed_pair(
        lambda: corpus.query(SELECTIVE_QUERY, routing=True),
        lambda: corpus.query(SELECTIVE_QUERY, routing=False),
        repeats)

    # The feature-bearing subset, counted directly: routing must visit
    # no more than the documents that actually hold the tag.
    bearing = sum(
        1 for name, rows in unrouted.rows_by_document.items() if rows
    )

    sweep = {}
    fanout_hits = None
    for workers in WORKER_SWEEP:
        samples, result = _timed(
            lambda w=workers: corpus.query(FANOUT_QUERY, workers=w),
            repeats)
        if fanout_hits is None:
            fanout_hits = result.hits
        sweep[workers] = {"samples": samples,
                          "identical": result.hits == fanout_hits}

    corpus.close()
    return {
        "size": size,
        "ingest_s": ingest_s,
        "routed_samples": routed_samples,
        "unrouted_samples": unrouted_samples,
        "routed_visited": routed.plan.routed_count,
        "unrouted_visited": unrouted.plan.routed_count,
        "bearing": bearing,
        "identical": routed.hits == unrouted.hits,
        "hits": len(routed.hits),
        "sweep": sweep,
    }


def run_all(directory: Path) -> list[dict]:
    return [drive(size, directory) for size in SIZES]


def report(rows: list[dict]) -> str:
    lines = [
        f"E14 — collection routing + fan-out ({WORDS}-word documents, "
        f"query {SELECTIVE_QUERY})",
        f"{'docs':>6} {'ingest':>8} {'routed':>9} {'visited':>8} "
        f"{'unrouted':>9} {'visited':>8} {'speedup':>8}",
    ]
    for row in rows:
        routed = statistics.median(row["routed_samples"])
        unrouted = statistics.median(row["unrouted_samples"])
        lines.append(
            f"{row['size']:>6} {row['ingest_s']:>7.2f}s "
            f"{routed * 1e3:>7.1f}ms {row['routed_visited']:>8} "
            f"{unrouted * 1e3:>7.1f}ms {row['unrouted_visited']:>8} "
            f"{unrouted / routed:>7.1f}x"
        )
    lines.append(f"process fan-out worker sweep ({FANOUT_QUERY}):")
    for row in rows:
        serial = statistics.median(row["sweep"][1]["samples"])
        cells = " ".join(
            f"w={workers}: {statistics.median(entry['samples']) * 1e3:6.1f}ms"
            f" ({serial / statistics.median(entry['samples']):4.1f}x)"
            for workers, entry in sorted(row["sweep"].items())
        )
        lines.append(f"{row['size']:>6} {cells}")
    return "\n".join(lines)


def check(rows: list[dict]) -> None:
    """The acceptance bars, shared by pytest and standalone runs."""
    cores = _effective_cores()
    for row in rows:
        label = f"size={row['size']}"
        assert row["identical"], f"{label}: routed answers diverged"
        assert row["unrouted_visited"] == row["size"], label
        assert row["routed_visited"] <= row["bearing"], (
            f"{label}: routing visited {row['routed_visited']} documents, "
            f"only {row['bearing']} hold the feature")
        assert row["routed_visited"] < row["size"], (
            f"{label}: routing pruned nothing")
        assert row["hits"] > 0, f"{label}: the selective query matched nothing"
        for workers, entry in row["sweep"].items():
            assert entry["identical"], (
                f"{label}: workers={workers} fan-out answers diverged")
        if row["size"] >= 1000:
            speedup = (statistics.median(row["unrouted_samples"])
                       / statistics.median(row["routed_samples"]))
            assert speedup >= ROUTING_SPEEDUP_FLOOR, (
                f"{label}: routed speedup {speedup:.1f}x < "
                f"{ROUTING_SPEEDUP_FLOOR}x")
            if cores >= PARALLEL_CORES_REQUIRED:
                parallel = (statistics.median(row["sweep"][1]["samples"])
                            / statistics.median(row["sweep"][4]["samples"]))
                assert parallel >= PARALLEL_SPEEDUP_FLOOR, (
                    f"{label}: 4-worker fan-out {parallel:.1f}x < "
                    f"{PARALLEL_SPEEDUP_FLOOR}x with {cores} cores")


def test_e14_collection_routing():
    """Routing visits <= the feature-bearing subset, wins >= 5x at 1k
    documents, and every mode/worker combination is byte-identical."""
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    print("\n" + report(rows))
    check(rows)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    print(report(rows))
    check(rows)
